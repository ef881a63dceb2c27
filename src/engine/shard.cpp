#include "engine/shard.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/check.h"

namespace sperke::engine {

Shard::Shard(const WorldSpec& spec, int shard_id,
             std::shared_ptr<const media::VideoModel> video,
             std::span<const hmp::HeadTrace> traces)
    : spec_(spec),
      shard_id_(shard_id),
      telemetry_(std::make_unique<obs::Telemetry>()),
      video_(std::move(video)) {
  // The engine validates the spec before fanning out; a shard constructed
  // outside those bounds would silently own the wrong session slice.
  SPERKE_CHECK(shard_id >= 0 && shard_id < spec.shards,
               "Shard: id ", shard_id, " outside [0, ", spec.shards, ")");
  SPERKE_CHECK(!traces.empty(), "Shard: empty head-trace pool");
  SPERKE_CHECK(spec.sessions_per_link > 0,
               "Shard: sessions_per_link must be positive");
  const int groups = group_count(spec);
  // Pre-count this shard's sessions so one SoA batch holds every session's
  // hot state contiguously (no per-session allocation in the loop below).
  int shard_sessions = 0;
  for (int g = 0; g < groups; ++g) {
    if (shard_of_group(spec, g) != shard_id_) continue;
    const int first = g * spec.sessions_per_link;
    shard_sessions +=
        std::max(0, std::min(first + spec.sessions_per_link, spec.sessions) - first);
  }
  if (shard_sessions > 0) {
    batch_ = std::make_unique<core::SessionBatch>(video_, shard_sessions);
  }
  // The topology owns every link this shard's fetches can touch; with the
  // CDN tier enabled it also builds one warmed edge (cache + backhaul) per
  // edge_of_group cluster, all of whose groups land on this shard.
  topology_ = std::make_unique<cdn::Topology>(
      simulator_, spec.cdn, spec.session_telemetry ? telemetry_.get() : nullptr,
      video_.get(), spec.crowd);
  for (int g = 0; g < groups; ++g) {
    if (shard_of_group(spec, g) != shard_id_) continue;
    net::LinkConfig link_config =
        spec.link_for_group ? spec.link_for_group(g) : spec.link;
    net::FaultPlan faults = faults_of_group(spec, g);
    if (!faults.empty()) link_config.faults = std::move(faults);
    link_has_faults_.push_back(!link_config.faults.empty());
    net::ChunkSource& source =
        topology_->add_group(edge_of_group(spec, g), std::move(link_config));
    core::TransportOptions transport_options;
    transport_options.max_concurrent = spec.transport_max_concurrent;
    transport_options.telemetry =
        spec.session_telemetry ? telemetry_.get() : nullptr;
    transport_options.recovery = spec.transport_recovery;
    transports_.push_back(
        std::make_unique<core::SingleLinkTransport>(source, transport_options));
    core::SingleLinkTransport& transport = *transports_.back();

    const int first = g * spec.sessions_per_link;
    const int last = std::min(first + spec.sessions_per_link, spec.sessions);
    for (int i = first; i < last; ++i) {
      core::SessionConfig config =
          spec.session_for ? spec.session_for(i) : spec.session;
      config.telemetry = spec.session_telemetry ? telemetry_.get() : nullptr;
      sessions_.push_back(std::make_unique<core::StreamingSession>(
          simulator_, video_, transport,
          traces[static_cast<std::size_t>(i) % traces.size()],
          std::move(config), spec.crowd, batch_.get()));
      session_ids_.push_back(i);
    }
  }
  if (spec.monitor) monitor_.emplace(simulator_, *telemetry_);
  if (spec.sample_period > sim::Duration{0}) {
    series_ = obs::TimeSeriesStore(spec.sample_period);
    if (!spec.slos.empty()) {
      slo_eval_.emplace(spec.slos, series_, *telemetry_);
    }
    // Interval boundaries land at exact period multiples; run_until
    // executes events scheduled exactly at the horizon, so every shard
    // closes the same floor(horizon/period) intervals regardless of its
    // session slice — the precondition for a byte-identical merge.
    sampler_.emplace(simulator_, spec.sample_period, [this] {
      series_.sample(telemetry_->metrics());
      if (slo_eval_) slo_eval_->evaluate();
    });
  }

  if constexpr (SPERKE_DCHECK_IS_ON) {
    // session_ids_ ascending is what makes the merged report order (and
    // therefore every merged metric) independent of shard count.
    for (std::size_t s = 1; s < session_ids_.size(); ++s) {
      SPERKE_DCHECK(session_ids_[s - 1] < session_ids_[s],
                    "Shard: session ids not strictly ascending");
    }
  }

  // Starts are staggered by *global* id, so a group's timeline is the same
  // whether it shares a simulator with every other group or runs alone.
  for (std::size_t s = 0; s < sessions_.size(); ++s) {
    core::StreamingSession* session = sessions_[s].get();
    simulator_.schedule_at(spec.start_stagger * session_ids_[s],
                           [session] { session->start(); });
  }
}

void Shard::run() {
  if (ran_) throw std::logic_error("Shard::run: already ran");
  if (telemetry_ == nullptr) {
    throw std::logic_error("Shard::run: telemetry already released");
  }
  ran_ = true;
  simulator_.run_until(spec_.horizon);
  // Fault observability (DESIGN.md §10): each faulted link group's outage
  // exposure, observed once at the horizon. Links are visited in ascending
  // group order, so the merged histogram is deterministic; fault-free
  // worlds register nothing.
  if (spec_.session_telemetry) {
    for (int i = 0; i < topology_->access_link_count(); ++i) {
      if (!link_has_faults_[static_cast<std::size_t>(i)]) continue;
      telemetry_->metrics().histogram("net.outage_s")
          .observe(topology_->access_link(i).outage_seconds());
    }
  }
}

int Shard::completed() const {
  int done = 0;
  for (const auto& session : sessions_) {
    if (session->finished()) ++done;
  }
  return done;
}

}  // namespace sperke::engine
