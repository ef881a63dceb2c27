// The three workloads, generated from a seed, and the bench-side runners:
// the engine worlds rebuilt shard by shard from public pieces, the
// multipath worlds on a small thread pool, and the geo/hmp/abr probes.
#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <thread>
#include <tuple>

#include "abr/factory.h"
#include "cdn/topology.h"
#include "core/session_batch.h"
#include "engine/world.h"
#include "hmp/fusion.h"
#include "hmp/predictor.h"
#include "media/video_model.h"
#include "mp/multipath.h"
#include "net/link.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "perfbench.h"
#include "sim/periodic.h"

namespace perfbench {

namespace {

using namespace sperke;

constexpr double kVideoSeconds = 20.0;
// Many distinct viewers, so that run-level QoE and cost barely depend on
// which viewers a seed draws.
constexpr int kTracePool = 256;
constexpr int kSessionsPerMpWorld = 2;
constexpr sim::Duration kMpStagger = sim::milliseconds(500);
constexpr double kMpHorizonSeconds = kVideoSeconds + 300.0;
constexpr sim::Duration kSamplePeriod = sim::milliseconds(500);

// splitmix64 over (seed, salt): every generated input draws its own stream.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// A small positive seed for library configs that print or offset it.
std::uint64_t small_seed(std::uint64_t seed, std::uint64_t salt) {
  return 1 + derive(seed, salt) % 1'000'000;
}

// Uniform double in [lo, hi) from (seed, salt).
double uniform(std::uint64_t seed, std::uint64_t salt, double lo, double hi) {
  const double unit =
      static_cast<double>(derive(seed, salt) >> 11) * (1.0 / 9007199254740992.0);
  return lo + unit * (hi - lo);
}

void common_spec(engine::WorldSpec& spec, std::uint64_t seed, int rows, int cols) {
  spec.video.duration_s = kVideoSeconds;
  spec.video.chunk_duration_s = 1.0;
  spec.video.tile_rows = rows;
  spec.video.tile_cols = cols;
  // The content (chunk sizes, regions of interest) is fixed; the seed
  // draws the viewers, the network and the shard streams.
  spec.video.seed = 7;

  // Head orientation is indexed by content time, which never passes the
  // video's end (a stall freezes it), so a short margin suffices.
  spec.trace_template.duration_s = kVideoSeconds + 10.0;
  spec.trace_template.sample_rate_hz = 25.0;
  spec.trace_template.attractors =
      hmp::default_attractors(spec.trace_template.duration_s, 4242);
  spec.trace_template.seed = small_seed(seed, 3);
  spec.trace_pool = kTracePool;
  spec.start_stagger = sim::milliseconds(10);
  spec.seed = small_seed(seed, 4);
}

// `sessions` concurrent sessions, 4 per 100 Mbps / 30 ms direct link, one
// shard per link group. (At 8 per link the sessions' shared throughput
// estimate overcommits the link and stalls dominate: ~5 s per 20 s video.)
void vod_direct_spec(engine::WorldSpec& spec, std::uint64_t seed, int sessions) {
  common_spec(spec, seed, 4, 6);
  spec.link.name = "link";
  spec.link.bandwidth = net::BandwidthTrace::constant(100'000.0);
  spec.link.rtt = sim::milliseconds(30);
  spec.sessions_per_link = 4;
  spec.transport_max_concurrent = 16;
  spec.sessions = sessions;
  spec.horizon = sim::seconds(kVideoSeconds + 600.0 + 0.010 * sessions);
  spec.shards = engine::group_count(spec);
}

// 8x12 tiles, 2 sessions per 50 Mbps access link, 32 sessions per edge
// behind an LRU cache smaller than one edge's working set, crowd-warmed.
// (At 4 per link stalls dominate: ~9 s per 20 s video. The edge is the
// partition unit, and 64-session edges left too few shards to keep four
// threads evenly busy.)
void vod_cdn_fine_spec(engine::WorldSpec& spec, std::uint64_t seed, int sessions) {
  common_spec(spec, seed, 8, 12);
  spec.link.name = "access";
  spec.link.bandwidth = net::BandwidthTrace::constant(50'000.0);
  spec.link.rtt = sim::milliseconds(30);
  spec.sessions_per_link = 2;
  spec.transport_max_concurrent = 16;
  spec.sessions = sessions;
  spec.horizon = sim::seconds(kVideoSeconds + 600.0 + 0.010 * sessions);

  spec.cdn.sessions_per_edge = 32;
  spec.cdn.backhaul.name = "backhaul";
  spec.cdn.backhaul.bandwidth = net::BandwidthTrace::constant(400'000.0);
  spec.cdn.backhaul.rtt = sim::milliseconds(20);
  spec.cdn.cache_policy = "lru";
  spec.cdn.cache_capacity_bytes = 4LL << 20;
  spec.cdn.warm_tiles_per_chunk = 16;
  spec.cdn.warm_level = 0;
  // The edge is the partition unit: one shard per edge.
  spec.shards = (sessions + spec.cdn.sessions_per_edge - 1) /
                spec.cdn.sessions_per_edge;
}

// Multipath template: the policy cycles by global session id, and failed
// FoV fetches are re-requested at the base tier.
void mp_chaos_inputs(WorldInputs& in, std::uint64_t seed, int sessions) {
  common_spec(in.spec, seed, 4, 6);
  in.spec.sessions = sessions;
  in.spec.session.fetch_recovery = true;
  in.spec.session_for = [](int session) {
    core::SessionConfig config;
    config.fetch_recovery = true;
    const std::vector<std::string> policies = mp_policies();
    config.abr.policy = policies[static_cast<std::size_t>(session) % policies.size()];
    return config;
  };
  in.sessions_per_mp_world = kSessionsPerMpWorld;
  in.recovery.enabled = true;
  in.recovery.min_timeout = sim::seconds(2.0);
}

}  // namespace

int default_sessions(Workload workload) {
  switch (workload) {
    case Workload::kVodDirect: return 768;
    case Workload::kVodCdnFine: return 512;
    case Workload::kMpChaos: return 480;
  }
  return 0;
}

std::unique_ptr<WorldInputs> make_inputs(Workload workload, std::uint64_t seed,
                                         int sessions) {
  auto in = std::make_unique<WorldInputs>();
  in->workload = workload;
  in->seed = seed;
  in->sessions = sessions;
  switch (workload) {
    case Workload::kVodDirect: vod_direct_spec(in->spec, seed, sessions); break;
    case Workload::kVodCdnFine: vod_cdn_fine_spec(in->spec, seed, sessions); break;
    case Workload::kMpChaos: mp_chaos_inputs(*in, seed, sessions); break;
  }
  in->traces = engine::build_trace_pool(in->spec);
  if (workload == Workload::kVodCdnFine) {
    const media::VideoModel video(in->spec.video);
    in->crowd = std::make_unique<hmp::ViewingHeatmap>(video.tile_count(),
                                                      video.chunk_count());
    for (const hmp::HeadTrace& trace : in->traces) {
      in->crowd->add_trace(trace, video.geometry(), in->spec.session.viewport,
                           video.chunk_duration());
    }
    in->spec.crowd = in->crowd.get();
  }
  if (workload != Workload::kMpChaos) engine::validate(in->spec);
  return in;
}

int mp_world_count(const WorldInputs& inputs) {
  return (inputs.sessions + inputs.sessions_per_mp_world - 1) /
         inputs.sessions_per_mp_world;
}

net::LinkConfig mp_wifi(const WorldInputs& inputs, int world) {
  const std::uint64_t seed = derive(inputs.seed, 1000 + static_cast<std::uint64_t>(world));
  net::LinkConfig wifi;
  wifi.name = "wifi";
  // Fast but collapsing (walking between rooms), with one outage and one
  // RTT spike. Both start after every session's startup: a startup fetch
  // that fails is never re-requested by the session (see README.md), and
  // random per-transfer failures would hit startup fetches.
  wifi.bandwidth = net::BandwidthTrace::markov_two_state(
      16'000.0, 2'000.0, 14.0, 4.0, kMpHorizonSeconds, small_seed(seed, 1));
  wifi.rtt = sim::milliseconds(18);
  wifi.faults.outages.push_back(
      {.start_s = uniform(seed, 2, 6.0, 14.0), .duration_s = uniform(seed, 3, 1.0, 3.0)});
  wifi.faults.rtt_spikes.push_back(
      {.start_s = uniform(seed, 5, 6.0, 20.0), .duration_s = 2.0, .factor = 4.0});
  wifi.faults.seed = small_seed(seed, 4);
  return wifi;
}

net::LinkConfig mp_lte(const WorldInputs& inputs, int world) {
  const std::uint64_t seed = derive(inputs.seed, 2000 + static_cast<std::uint64_t>(world));
  net::LinkConfig lte;
  lte.name = "lte";
  // Steadier but slower, lossy, longer RTT.
  lte.bandwidth = net::BandwidthTrace::random_walk(7'000.0, 0.2, 1.0,
                                                   kMpHorizonSeconds,
                                                   small_seed(seed, 1), 2'000.0,
                                                   14'000.0);
  lte.rtt = sim::milliseconds(55);
  lte.loss_rate = 0.003;
  return lte;
}

namespace {

// One engine shard rebuilt from public pieces. It mirrors engine::Shard's
// constructor step by step, so every event is scheduled in the same order
// and the reports match the engine's.
WorldRun run_engine_shard(const WorldInputs& inputs, int shard,
                          const RunOptions& options) {
  const engine::WorldSpec& spec = inputs.spec;
  const std::span<const hmp::HeadTrace> traces(inputs.traces);
  Tracer* tracer = options.tracer;
  const SpanName source_span =
      spec.cdn.enabled() ? SpanName::kCdnFetch : SpanName::kNetFetch;
  WorldRun out;
  const int groups = engine::group_count(spec);
  const double build_start = wall_seconds();
  sim::Simulator simulator;
  obs::Telemetry cdn_telemetry;  // cdn.origin.egress_bytes only
  const auto video = std::make_shared<const media::VideoModel>(spec.video);
  int shard_sessions = 0;
  for (int g = 0; g < groups; ++g) {
    if (engine::shard_of_group(spec, g) != shard) continue;
    const int first = g * spec.sessions_per_link;
    shard_sessions += std::max(
        0, std::min(first + spec.sessions_per_link, spec.sessions) - first);
  }
  std::unique_ptr<core::SessionBatch> batch;
  if (shard_sessions > 0) {
    batch = std::make_unique<core::SessionBatch>(video, shard_sessions);
  }
  cdn::Topology topology(simulator, spec.cdn, &cdn_telemetry, video.get(),
                         spec.crowd);
  std::vector<std::unique_ptr<DispatchLedger>> ledgers;
  std::vector<std::unique_ptr<TracedSource>> sources;
  std::vector<std::unique_ptr<core::SingleLinkTransport>> transports;
  std::vector<std::unique_ptr<TracedTransport>> fronts;
  std::vector<std::unique_ptr<core::StreamingSession>> sessions;
  std::vector<int> ids;
  for (int g = 0; g < groups; ++g) {
    if (engine::shard_of_group(spec, g) != shard) continue;
    net::LinkConfig link_config =
        spec.link_for_group ? spec.link_for_group(g) : spec.link;
    net::FaultPlan faults = engine::faults_of_group(spec, g);
    if (!faults.empty()) link_config.faults = std::move(faults);
    net::ChunkSource* source =
        &topology.add_group(engine::edge_of_group(spec, g), std::move(link_config));
    DispatchLedger* ledger = nullptr;
    if (tracer != nullptr) {
      ledgers.push_back(std::make_unique<DispatchLedger>());
      ledger = ledgers.back().get();
      sources.push_back(
          std::make_unique<TracedSource>(*source, *tracer, source_span, ledger));
      source = sources.back().get();
    }
    core::TransportOptions transport_options;
    transport_options.max_concurrent = spec.transport_max_concurrent;
    transport_options.recovery = spec.transport_recovery;
    transports.push_back(
        std::make_unique<core::SingleLinkTransport>(*source, transport_options));
    core::ChunkTransport* transport = transports.back().get();
    if (tracer != nullptr) {
      fronts.push_back(std::make_unique<TracedTransport>(
          *transport, simulator, *tracer, SpanName::kTransportFetch, ledger));
      transport = fronts.back().get();
    }
    const int first = g * spec.sessions_per_link;
    const int last = std::min(first + spec.sessions_per_link, spec.sessions);
    for (int i = first; i < last; ++i) {
      core::SessionConfig config = spec.session_for ? spec.session_for(i) : spec.session;
      config.telemetry = nullptr;
      sessions.push_back(std::make_unique<core::StreamingSession>(
          simulator, video, *transport,
          traces[static_cast<std::size_t>(i) % traces.size()], std::move(config),
          spec.crowd, batch.get()));
      ids.push_back(i);
    }
  }
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    core::StreamingSession* session = sessions[s].get();
    simulator.schedule_at(spec.start_stagger * ids[s], [session] { session->start(); });
  }
  const double run_start = wall_seconds();
  simulator.run_until(spec.horizon);
  out.units.push_back({run_start - build_start, wall_seconds() - run_start});

  out.events += simulator.events_executed();
  for (const auto& session : sessions) out.reports.push_back(session->report());
  out.session_ids = std::move(ids);
  for (const auto& transport : transports) out.transport_bytes += transport->bytes_fetched();
  for (const auto& source : sources) out.delivered_bytes += source->delivered_bytes();
  for (int e = 0; e < topology.edge_count(); ++e) {
    const cdn::EdgeStats& stats = topology.edge(e).stats();
    out.edge.hits += stats.hits;
    out.edge.misses += stats.misses;
    out.edge.coalesced += stats.coalesced;
    out.edge.evictions += stats.evictions;
    out.edge.warmed += stats.warmed;
  }
  if (const obs::Counter* egress =
          cdn_telemetry.metrics().find_counter("cdn.origin.egress_bytes")) {
    out.origin_egress_bytes += egress->value();
  }
  return out;
}

// One multipath world: `kSessionsPerMpWorld` sessions on a WiFi + LTE pair
// under the min-RTT scheduler, with recovery, telemetry, a sampled time
// series and one stall SLO. (The content-aware scheduler leaves sessions
// stalled for good when it drops a best-effort fetch the player waits for;
// see README.md.)
WorldRun run_mp_world(const WorldInputs& inputs, int world, const RunOptions& options) {
  const double build_start = wall_seconds();
  WorldRun out;
  sim::Simulator simulator;
  std::unique_ptr<obs::Telemetry> telemetry;
  if (options.telemetry) telemetry = std::make_unique<obs::Telemetry>();
  const auto video = std::make_shared<const media::VideoModel>(inputs.spec.video);
  net::Link wifi(simulator, mp_wifi(inputs, world));
  net::Link lte(simulator, mp_lte(inputs, world));
  mp::MultipathTransport transport(
      simulator, {&wifi, &lte}, mp::make_path_scheduler("minrtt"),
      {.max_concurrent = 2, .telemetry = telemetry.get(), .recovery = inputs.recovery});
  std::optional<TracedTransport> traced;
  core::ChunkTransport* front = &transport;
  if (options.tracer != nullptr) {
    traced.emplace(transport, simulator, *options.tracer, SpanName::kMpFetch, nullptr);
    front = &*traced;
  }
  const int first = world * inputs.sessions_per_mp_world;
  const int last = std::min(first + inputs.sessions_per_mp_world, inputs.sessions);
  core::SessionBatch batch(video, last - first);
  std::vector<std::unique_ptr<core::StreamingSession>> sessions;
  for (int i = first; i < last; ++i) {
    core::SessionConfig config = inputs.spec.session_for(i);
    config.telemetry = telemetry.get();
    sessions.push_back(std::make_unique<core::StreamingSession>(
        simulator, video, *front,
        inputs.traces[static_cast<std::size_t>(i) % inputs.traces.size()],
        std::move(config), nullptr, &batch));
    core::StreamingSession* session = sessions.back().get();
    simulator.schedule_at(kMpStagger * (i - first), [session] { session->start(); });
  }
  std::optional<obs::TimeSeriesStore> series;
  std::optional<obs::SloEvaluator> slos;
  std::optional<sim::PeriodicTask> sampler;
  if (telemetry != nullptr) {
    series.emplace(kSamplePeriod);
    slos.emplace(std::vector<obs::SloSpec>{{.name = "mp.stall_ratio",
                                            .metric = "session.stalled",
                                            .signal = obs::SloSignal::kGaugeValue,
                                            .threshold = 0.5,
                                            .window_intervals = 1}},
                 *series, *telemetry);
    sampler.emplace(simulator, kSamplePeriod, [&] {
      series->sample(telemetry->metrics());
      slos->evaluate();
    });
  }
  const double run_start = wall_seconds();
  simulator.run_until(sim::seconds(kMpHorizonSeconds));
  out.units.push_back({run_start - build_start, wall_seconds() - run_start});

  out.events = simulator.events_executed();
  for (int i = first; i < last; ++i) out.session_ids.push_back(i);
  for (const auto& session : sessions) out.reports.push_back(session->report());
  const mp::MultipathStats& stats = transport.stats();
  out.transport_bytes = transport.bytes_fetched();
  for (const std::int64_t bytes : stats.bytes_per_path) out.delivered_bytes += bytes;
  for (const int requests : stats.requests_per_path) out.mp_requests += requests;
  out.mp_failovers = stats.failovers;
  out.mp_dropped_best_effort = stats.dropped_best_effort;
  if (telemetry != nullptr) {
    // Per-path attempt latency and failures, read back from the transport's
    // own attempt spans (its links take no ChunkSource decorator).
    std::map<std::tuple<std::int64_t, double, std::int32_t>, sim::Time> started;
    for (const obs::TraceEvent& e : telemetry->trace().events()) {
      const auto key = std::make_tuple(e.request, e.value, e.path);
      if (e.type == obs::TraceEventType::kFetchAttemptStart) {
        started[key] = e.ts;
      } else if (e.type == obs::TraceEventType::kFetchAttemptEnd) {
        const auto it = started.find(key);
        if (it == started.end()) continue;
        ++out.attempts;
        if (e.bytes == 0) ++out.attempts_failed;
        out.attempt_latency_ms.push_back(sim::to_milliseconds(e.ts - it->second));
        started.erase(it);
      }
    }
  }
  return out;
}

}  // namespace

int unit_count(const WorldInputs& inputs) {
  return inputs.workload == Workload::kMpChaos ? mp_world_count(inputs)
                                               : inputs.spec.shards;
}

WorldRun run_unit(const WorldInputs& inputs, int unit, const RunOptions& options) {
  return inputs.workload == Workload::kMpChaos
             ? run_mp_world(inputs, unit, options)
             : run_engine_shard(inputs, unit, options);
}

void append(WorldRun& into, WorldRun&& part) {
  for (std::size_t s = 0; s < part.reports.size(); ++s) {
    const auto id = static_cast<std::size_t>(part.session_ids[s]);
    if (into.reports.size() <= id) {
      into.reports.resize(id + 1);
      into.session_ids.resize(id + 1);
    }
    into.reports[id] = std::move(part.reports[s]);
    into.session_ids[id] = part.session_ids[s];
  }
  into.units.insert(into.units.end(), part.units.begin(), part.units.end());
  into.events += part.events;
  into.transport_bytes += part.transport_bytes;
  into.delivered_bytes += part.delivered_bytes;
  into.mp_failovers += part.mp_failovers;
  into.mp_dropped_best_effort += part.mp_dropped_best_effort;
  into.mp_requests += part.mp_requests;
  into.attempt_latency_ms.insert(into.attempt_latency_ms.end(),
                                 part.attempt_latency_ms.begin(),
                                 part.attempt_latency_ms.end());
  into.attempts += part.attempts;
  into.attempts_failed += part.attempts_failed;
  into.edge.hits += part.edge.hits;
  into.edge.misses += part.edge.misses;
  into.edge.coalesced += part.edge.coalesced;
  into.edge.evictions += part.edge.evictions;
  into.edge.warmed += part.edge.warmed;
  into.origin_egress_bytes += part.origin_egress_bytes;
}

WorldRun run_mp_worlds(const WorldInputs& inputs, const RunOptions& options) {
  const int worlds = mp_world_count(inputs);
  const int threads = std::clamp(options.threads, 1, worlds);
  std::vector<WorldRun> parts(static_cast<std::size_t>(worlds));
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(worlds));
  std::atomic<int> next{0};
  const auto worker = [&] {
    for (;;) {
      const int w = next.fetch_add(1, std::memory_order_relaxed);
      if (w >= worlds) return;
      try {
        parts[static_cast<std::size_t>(w)] = run_mp_world(inputs, w, options);
      } catch (...) {
        errors[static_cast<std::size_t>(w)] = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> pool;
    for (int t = 0; t < threads; ++t) pool.emplace_back(worker);
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  WorldRun out;
  for (WorldRun& part : parts) append(out, std::move(part));
  return out;
}

ProbeResult run_probes(const WorldInputs& inputs) {
  const auto video = std::make_shared<const media::VideoModel>(inputs.spec.video);
  const core::SessionConfig config =
      inputs.spec.session_for ? inputs.spec.session_for(0) : inputs.spec.session;
  const geo::Viewport viewport = config.viewport;
  const sim::Time end = video->chunk_start_time(video->chunk_count() - 1) +
                        video->chunk_duration();
  ProbeResult result;

  // geo: one visible-set query per head sample of the played content.
  {
    std::vector<geo::Orientation> views;
    for (const hmp::HeadTrace& trace : inputs.traces) {
      for (const hmp::HeadSample& sample : trace.samples()) {
        if (sample.t >= end) break;
        views.push_back(sample.orientation);
      }
    }
    geo::TileGeometry::Scratch scratch;
    std::vector<geo::TileId> out;
    constexpr int kPasses = 3;
    std::size_t checksum = 0;
    const double start = wall_seconds();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const geo::Orientation& view : views) {
        video->geometry().visible_tiles(view, viewport, out, scratch);
        checksum += out.size();
      }
    }
    const double elapsed = wall_seconds() - start;
    if (checksum > 0) {
      result.visible_tiles_ns =
          elapsed * 1e9 / static_cast<double>(kPasses * views.size());
    }
  }

  // hmp: the session's planning-time fusion calls, one per prefetched
  // chunk, with the sensor fed up to each chunk boundary. The inputs are
  // kept for the abr probe.
  struct PlanInput {
    media::ChunkIndex index = 0;
    std::vector<geo::TileId> fov;
    std::vector<double> probs;
    sim::Duration buffer{0};
  };
  std::vector<PlanInput> plan_inputs;
  {
    double fusion_s = 0.0;
    std::size_t calls = 0;
    std::vector<geo::TileId> motion_fov;
    geo::TileGeometry::Scratch scratch;
    for (const hmp::HeadTrace& trace : inputs.traces) {
      hmp::FusionPredictor fusion(video->geometry_ptr(), viewport,
                                  hmp::make_orientation_predictor(config.predictor),
                                  inputs.crowd.get(), config.context, config.fusion);
      std::size_t next_sample = 0;
      const std::vector<hmp::HeadSample>& samples = trace.samples();
      for (media::ChunkIndex chunk = 0; chunk < video->chunk_count(); ++chunk) {
        const sim::Time now = video->chunk_start_time(chunk);
        while (next_sample < samples.size() && samples[next_sample].t <= now) {
          fusion.observe(samples[next_sample++]);
        }
        for (int ahead = 1; ahead <= config.prefetch_horizon_chunks; ++ahead) {
          const media::ChunkIndex index = chunk + ahead;
          if (index >= video->chunk_count()) break;
          PlanInput input;
          input.index = index;
          input.buffer = video->chunk_start_time(index) - now;
          input.probs.resize(static_cast<std::size_t>(video->tile_count()));
          const double start = wall_seconds();
          fusion.tile_probabilities_into(input.buffer, index, input.probs);
          fusion_s += wall_seconds() - start;
          ++calls;
          // The session's super chunk: the most probable tiles, as many as
          // the motion-predicted viewport covers.
          video->geometry().visible_tiles(fusion.predict_orientation(input.buffer),
                                          viewport, motion_fov, scratch);
          input.fov.resize(input.probs.size());
          for (std::size_t t = 0; t < input.fov.size(); ++t) {
            input.fov[t] = static_cast<geo::TileId>(t);
          }
          std::stable_sort(input.fov.begin(), input.fov.end(),
                           [&](geo::TileId a, geo::TileId b) {
                             return input.probs[static_cast<std::size_t>(a)] >
                                    input.probs[static_cast<std::size_t>(b)];
                           });
          input.fov.resize(std::min(input.fov.size(), motion_fov.size()));
          std::sort(input.fov.begin(), input.fov.end());
          plan_inputs.push_back(std::move(input));
        }
      }
    }
    if (calls > 0) result.fusion_ns = fusion_s * 1e9 / static_cast<double>(calls);
  }

  // abr: every policy, over the same planning inputs, at a throughput
  // estimate sweeping around the per-session link share.
  const double share_kbps =
      inputs.workload == Workload::kMpChaos
          ? (16'000.0 + 7'000.0) / kSessionsPerMpWorld
          : inputs.spec.link.bandwidth.kbps_at(sim::kTimeZero) /
                inputs.spec.sessions_per_link;
  for (const std::string& policy_name : mp_policies()) {
    abr::TileAbrConfig abr_config = config.abr;
    abr_config.policy = policy_name;
    const auto policy = abr::make_policy(video, abr_config);
    abr::TileAbrPolicy::PlanWorkspace workspace;
    abr::ChunkPlan plan;
    media::QualityLevel last_quality = 0;
    constexpr int kPasses = 3;
    std::size_t calls = 0;
    const double start = wall_seconds();
    for (int pass = 0; pass < kPasses; ++pass) {
      for (std::size_t i = 0; i < plan_inputs.size(); ++i) {
        const PlanInput& input = plan_inputs[i];
        const double kbps = share_kbps * (0.5 + 0.1 * static_cast<double>(i % 10));
        policy->plan_chunk_into(input.index, input.fov, input.probs, kbps,
                                input.buffer, last_quality, workspace, plan);
        last_quality = plan.fov_quality;
        ++calls;
      }
    }
    const double elapsed = wall_seconds() - start;
    result.plan_ns.emplace_back(
        policy_name, calls > 0 ? elapsed * 1e9 / static_cast<double>(calls) : 0.0);
  }
  return result;
}

}  // namespace perfbench
