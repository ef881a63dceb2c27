#include "core/tile_fetcher.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/check.h"

namespace sperke::core {
namespace {

void bump(int& count, obs::Counter* metric) {
  ++count;
  if (metric != nullptr) metric->increment();
}

}  // namespace

TileFetcher::TileFetcher(sim::Simulator& simulator, const media::VideoModel& video,
                         ChunkTransport& transport, const PlaybackBuffer& buffer,
                         const abr::TileAbrPolicy& policy, obs::Telemetry* telemetry,
                         std::span<std::uint64_t> in_flight,
                         sim::Duration urgent_slack, bool recovery,
                         SettleHook on_settle)
    : simulator_(simulator),
      video_(video),
      transport_(transport),
      buffer_(buffer),
      policy_(policy),
      telemetry_(telemetry),
      in_flight_(in_flight),
      urgent_slack_(urgent_slack),
      recovery_(recovery),
      on_settle_(std::move(on_settle)) {}

std::uint64_t TileFetcher::bit(const media::ChunkAddress& address) {
  SPERKE_DCHECK(address.level >= 0 && address.level < 32,
                "TileFetcher: quality/layer outside in-flight mask range ",
                address.level);
  const bool avc = address.encoding == media::Encoding::kAvc;
  return std::uint64_t{1} << (avc ? address.level : 32 + address.level);
}

std::size_t TileFetcher::cell(const media::ChunkKey& key) const {
  SPERKE_DCHECK(key.tile >= 0 && key.tile < video_.tile_count() &&
                    key.index >= 0 && key.index < video_.chunk_count(),
                "TileFetcher: in-flight cell out of range");
  return static_cast<std::size_t>(key.index * video_.tile_count() + key.tile);
}

bool TileFetcher::covered(const media::ChunkAddress& address) const {
  return buffer_.contains(address) ||
         (in_flight_[cell(address.key)] & bit(address)) != 0;
}

void TileFetcher::send(const media::ChunkAddress& address,
                       abr::SpatialClass spatial, sim::Time deadline, Kind kind,
                       std::int64_t parent_id) {
  if (covered(address)) return;
  in_flight_[cell(address.key)] |= bit(address);
  const Fetch fetch{.address = address,
                    .spatial = spatial,
                    .urgent = deadline - simulator_.now() < urgent_slack_,
                    .deadline = deadline,
                    .dispatched = simulator_.now(),
                    .bytes = video_.size_bytes(address),
                    .request_id = telemetry_ != nullptr
                                      ? telemetry_->next_request_id()
                                      : 0,
                    .parent_id = parent_id};
  bump(counters_.fetches, metrics_.fetches);
  if (fetch.urgent) bump(counters_.urgent_fetches, metrics_.urgent_fetches);
  if (kind == Kind::kUpgrade) bump(counters_.upgrades, metrics_.upgrades);
  if (kind == Kind::kCorrection) {
    bump(counters_.late_corrections, metrics_.late_corrections);
  }
  trace(obs::TraceEventType::kFetchDispatched, fetch, fetch.dispatched, 0.0);
  transport_.fetch({.id = address,
                    .bytes = fetch.bytes,
                    .spatial = spatial,
                    .urgent = fetch.urgent,
                    .deadline = deadline,
                    .request_id = fetch.request_id,
                    .parent_id = parent_id,
                    .on_done = [this, alive = alive_, fetch](
                                   sim::Time at, FetchOutcome outcome) {
                      if (*alive) settle(fetch, at, outcome);
                    }});
}

void TileFetcher::settle(const Fetch& fetch, sim::Time at, FetchOutcome outcome) {
  in_flight_[cell(fetch.address.key)] &= ~bit(fetch.address);
  const bool ok = delivered(outcome);
  if (ok && metrics_.fetch_latency_ms != nullptr) {
    metrics_.fetch_latency_ms->observe(sim::to_milliseconds(at - fetch.dispatched));
  }
  // Fault outcomes ride the kFetchDropped event with the outcome in
  // `value`; kDropped keeps value 0.0 so fault-free traces stay
  // byte-identical.
  const bool fault =
      outcome == FetchOutcome::kTimedOut || outcome == FetchOutcome::kFailed;
  trace(ok ? obs::TraceEventType::kFetchDone : obs::TraceEventType::kFetchDropped,
        fetch, at, fault ? static_cast<double>(outcome) : 0.0);
  on_settle_(fetch, outcome);
}

void TileFetcher::trace(obs::TraceEventType type, const Fetch& fetch, sim::Time ts,
                        double value) {
  if (telemetry_ == nullptr) return;
  telemetry_->trace().record({.type = type,
                              .ts = ts,
                              .tile = fetch.address.key.tile,
                              .chunk = fetch.address.key.index,
                              .quality = fetch.address.level,
                              .bytes = fetch.bytes,
                              .urgent = fetch.urgent,
                              .value = value,
                              .request = fetch.request_id,
                              .parent = fetch.parent_id});
}

void TileFetcher::upgrade(media::ChunkIndex index, std::span<const double> probs,
                          media::QualityLevel target, sim::Time deadline,
                          double estimated_kbps, const VisibleTiles& visible) {
  const sim::Duration slack = deadline - simulator_.now();
  std::optional<std::span<const geo::TileId>> shown;
  for (geo::TileId tile = 0; tile < video_.tile_count(); ++tile) {
    const media::ChunkKey key{tile, index};
    const media::QualityLevel current = buffer_.displayable_quality(key);
    if (current >= target) continue;
    policy_.consider_upgrade_into(key, current, buffer_.svc_contiguous_quality(key),
                                  target, probs[static_cast<std::size_t>(tile)],
                                  slack, estimated_kbps, decision_);
    // A decision whose every layer is already buffered or in flight would
    // neither send nor be traced: re-scans that find it are not new
    // decisions, and they need no frustum.
    if (!decision_.upgrade ||
        std::all_of(decision_.fetches.begin(), decision_.fetches.end(),
                    [this](const media::ChunkAddress& a) { return covered(a); })) {
      continue;
    }
    if (!shown) shown = visible();
    if (!std::binary_search(shown->begin(), shown->end(), tile)) continue;
    if (telemetry_ != nullptr) {
      telemetry_->trace().record({.type = obs::TraceEventType::kUpgradeDecided,
                                  .ts = simulator_.now(),
                                  .tile = tile,
                                  .chunk = index,
                                  .quality = target,
                                  .value = static_cast<double>(current)});
    }
    for (const auto& address : decision_.fetches) {
      send(address, abr::SpatialClass::kFov, deadline,
           current >= 0 ? Kind::kUpgrade : Kind::kCorrection, 0);
    }
  }
}

void TileFetcher::recover(const Fetch& fetch, media::ChunkIndex playhead) {
  bump(counters_.fetch_failures, metrics_.fetch_failures);
  if (!recovery_ || fetch.spatial != abr::SpatialClass::kFov ||
      fetch.address.key.index < playhead || fetch.deadline <= simulator_.now()) {
    return;
  }
  // Graceful degradation: a base-tier tile on time beats a hole in the FoV.
  const media::ChunkAddress fallback{fetch.address.key,
                                     policy_.base_tier_encoding(), 0};
  if (covered(fallback)) return;
  bump(counters_.degraded_retries, metrics_.degraded_retries);
  send(fallback, abr::SpatialClass::kFov, fetch.deadline, Kind::kPlain,
       fetch.request_id);
}

}  // namespace sperke::core
