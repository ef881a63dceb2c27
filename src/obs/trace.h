// Session event tracing: a typed timeline of what the streaming pipeline
// did and when, stamped with simulator time. Components record through a
// Telemetry handle; a null handle is the no-op fast path (one pointer
// check, no event construction). Exporters (obs/export.h) turn the
// recorded timeline into Chrome trace_event JSON / JSONL / CSV.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace sperke::obs {

enum class TraceEventType : std::uint8_t {
  kSessionStart,
  kPlanComputed,     // VRA planned one temporal chunk
  kFetchDispatched,  // request handed to the transport
  kFetchDone,        // delivered to the client
  kFetchDropped,     // abandoned (best-effort deadline miss)
  kStallBegin,
  kStallEnd,
  kUpgradeDecided,   // §3.1.1 incremental upgrade committed
  kChunkPlayed,      // playhead advanced over one chunk
  kPathAssigned,     // §3.3 multipath scheduler placed a request
  kSegmentCaptured,  // live broadcaster finished capturing a segment
  kSegmentDropped,   // live broadcaster queue overflow
  kSegmentDisplayed, // live viewer displayed a segment
  kFetchAttemptStart,  // transport put one attempt for a request on the wire
  kFetchAttemptEnd,    // that attempt settled (delivered / failed / cancelled)
  kSloBreach,        // SLO evaluator: objective crossed into breach
  kSloClear,         // SLO evaluator: objective recovered
  kSessionEnd,
};

[[nodiscard]] std::string_view trace_event_name(TraceEventType type);
[[nodiscard]] std::string_view trace_event_category(TraceEventType type);

// One timeline record. Unused fields keep their defaults; `value` is the
// event-specific scalar (utility, stall seconds, e2e latency, rank, ...).
struct TraceEvent {
  TraceEventType type = TraceEventType::kSessionStart;
  sim::Time ts{sim::kTimeZero};
  std::int32_t tile = -1;     // geo::TileId, when tile-scoped
  std::int32_t chunk = -1;    // media::ChunkIndex or live segment index
  std::int32_t quality = -1;  // quality level / SVC layer
  std::int32_t path = -1;     // multipath path index
  std::int64_t bytes = 0;
  bool urgent = false;
  double value = 0.0;
  // Causal span identity: per-shard monotonic request id (0 = untraced)
  // and, for degraded retries / blank re-requests, the id of the request
  // this one replaces. Exporters use the pair to nest fetch -> retry
  // spans instead of emitting flat instants.
  std::int64_t request = 0;
  std::int64_t parent = 0;
};

// Append-only event sink.
class TraceRecorder {
 public:
  void record(const TraceEvent& event) { events_.push_back(event); }

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  void clear() { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace sperke::obs
