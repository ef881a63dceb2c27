#include "obs/trace.h"

namespace sperke::obs {

std::string_view trace_event_name(TraceEventType type) {
  switch (type) {
    case TraceEventType::kSessionStart: return "SessionStart";
    case TraceEventType::kPlanComputed: return "PlanComputed";
    case TraceEventType::kFetchDispatched: return "FetchDispatched";
    case TraceEventType::kFetchDone: return "FetchDone";
    case TraceEventType::kFetchDropped: return "FetchDropped";
    case TraceEventType::kStallBegin: return "StallBegin";
    case TraceEventType::kStallEnd: return "StallEnd";
    case TraceEventType::kUpgradeDecided: return "UpgradeDecided";
    case TraceEventType::kChunkPlayed: return "ChunkPlayed";
    case TraceEventType::kPathAssigned: return "PathAssigned";
    case TraceEventType::kSegmentCaptured: return "SegmentCaptured";
    case TraceEventType::kSegmentDropped: return "SegmentDropped";
    case TraceEventType::kSegmentDisplayed: return "SegmentDisplayed";
    case TraceEventType::kFetchAttemptStart: return "FetchAttemptStart";
    case TraceEventType::kFetchAttemptEnd: return "FetchAttemptEnd";
    case TraceEventType::kSloBreach: return "SloBreach";
    case TraceEventType::kSloClear: return "SloClear";
    case TraceEventType::kSessionEnd: return "SessionEnd";
  }
  return "?";
}

std::string_view trace_event_category(TraceEventType type) {
  switch (type) {
    case TraceEventType::kSessionStart:
    case TraceEventType::kSessionEnd: return "session";
    case TraceEventType::kPlanComputed:
    case TraceEventType::kUpgradeDecided: return "plan";
    case TraceEventType::kFetchDispatched:
    case TraceEventType::kFetchDone:
    case TraceEventType::kFetchDropped:
    case TraceEventType::kFetchAttemptStart:
    case TraceEventType::kFetchAttemptEnd: return "fetch";
    case TraceEventType::kStallBegin:
    case TraceEventType::kStallEnd:
    case TraceEventType::kChunkPlayed: return "playback";
    case TraceEventType::kPathAssigned: return "multipath";
    case TraceEventType::kSegmentCaptured:
    case TraceEventType::kSegmentDropped:
    case TraceEventType::kSegmentDisplayed: return "live";
    case TraceEventType::kSloBreach:
    case TraceEventType::kSloClear: return "slo";
  }
  return "?";
}

}  // namespace sperke::obs
