// Live 360° broadcast pipeline (§3.4): broadcaster -> ingest server ->
// viewers, with per-entity buffering, the source of the end-to-end latency
// the paper measures with its clock-camera method (Table 2).
//
// The broadcaster uploads fixed-quality segments over RTMP/TCP (no upload
// rate adaptation, as measured); when the uplink cannot keep up, its
// backlog grows until the encoder starts dropping segments. The ingest
// server transcodes into the platform ladder and either serves DASH pulls
// or pushes the stream. The viewer buffers, adapts (DASH only), plays in
// real time, and records the E2E latency of every displayed segment.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "live/platform.h"
#include "live/upload_vra.h"
#include "net/link.h"
#include "obs/telemetry.h"
#include "sim/periodic.h"
#include "sim/simulator.h"
#include "util/stats.h"

namespace sperke::live {

struct Segment {
  int index = 0;
  sim::Time capture_start{sim::kTimeZero};  // when the first frame was captured
  std::int64_t bytes = 0;                   // at broadcast (upload) quality
};

struct LiveSessionResult {
  double mean_e2e_latency_s = 0.0;   // over segments displayed in the window
  double stddev_e2e_latency_s = 0.0;
  int segments_displayed = 0;
  int segments_dropped_at_broadcaster = 0;
  int viewer_rebuffer_events = 0;
  int viewer_catchup_skips = 0;  // "skip to live" jumps by the pull viewer
  double mean_displayed_kbps = 0.0;  // download rung actually watched
  // With an upload policy: what the broadcaster actually sent.
  double mean_uploaded_kbps = 0.0;
  double mean_uploaded_horizon_deg = 360.0;
};

class LiveBroadcastSession {
 public:
  struct Config {
    PlatformProfile platform;
    NetworkConditions network;
    sim::Duration broadcast_length{sim::seconds(150.0)};
    // Latency is averaged over segments whose display starts inside
    // [measure_from, measure_to] — past startup transients, like the
    // paper's repeated clock readings.
    sim::Duration measure_from{sim::seconds(40.0)};
    sim::Duration measure_to{sim::seconds(140.0)};
    // Optional broadcaster-side upload VRA (§3.4.2). The measured platforms
    // have none (null); with one, each segment's bitrate/horizon follows
    // policy->decide(uplink capacity). Not owned; must outlive the session.
    const UploadPolicy* upload_policy = nullptr;
    // Fault schedules (DESIGN.md §10). An uplink disruption collapses the
    // capacity the upload VRA reads, triggering its spatial fallback; a
    // downlink fault fails the in-flight segment transfer, which the
    // server/viewer retries from the same segment index.
    net::FaultPlan uplink_faults;
    net::FaultPlan downlink_faults;
    // Telemetry sink (not owned; must outlive the session). Null = disabled.
    obs::Telemetry* telemetry = nullptr;
  };

  explicit LiveBroadcastSession(Config config);

  // Runs the whole broadcast to completion and reports.
  [[nodiscard]] LiveSessionResult run();

 private:
  void capture_segment();
  void on_segment_ingested(Segment segment);
  void viewer_poll();
  void viewer_maybe_request();
  void server_push();
  void viewer_play_loop();
  // Schedules `fn` after seconds(delay_s) + extra, or drops it when it
  // would land past the end of run(): it could never fire there, and a
  // delay that long (a collapsed uplink's backlog, a huge prebuffer
  // target) could overflow the clock. delay_s and extra are >= 0.
  void schedule_within_run(double delay_s, sim::Duration extra,
                           sim::EventFn fn);
  // Highest ingested segment index, or -1 before the first ingest.
  [[nodiscard]] int latest_available() const {
    return available_.empty() ? -1 : available_.rbegin()->first;
  }

  Config config_;
  sim::Simulator simulator_;
  std::unique_ptr<net::Link> uplink_;
  std::unique_ptr<net::Link> downlink_;

  // Broadcaster state. The RTMP upload is a continuous stream: a segment's
  // bytes drain while it is being captured, so only the *excess* over the
  // uplink capacity accumulates in the encoder queue (fluid model).
  int next_capture_index_ = 0;
  double upload_backlog_kbits_ = 0.0;
  int dropped_ = 0;

  // Ingest state: segments ready for distribution, index-ordered.
  std::map<int, Segment> available_;
  int push_next_ = 0;      // next segment index to push (RTMP push)
  bool pushing_ = false;

  // Viewer state.
  int viewer_known_ = 0;       // segments the viewer has heard of (pull)
  int viewer_next_fetch_ = 0;  // next segment to request
  bool viewer_fetching_ = false;
  std::map<int, std::pair<Segment, double>> viewer_buffer_;  // + rung kbps
  bool viewer_playing_ = false;
  bool viewer_prebuffer_timer_armed_ = false;
  bool viewer_force_start_ = false;  // prebuffer timer expired: play with what we have
  int viewer_play_next_ = 0;
  double downlink_est_kbps_ = 0.0;
  int rebuffers_ = 0;
  int catchup_skips_ = 0;
  bool viewer_waiting_ = false;  // at a boundary with an empty buffer

  // Measurements.
  std::vector<double> latencies_s_;
  RunningStats displayed_kbps_;
  RunningStats uploaded_kbps_;
  RunningStats uploaded_horizon_deg_;

  void record_trace(const obs::TraceEvent& event);

  // Telemetry handles (null without a sink). live.e2e_latency_s mirrors
  // latencies_s_ (measurement window only); the counters mirror the
  // corresponding LiveSessionResult fields.
  obs::Histogram* e2e_latency_s_metric_ = nullptr;
  obs::Counter* displayed_metric_ = nullptr;
  obs::Counter* dropped_metric_ = nullptr;
  obs::Counter* rebuffers_metric_ = nullptr;
  obs::Counter* catchup_skips_metric_ = nullptr;
};

}  // namespace sperke::live
