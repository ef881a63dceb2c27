#include "live/broadcast.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sperke::live {

// Capacity of a direction the network conditions leave unlimited (the
// paper's "No limit" rows), and the RTT of both first-mile links.
constexpr double kUnconstrainedKbps = 50'000.0;
constexpr sim::Duration kLinkRtt = sim::milliseconds(30);
// How long run() keeps simulating after the broadcast ends.
constexpr sim::Duration kDrain = sim::seconds(60.0);
// Half the clock's range. The link bounds a spiked RTT the same way, so an
// ingest's RTT + transcode delay always fits.
constexpr sim::Duration kMaxTranscodeDelay = sim::seconds(4.6e12);

namespace {

// True when a rate's segment byte count, kbps * 125 * segment_s, is
// positive and fits the int64 casts below. NaN and +inf fail.
bool segment_bytes_fit(double kbps, double segment_s) {
  return kbps > 0.0 && kbps * 1000.0 / 8.0 * segment_s < 9.2e18;
}

}  // namespace

LiveBroadcastSession::LiveBroadcastSession(Config config)
    : config_(std::move(config)) {
  // Each check is written so that NaN fails it; 0 kbps in the network
  // conditions still means unconstrained.
  const PlatformProfile& p = config_.platform;
  const auto non_negative = [](double v) { return v >= 0.0 && std::isfinite(v); };
  if (!sim::valid_positive_seconds(p.segment_s)) {
    throw std::invalid_argument("LiveBroadcastSession: bad segment length");
  }
  const auto fits = [&p](double kbps) {
    return segment_bytes_fit(kbps, p.segment_s);
  };
  if (!fits(p.upload_kbps)) {
    throw std::invalid_argument("LiveBroadcastSession: bad upload bitrate");
  }
  if (!non_negative(p.broadcaster_queue_mbits)) {
    throw std::invalid_argument("LiveBroadcastSession: bad broadcaster queue");
  }
  if (p.ladder_kbps.empty()) {
    throw std::invalid_argument("LiveBroadcastSession: empty ladder");
  }
  if (!std::ranges::all_of(p.ladder_kbps, fits)) {
    throw std::invalid_argument("LiveBroadcastSession: bad ladder rung");
  }
  if (p.transcode_delay < sim::Duration{0} ||
      p.transcode_delay > kMaxTranscodeDelay ||
      p.mpd_poll_period <= sim::Duration{0}) {
    throw std::invalid_argument("LiveBroadcastSession: bad server timing");
  }
  if (p.viewer_buffer_segments < 0 || p.push_max_backlog < 0) {
    throw std::invalid_argument("LiveBroadcastSession: bad viewer buffer");
  }
  if (!non_negative(p.viewer_max_behind_s) ||
      !non_negative(p.initial_downlink_estimate_kbps)) {
    throw std::invalid_argument("LiveBroadcastSession: bad viewer player");
  }
  if (!non_negative(config_.network.up_kbps) ||
      !non_negative(config_.network.down_kbps)) {
    throw std::invalid_argument("LiveBroadcastSession: bad network conditions");
  }
  // run() drains 60 s past the broadcast, which must not overflow the clock.
  if (config_.broadcast_length < sim::Duration{0} ||
      config_.broadcast_length > sim::Duration::max() - kDrain) {
    throw std::invalid_argument("LiveBroadcastSession: bad broadcast length");
  }
  // Every timer armed by the end of the run (the next capture or play-loop
  // tick one segment later, the next MPD poll) must fit the clock too.
  const sim::Duration headroom =
      sim::Duration::max() - kDrain - config_.broadcast_length;
  if (sim::seconds(p.segment_s) > headroom || p.mpd_poll_period > headroom) {
    throw std::invalid_argument(
        "LiveBroadcastSession: broadcast length plus a segment or MPD poll "
        "passes the clock");
  }
  if (config_.measure_from < sim::Duration{0} ||
      config_.measure_from > config_.measure_to) {
    throw std::invalid_argument("LiveBroadcastSession: bad measurement window");
  }
  const double up =
      config_.network.up_kbps > 0.0 ? config_.network.up_kbps : kUnconstrainedKbps;
  const double down =
      config_.network.down_kbps > 0.0 ? config_.network.down_kbps : kUnconstrainedKbps;
  // The broadcaster's physical first-mile pipes, not a chunk-fetch path —
  // no CDN tier sits on them. sperke-lint: allow(link-construction)
  uplink_ = std::make_unique<net::Link>(
      simulator_, net::LinkConfig{.name = "uplink",
                                  .bandwidth = net::BandwidthTrace::constant(up),
                                  .rtt = kLinkRtt,
                                  .loss_rate = 0.0,
                                  .faults = config_.uplink_faults});
  // sperke-lint: allow(link-construction)
  downlink_ = std::make_unique<net::Link>(
      simulator_, net::LinkConfig{.name = "downlink",
                                  .bandwidth = net::BandwidthTrace::constant(down),
                                  .rtt = kLinkRtt,
                                  .loss_rate = 0.0,
                                  .faults = config_.downlink_faults});
  downlink_est_kbps_ = config_.platform.initial_downlink_estimate_kbps;
  if (config_.telemetry != nullptr) {
    obs::MetricsRegistry& m = config_.telemetry->metrics();
    e2e_latency_s_metric_ = &m.histogram(
        "live.e2e_latency_s", {2.0, 5.0, 10.0, 15.0, 20.0, 30.0, 45.0, 60.0, 90.0});
    displayed_metric_ = &m.counter("live.segments_displayed");
    dropped_metric_ = &m.counter("live.segments_dropped_at_broadcaster");
    rebuffers_metric_ = &m.counter("live.viewer_rebuffer_events");
    catchup_skips_metric_ = &m.counter("live.viewer_catchup_skips");
  }
}

void LiveBroadcastSession::schedule_within_run(double delay_s,
                                               sim::Duration extra,
                                               sim::EventFn fn) {
  // run() stops at broadcast_length + kDrain, so a later event could never
  // fire; a slack second absorbs the rounding of the double sum. Checked
  // before the cast, which the clock's range bounds.
  const double end_s =
      sim::to_seconds(config_.broadcast_length + kDrain) + 1.0;
  const double at_s =
      sim::to_seconds(simulator_.now()) + delay_s + sim::to_seconds(extra);
  if (!(at_s <= end_s)) return;
  simulator_.schedule_after(sim::seconds(delay_s) + extra, std::move(fn));
}

void LiveBroadcastSession::record_trace(const obs::TraceEvent& event) {
  if (config_.telemetry != nullptr) config_.telemetry->trace().record(event);
}

LiveSessionResult LiveBroadcastSession::run() {
  const sim::Duration seg = sim::seconds(config_.platform.segment_s);
  // First segment completes capture one segment length in.
  sim::PeriodicTask capture(simulator_, seg, seg, [this] { capture_segment(); });
  std::optional<sim::PeriodicTask> poll;
  if (config_.platform.delivery == Delivery::kDashPull) {
    poll.emplace(simulator_, config_.platform.mpd_poll_period,
                 [this] { viewer_poll(); });
  }
  simulator_.run_until(config_.broadcast_length + kDrain);
  capture.stop();
  if (poll) poll->stop();

  LiveSessionResult result;
  result.segments_displayed = static_cast<int>(latencies_s_.size());
  if (!latencies_s_.empty()) {
    result.mean_e2e_latency_s = mean_of(latencies_s_);
    result.stddev_e2e_latency_s = stddev_of(latencies_s_);
  }
  result.segments_dropped_at_broadcaster = dropped_;
  result.viewer_rebuffer_events = rebuffers_;
  result.viewer_catchup_skips = catchup_skips_;
  result.mean_uploaded_kbps = uploaded_kbps_.mean();
  result.mean_uploaded_horizon_deg =
      uploaded_horizon_deg_.count() > 0 ? uploaded_horizon_deg_.mean() : 360.0;
  result.mean_displayed_kbps = displayed_kbps_.mean();
  return result;
}

void LiveBroadcastSession::capture_segment() {
  if (simulator_.now() > config_.broadcast_length) return;
  const double seg_s = config_.platform.segment_s;
  // Broadcaster-side upload VRA (§3.4.2), when configured; the status-quo
  // platforms upload at a fixed bitrate and full 360°.
  double upload_kbps = config_.platform.upload_kbps;
  double horizon_deg = 360.0;
  if (config_.upload_policy != nullptr) {
    const UploadDecision decision =
        config_.upload_policy->decide(uplink_->capacity_kbps_now());
    if (!segment_bytes_fit(decision.upload_kbps, seg_s) ||
        !(decision.horizon_deg > 0.0 && decision.horizon_deg <= 360.0)) {
      throw std::invalid_argument("LiveBroadcastSession: bad upload decision");
    }
    upload_kbps = decision.upload_kbps;
    horizon_deg = decision.horizon_deg;
  }
  uploaded_kbps_.add(upload_kbps);
  uploaded_horizon_deg_.add(horizon_deg);

  Segment segment;
  segment.index = next_capture_index_++;
  segment.capture_start = simulator_.now() - sim::seconds(seg_s);
  segment.bytes = static_cast<std::int64_t>(upload_kbps * 1000.0 / 8.0 * seg_s);

  // Continuous RTMP upload (fluid model): while this segment was being
  // captured, the uplink drained up to capacity x segment_s of the stream;
  // only the excess joins the encoder's queue.
  const double cap_kbps = uplink_->capacity_kbps_now();
  const double seg_kbits = upload_kbps * seg_s;
  upload_backlog_kbits_ =
      std::max(0.0, upload_backlog_kbits_ - cap_kbps * seg_s);
  // No upload rate adaptation (§3.4.1): while the queue still holds more
  // than its bound of *older* data, the encoder drops the new segment.
  if (upload_backlog_kbits_ >
      config_.platform.broadcaster_queue_mbits * 1000.0) {
    ++dropped_;
    if (config_.telemetry != nullptr) {
      dropped_metric_->increment();
      record_trace({.type = obs::TraceEventType::kSegmentDropped,
                    .ts = simulator_.now(),
                    .chunk = segment.index,
                    .bytes = segment.bytes});
    }
    return;
  }
  upload_backlog_kbits_ += seg_kbits;
  record_trace({.type = obs::TraceEventType::kSegmentCaptured,
                .ts = simulator_.now(),
                .chunk = segment.index,
                .bytes = segment.bytes,
                .value = upload_kbps});
  const double upload_delay_s =
      cap_kbps > 0.0 ? upload_backlog_kbits_ / cap_kbps : 1e9;
  schedule_within_run(upload_delay_s,
                      uplink_->rtt() + config_.platform.transcode_delay,
                      [this, segment] { on_segment_ingested(segment); });
}

void LiveBroadcastSession::on_segment_ingested(Segment segment) {
  available_.emplace(segment.index, segment);
  if (config_.platform.delivery == Delivery::kRtmpPush) server_push();
}

void LiveBroadcastSession::server_push() {
  if (pushing_) return;
  // RTMP fan-out to a slow viewer: when too many segments queue up behind
  // the viewer's socket, the server drops the oldest (frame dropping).
  const int latest = latest_available();
  if (latest >= 0 && latest - push_next_ > config_.platform.push_max_backlog) {
    push_next_ = latest - config_.platform.push_max_backlog;
  }
  const auto it = available_.find(push_next_);
  if (it == available_.end()) {
    // The broadcaster may have dropped this index entirely; skip over gaps
    // that can no longer arrive.
    if (latest >= push_next_) {
      push_next_ = available_.lower_bound(push_next_)->first;
      server_push();
    }
    return;
  }
  pushing_ = true;
  const Segment segment = it->second;
  const double rung = config_.platform.ladder_kbps.back();
  const auto bytes = static_cast<std::int64_t>(rung * 1000.0 / 8.0 *
                                               config_.platform.segment_s);
  ++push_next_;
  const net::FetchSpec spec{.id = {}, .bytes = bytes};
  downlink_->fetch(spec, [this, segment, rung](const net::TransferResult& r) {
    pushing_ = false;
    if (!r.completed()) {
      // Push failed mid-flight: retry from this segment (the backlog cap in
      // the next round decides whether it is still worth pushing).
      push_next_ = std::min(push_next_, segment.index);
      server_push();
      return;
    }
    viewer_buffer_.emplace(segment.index, std::make_pair(segment, rung));
    viewer_play_loop();
    server_push();
  });
}

void LiveBroadcastSession::viewer_poll() {
  // MPD refresh: learn about newly available segments.
  const int max_index = latest_available();
  if (max_index >= viewer_known_) {
    viewer_known_ = max_index + 1;
    viewer_maybe_request();
  }
}

void LiveBroadcastSession::viewer_maybe_request() {
  if (viewer_fetching_ || config_.platform.delivery != Delivery::kDashPull) return;
  // "Skip to live": a pull viewer that has fallen too far behind the live
  // edge jumps forward instead of fetching stale segments.
  if (config_.platform.viewer_max_behind_s > 0.0) {
    const int latest = latest_available();
    const double behind_s =
        (latest - viewer_next_fetch_) * config_.platform.segment_s;
    if (latest >= 0 && behind_s > config_.platform.viewer_max_behind_s) {
      viewer_next_fetch_ =
          std::max(viewer_next_fetch_,
                   latest - config_.platform.viewer_buffer_segments);
      ++catchup_skips_;
      if (config_.telemetry != nullptr) catchup_skips_metric_->increment();
    }
  }
  // Sequential fetch of the next needed segment, if announced & available.
  while (viewer_next_fetch_ < viewer_known_ &&
         !available_.contains(viewer_next_fetch_)) {
    // Dropped at the broadcaster: skip the gap.
    if (available_.upper_bound(viewer_next_fetch_) == available_.end()) return;
    ++viewer_next_fetch_;
  }
  const auto it = available_.find(viewer_next_fetch_);
  if (it == available_.end()) return;
  const Segment segment = it->second;

  // DASH rate adaptation on the download path (§3.4.1): highest rung that
  // fits a safety-discounted estimate.
  double rung = config_.platform.ladder_kbps.front();
  for (double level : config_.platform.ladder_kbps) {
    if (level <= 0.8 * downlink_est_kbps_) rung = std::max(rung, level);
  }
  const auto bytes = static_cast<std::int64_t>(rung * 1000.0 / 8.0 *
                                               config_.platform.segment_s);
  viewer_fetching_ = true;
  ++viewer_next_fetch_;
  const sim::Time started = simulator_.now();
  const net::FetchSpec spec{.id = {}, .bytes = bytes};
  downlink_->fetch(spec, [this, segment, rung, bytes,
                          started](const net::TransferResult& r) {
    viewer_fetching_ = false;
    if (!r.completed()) {
      // Fetch failed: re-request from this segment (skip-to-live in the
      // next round decides whether it is still worth fetching).
      viewer_next_fetch_ = std::min(viewer_next_fetch_, segment.index);
      viewer_maybe_request();
      return;
    }
    const double secs = sim::to_seconds(r.time - started);
    if (secs > 0.0) {
      const double sample = static_cast<double>(bytes) * 8.0 / secs / 1000.0;
      downlink_est_kbps_ = 0.4 * sample + 0.6 * downlink_est_kbps_;
    }
    viewer_buffer_.emplace(segment.index, std::make_pair(segment, rung));
    viewer_play_loop();
    viewer_maybe_request();
  });
}

void LiveBroadcastSession::viewer_play_loop() {
  if (viewer_playing_) return;
  // (Re-)buffering: wait until the buffer holds its target, or — when
  // arrivals are too slow to ever fill it — until a wall-clock timer at
  // twice the target expires and playback proceeds with what is there.
  if (static_cast<int>(viewer_buffer_.size()) <
          config_.platform.viewer_buffer_segments &&
      !viewer_force_start_) {
    if (!viewer_prebuffer_timer_armed_ && !viewer_buffer_.empty()) {
      viewer_prebuffer_timer_armed_ = true;
      schedule_within_run(2.0 * config_.platform.viewer_buffer_segments *
                              config_.platform.segment_s,
                          sim::Duration{0}, [this] {
                            viewer_force_start_ = true;
                            viewer_play_loop();
                          });
    }
    return;
  }
  // Skip over segments that will never arrive (dropped upstream).
  if (!viewer_buffer_.empty() &&
      viewer_buffer_.begin()->first > viewer_play_next_) {
    viewer_play_next_ = viewer_buffer_.begin()->first;
  }
  const auto it = viewer_buffer_.find(viewer_play_next_);
  if (it == viewer_buffer_.end()) {
    // Starved at a boundary: count a rebuffer event and re-enter
    // buffering (players re-accumulate their target before resuming).
    if (!viewer_waiting_ && !latencies_s_.empty()) {
      ++rebuffers_;
      if (config_.telemetry != nullptr) rebuffers_metric_->increment();
    }
    viewer_waiting_ = true;
    viewer_force_start_ = false;
    viewer_prebuffer_timer_armed_ = false;
    return;
  }
  viewer_waiting_ = false;
  viewer_playing_ = true;
  const Segment segment = it->second.first;
  const double rung = it->second.second;
  viewer_buffer_.erase(it);
  ++viewer_play_next_;

  // Display starts now; record the E2E latency of the first frame.
  const double latency = sim::to_seconds(simulator_.now() - segment.capture_start);
  if (simulator_.now() >= config_.measure_from &&
      simulator_.now() <= config_.measure_to) {
    latencies_s_.push_back(latency);
    displayed_kbps_.add(rung);
    if (config_.telemetry != nullptr) {
      e2e_latency_s_metric_->observe(latency);
      // Mirrors LiveSessionResult.segments_displayed (window only).
      displayed_metric_->increment();
    }
  }
  if (config_.telemetry != nullptr) {
    record_trace({.type = obs::TraceEventType::kSegmentDisplayed,
                  .ts = simulator_.now(),
                  .chunk = segment.index,
                  .quality = static_cast<std::int32_t>(rung),
                  .value = latency});
  }
  simulator_.schedule_after(sim::seconds(config_.platform.segment_s), [this] {
    viewer_playing_ = false;
    viewer_play_loop();
  });
}

}  // namespace sperke::live
