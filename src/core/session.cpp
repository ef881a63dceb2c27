#include "core/session.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

#include "geo/orientation.h"

namespace sperke::core {
namespace {

// Below this deadline slack a fetch is dispatched as "urgent" (Table 1).
constexpr sim::Duration kUrgentSlack = sim::seconds(1.0);
constexpr double kHeadSampleHz = 25.0;
// Playback starts once this many chunks of the startup view are displayable.
constexpr int kStartupChunks = 1;
constexpr sim::Duration kUpgradeScanPeriod = sim::milliseconds(250);

void bump(int& count, obs::Counter* metric) {
  ++count;
  if (metric != nullptr) metric->increment();
}

}  // namespace

void validate(const SessionConfig& config) {
  // Every check is written so that NaN fails it.
  if (config.prefetch_horizon_chunks < 1) {
    throw std::invalid_argument("Session: prefetch horizon < 1");
  }
  // The view frustum takes tan(extent / 2): at 180 degrees or more it mirrors.
  if (!(config.viewport.width_deg > 0.0 && config.viewport.width_deg < 180.0)) {
    throw std::invalid_argument("Session: viewport width must be in (0, 180) degrees");
  }
  if (!(config.viewport.height_deg > 0.0 && config.viewport.height_deg < 180.0)) {
    throw std::invalid_argument("Session: viewport height must be in (0, 180) degrees");
  }
  const hmp::ViewingContext& context = config.context;
  if (!(context.engagement >= 0.0 && context.engagement <= 1.0)) {
    throw std::invalid_argument("Session: engagement must be in [0, 1]");
  }
  if (context.max_speed_dps.has_value() &&
      !(*context.max_speed_dps > 0.0 && std::isfinite(*context.max_speed_dps))) {
    throw std::invalid_argument("Session: max_speed_dps must be finite and > 0");
  }
  if (!std::isfinite(context.home_yaw_deg)) {
    throw std::invalid_argument("Session: home_yaw_deg must be finite");
  }
  if (config.data_budget_bytes < 0) {
    throw std::invalid_argument("Session: data_budget_bytes < 0");
  }
}

Viewer::Viewer(sim::Simulator& simulator,
               std::shared_ptr<const media::VideoModel> video,
               ChunkTransport& transport, const hmp::HeadTrace& head_trace,
               SessionConfig config, const hmp::ViewingHeatmap* crowd,
               SessionBatch* batch, sim::Duration urgent_slack)
    : simulator_(simulator),
      // Checked before the initializers below first read it.
      video_(video != nullptr ? std::move(video)
                              : throw std::invalid_argument("Session: null video")),
      transport_(transport),
      head_trace_(head_trace),
      config_(std::move(config)),
      fusion_(video_->geometry_ptr(), config_.viewport,
              hmp::make_orientation_predictor(config_.predictor), crowd,
              config_.context, config_.fusion),
      own_batch_(batch == nullptr ? std::make_unique<SessionBatch>(video_, 1)
                                  : nullptr),
      batch_(batch == nullptr ? own_batch_.get() : batch),
      slot_(batch_->acquire()),
      buffer_(video_, batch_->cells(slot_)),
      policy_(abr::make_policy(video_, config_.abr)),
      urgent_slack_(urgent_slack) {
  validate(config_);
  // The crowd prior is read for every chunk the planner reaches.
  if (crowd != nullptr && crowd->chunk_count() < video_->chunk_count()) {
    throw std::invalid_argument("Session: crowd heatmap shorter than the video");
  }
  planned_ = batch_->planned_quality(slot_);
  probs_ = batch_->probs(slot_);
}

void Viewer::fuse(media::ChunkIndex index, sim::Duration horizon) {
  fusion_.tile_probabilities_into(horizon, index, probs_);
}

void Viewer::start_tasks() {
  if (started_) throw std::logic_error("Session already started");
  started_ = true;
  observe_head();  // prime the predictor with the initial pose
  head_task_.emplace(simulator_, sim::seconds(1.0 / kHeadSampleHz),
                     [this] { observe_head(); });
  if (policy_->upgrade_window() > sim::Duration{0}) {
    upgrade_task_.emplace(simulator_, kUpgradeScanPeriod,
                          [this] { scan_upgrades(); });
  }
}

void Viewer::stop() {
  finished_ = true;
  if (head_task_) head_task_->stop();
  if (upgrade_task_) upgrade_task_->stop();
}

const std::vector<geo::TileId>& Viewer::visible_at(media::ChunkIndex index) {
  if (visible_chunk_ != index) {
    visible_chunk_ = index;
    video_->geometry().visible_tiles(
        head_trace_.orientation_at(video_->chunk_start_time(index)),
        config_.viewport, visible_, geo_scratch_);
  }
  return visible_;
}

const Viewer::PredictedView& Viewer::predicted_view(media::ChunkIndex index) {
  predicted_.orientation =
      fusion_.predict_orientation(video_->chunk_start_time(index) - content_now());
  video_->geometry().visible_tiles(predicted_.orientation, config_.viewport,
                                   predicted_.visible, geo_scratch_);
  return predicted_;
}

const abr::ChunkPlan& Viewer::plan(media::ChunkIndex index,
                                   sim::Duration buffer_level, double kbps) {
  // Size the super chunk from the motion-predicted viewport, but pick the
  // *tiles* from the fused probability map: at short horizons the map is
  // motion-dominated (same tiles), at long horizons the crowd prior takes
  // over, which is what makes deep prefetch viable (§3.2).
  const PredictedView& view = predicted_view(index);
  plan_orientation_ = view.orientation;
  const std::size_t fov_size = view.visible.size();
  fuse(index, video_->chunk_start_time(index) - content_now());
  abr::super_chunk_tiles(probs_, fov_size, fov_scratch_);
  policy_->plan_chunk_into(index, fov_scratch_, probs_, kbps, buffer_level,
                           last_fov_quality_, vra_workspace_, plan_scratch_);
  planned_[static_cast<std::size_t>(index)] = plan_scratch_.fov_quality;
  last_fov_quality_ = plan_scratch_.fov_quality;
  next_plan_ = index + 1;
  return plan_scratch_;
}

void Viewer::observe_head() {
  if (finished_) return;
  const sim::Time t = content_now();
  if (t <= last_observed_) return;  // content time frozen during stall
  last_observed_ = t;
  fusion_.observe({t, head_trace_.orientation_at(t)});
}

void Viewer::scan_upgrades() {
  if (finished_) return;
  const double est = transport_.estimated_kbps();
  for (media::ChunkIndex index = first_unplayed(); index < next_plan_; ++index) {
    const sim::Time deadline = deadline_of(index);
    // Outside the upgrade window the policy rejects every tile on slack
    // alone, so the chunk's probabilities are not even fused.
    const sim::Duration slack = deadline - simulator_.now();
    if (slack <= sim::Duration{0} || slack > policy_->upgrade_window()) continue;
    // Fusion is pure and cheap next to the frustum, which upgrade() asks
    // for only once some tile would send an upgrade. The visible span stays
    // valid for the pass: only plan() predicts again, and a send never
    // delivers synchronously, so no plan runs inside it.
    fuse(index, video_->chunk_start_time(index) - content_now());
    upgrade(index, probs_, planned_[static_cast<std::size_t>(index)], deadline,
            est, [this, index] {
              return std::span<const geo::TileId>(predicted_view(index).visible);
            });
  }
}

bool Viewer::dispatch(const media::ChunkAddress& address, abr::SpatialClass spatial,
                      sim::Time deadline, std::int64_t parent_id) {
  if (buffer_.covered(address)) return false;
  buffer_.set_in_flight(address, true);
  const Fetch fetch{.address = address,
                    .spatial = spatial,
                    .urgent = deadline - simulator_.now() < urgent_slack_,
                    .deadline = deadline,
                    .dispatched = simulator_.now(),
                    .bytes = video_->size_bytes(address),
                    .request_id = config_.telemetry != nullptr
                                      ? config_.telemetry->next_request_id()
                                      : 0,
                    .parent_id = parent_id};
  bump(fetch_counters_.fetches, fetch_metrics_.fetches);
  if (fetch.urgent) {
    bump(fetch_counters_.urgent_fetches, fetch_metrics_.urgent_fetches);
  }
  trace(obs::TraceEventType::kFetchDispatched, fetch, fetch.dispatched, 0.0);
  // The Fetch record rides inline in the request's callback.
  auto on_done = [this, alive = alive_, fetch](sim::Time at, FetchOutcome outcome) {
    if (*alive) settle(fetch, at, outcome);
  };
  static_assert(decltype(ChunkRequest::on_done)::fits_inline<decltype(on_done)>);
  transport_.fetch({.id = address,
                    .bytes = fetch.bytes,
                    .spatial = spatial,
                    .urgent = fetch.urgent,
                    .deadline = deadline,
                    .request_id = fetch.request_id,
                    .parent_id = parent_id,
                    .on_done = std::move(on_done)});
  return true;
}

void Viewer::settle(const Fetch& fetch, sim::Time at, FetchOutcome outcome) {
  buffer_.set_in_flight(fetch.address, false);
  const bool ok = delivered(outcome);
  if (ok && fetch_metrics_.fetch_latency_ms != nullptr) {
    fetch_metrics_.fetch_latency_ms->observe(
        sim::to_milliseconds(at - fetch.dispatched));
  }
  // Fault outcomes ride the kFetchDropped event with the outcome in
  // `value`; kDropped keeps value 0.0 so fault-free traces stay
  // byte-identical.
  const bool fault =
      outcome == FetchOutcome::kTimedOut || outcome == FetchOutcome::kFailed;
  trace(ok ? obs::TraceEventType::kFetchDone : obs::TraceEventType::kFetchDropped,
        fetch, at, fault ? static_cast<double>(outcome) : 0.0);
  on_settle(fetch, outcome);
}

void Viewer::record_trace(const obs::TraceEvent& event) {
  if (config_.telemetry != nullptr) config_.telemetry->trace().record(event);
}

void Viewer::trace(obs::TraceEventType type, const Fetch& fetch, sim::Time ts,
                   double value) {
  record_trace({.type = type,
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

void Viewer::upgrade(media::ChunkIndex index, std::span<const double> probs,
                     media::QualityLevel target, sim::Time deadline,
                     double estimated_kbps, const VisibleTiles& visible) {
  const sim::Duration slack = deadline - simulator_.now();
  std::optional<std::span<const geo::TileId>> shown;
  for (geo::TileId tile = 0; tile < video_->tile_count(); ++tile) {
    const media::ChunkKey key{tile, index};
    const media::QualityLevel current = buffer_.displayable_quality(key);
    if (current >= target) continue;
    policy_->consider_upgrade_into(key, current, buffer_.svc_contiguous_quality(key),
                                   target, probs[static_cast<std::size_t>(tile)],
                                   slack, estimated_kbps, decision_);
    // A decision whose every layer is already buffered or in flight would
    // neither send nor be traced: re-scans that find it are not new
    // decisions, and they need no frustum.
    if (!decision_.upgrade ||
        std::ranges::all_of(decision_.fetches, [this](const media::ChunkAddress& a) {
          return buffer_.covered(a);
        })) {
      continue;
    }
    if (!shown) shown = visible();
    if (!std::binary_search(shown->begin(), shown->end(), tile)) continue;
    record_trace({.type = obs::TraceEventType::kUpgradeDecided,
                  .ts = simulator_.now(),
                  .tile = tile,
                  .chunk = index,
                  .quality = target,
                  .value = static_cast<double>(current)});
    for (const auto& address : decision_.fetches) {
      if (!dispatch(address, abr::SpatialClass::kFov, deadline)) continue;
      if (current >= 0) {
        bump(fetch_counters_.upgrades, fetch_metrics_.upgrades);
      } else {
        bump(fetch_counters_.late_corrections, fetch_metrics_.late_corrections);
      }
    }
  }
}

void Viewer::recover(const Fetch& fetch, media::ChunkIndex playhead) {
  bump(fetch_counters_.fetch_failures, fetch_metrics_.fetch_failures);
  if (!config_.fetch_recovery || fetch.spatial != abr::SpatialClass::kFov ||
      fetch.address.key.index < playhead || fetch.deadline <= simulator_.now()) {
    return;
  }
  // Graceful degradation: a base-tier tile on time beats a hole in the FoV.
  const media::ChunkAddress fallback{fetch.address.key,
                                     policy_->base_tier_encoding(), 0};
  if (buffer_.covered(fallback)) return;
  bump(fetch_counters_.degraded_retries, fetch_metrics_.degraded_retries);
  dispatch(fallback, abr::SpatialClass::kFov, fetch.deadline, fetch.request_id);
}

StreamingSession::StreamingSession(sim::Simulator& simulator,
                                   std::shared_ptr<const media::VideoModel> video,
                                   ChunkTransport& transport,
                                   const hmp::HeadTrace& head_trace,
                                   SessionConfig config,
                                   const hmp::ViewingHeatmap* crowd,
                                   SessionBatch* batch)
    : Viewer(simulator, std::move(video), transport, head_trace,
             std::move(config), crowd, batch, kUrgentSlack) {
  if (config_.telemetry != nullptr) {
    obs::MetricsRegistry& m = config_.telemetry->metrics();
    fetch_metrics_.fetches = &m.counter("session.fetches");
    fetch_metrics_.urgent_fetches = &m.counter("session.urgent_fetches");
    fetch_metrics_.upgrades = &m.counter("session.upgrades");
    fetch_metrics_.late_corrections = &m.counter("session.late_corrections");
    metrics_.chunks_played = &m.counter("session.chunks_played");
    metrics_.stall_events = &m.counter("session.stall_events");
    metrics_.stalled = &m.gauge("session.stalled");
    fetch_metrics_.fetch_latency_ms = &m.histogram("session.fetch_latency_ms");
    metrics_.stall_s = &m.histogram(
        "session.stall_s", {0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0});
    metrics_.viewport_utility = &m.histogram(
        "session.viewport_utility",
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0});
    metrics_.hmp_error_deg = &m.histogram(
        "session.hmp_error_deg", {5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 90.0, 180.0});
    metrics_.bytes_downloaded = &m.counter("session.bytes_downloaded");
    metrics_.bytes_wasted = &m.counter("session.bytes_wasted");
    // The counter name embeds the factory policy name (all [a-z0-9_]+,
    // enforced by abr::make_policy's closed name set), so mixed-population
    // worlds merge into one row per policy.
    metrics_.abr_plans =
        &m.counter("abr." + std::string(policy_->name()) + ".plans");
    predicted_at_plan_.resize(static_cast<std::size_t>(video_->chunk_count()));
    // Bound iff fetch_recovery is on, so fault-free worlds keep their
    // exact pre-fault metric set.
    if (config_.fetch_recovery) {
      fetch_metrics_.fetch_failures = &m.counter("session.fetch_failures");
      fetch_metrics_.degraded_retries = &m.counter("session.degraded_retries");
    }
  }
}

sim::Time StreamingSession::content_now() const {
  const sim::Time base = video_->chunk_start_time(current_chunk_);
  if (!playing_ || stalled_) return base;
  return base + (simulator_.now() - chunk_play_started_);
}

sim::Time StreamingSession::deadline_of(media::ChunkIndex index) const {
  const auto ahead = video_->chunk_duration() * (index - current_chunk_);
  if (playing_ && !stalled_) return chunk_play_started_ + ahead;
  return simulator_.now() + ahead;  // startup/stall: assume immediate resume
}

void StreamingSession::start() {
  start_tasks();
  session_started_ = simulator_.now();
  record_trace({.type = obs::TraceEventType::kSessionStart,
                .ts = simulator_.now()});
  maybe_plan();
}

void StreamingSession::maybe_plan() {
  if (finished_) return;
  while (next_plan_ < video_->chunk_count() &&
         next_plan_ < current_chunk_ + config_.prefetch_horizon_chunks) {
    const media::ChunkIndex index = next_plan_;
    const sim::Time deadline = deadline_of(index);
    // Data budget: treat the remaining allowance, spread over the remaining
    // chunks, as a second throughput ceiling for the regular VRA.
    double effective_kbps = transport_.estimated_kbps();
    if (config_.data_budget_bytes > 0) {
      const std::int64_t spent = qoe_.summary().bytes_downloaded;
      const std::int64_t remaining_bytes =
          std::max<std::int64_t>(0, config_.data_budget_bytes - spent);
      const int remaining_chunks = video_->chunk_count() - index;
      const double budget_kbps =
          static_cast<double>(remaining_bytes) * 8.0 /
          std::max(1.0, remaining_chunks *
                            sim::to_seconds(video_->chunk_duration())) /
          1000.0;
      effective_kbps = effective_kbps > 0.0
                           ? std::min(effective_kbps, budget_kbps)
                           : budget_kbps;
    }
    // The buffer level is the horizon to the chunk's content time.
    const abr::ChunkPlan& plan =
        Viewer::plan(index, video_->chunk_start_time(index) - content_now(),
                     effective_kbps);
    if (config_.telemetry != nullptr) {
      predicted_at_plan_[static_cast<std::size_t>(index)] = plan_orientation_;
      metrics_.abr_plans->increment();
      record_trace({.type = obs::TraceEventType::kPlanComputed,
                    .ts = simulator_.now(),
                    .chunk = index,
                    .quality = plan.fov_quality,
                    .bytes = plan.total_bytes(*video_),
                    .value = static_cast<double>(plan.fetches.size())});
    }

    for (const auto& fetch : plan.fetches) {
      dispatch(fetch.address, fetch.spatial, deadline);
    }
  }
  attempt_start();
}

void StreamingSession::on_settle(const Fetch& fetch, FetchOutcome outcome) {
  if (delivered(outcome)) {
    qoe_.record_downloaded(fetch.bytes);
    if (metrics_.bytes_downloaded != nullptr) {
      metrics_.bytes_downloaded->add(fetch.bytes);
    }
    const media::ChunkIndex index = fetch.address.key.index;
    if (finished_ || index < current_chunk_ ||
        (index == current_chunk_ && playing_ && !stalled_)) {
      // Arrived after its chunk started playing: pure waste.
      qoe_.record_wasted(fetch.bytes);
      if (metrics_.bytes_wasted != nullptr) {
        metrics_.bytes_wasted->add(fetch.bytes);
      }
    } else {
      buffer_.add(fetch.address);
    }
    if (stalled_) try_resume_from_stall();
    attempt_start();
    maybe_plan();
    return;
  }
  if (outcome == FetchOutcome::kDropped) {
    // A best-effort loss is no failure, but the dropped fetch may be the
    // in-flight copy of a tile a stall waits for (which suppressed its
    // emergency fetch), so coverage must be re-checked all the same.
    if (stalled_) try_resume_from_stall();
    return;
  }
  // Injected-fault loss (timed out / failed after retries).
  recover(fetch, current_chunk_);
  // A failed startup fetch must not hang startup either: its deadline is
  // the dispatch instant, so the degraded retry never covers it.
  if (!playing_) request_missing_startup_tiles();
  // A failed emergency fetch must not leave a stall unresolved: re-enter
  // the coverage check, which re-issues the missing tiles.
  if (stalled_) try_resume_from_stall();
}

void StreamingSession::attempt_start() {
  if (playing_ || finished_ || !started_) return;
  // Startup condition: the tiles visible at media time 0 are displayable
  // for the first kStartupChunks chunks.
  const int want = std::min<int>(kStartupChunks, video_->chunk_count());
  if (buffer_.contiguous_chunks(0, visible_at(current_chunk_)) < want) return;
  playing_ = true;
  startup_done_ = simulator_.now();
  chunk_play_started_ = simulator_.now();
  play_chunk();
}

void StreamingSession::request_missing_startup_tiles() {
  // Before playback the playhead is chunk 0, so this is the startup set. A
  // dispatch may settle another request synchronously, but only as a drop
  // or a timeout, never a delivery, so no callback can start playback and
  // move the playhead: the set stays put while it is iterated.
  const std::vector<geo::TileId>& visible = visible_at(current_chunk_);
  const int want = std::min<int>(kStartupChunks, video_->chunk_count());
  for (media::ChunkIndex index = 0; index < want; ++index) {
    for (geo::TileId tile : visible) {
      const media::ChunkKey key{tile, index};
      if (buffer_.has_displayable(key) || buffer_.in_flight(key)) continue;
      dispatch({key, policy_->base_tier_encoding(), 0}, abr::SpatialClass::kFov,
               deadline_of(index));
    }
  }
}

void StreamingSession::play_chunk() {
  if (finished_) return;
  const media::ChunkIndex index = current_chunk_;
  const sim::Time media = video_->chunk_start_time(index);
  const std::vector<geo::TileId>& visible = visible_at(current_chunk_);

  // Coverage check: every visible tile must be displayable.
  std::vector<geo::TileId>& missing = missing_scratch_;
  missing.clear();
  for (geo::TileId tile : visible) {
    if (!buffer_.has_displayable({tile, index})) missing.push_back(tile);
  }
  if (!missing.empty()) {
    if (!stalled_) {
      stalled_ = true;
      stall_started_ = simulator_.now();
      if (config_.telemetry != nullptr) metrics_.stalled->add(1.0);
      record_trace({.type = obs::TraceEventType::kStallBegin,
                    .ts = stall_started_,
                    .chunk = index,
                    .value = static_cast<double>(missing.size())});
    }
    // Emergency fetch of the missing tiles at the base quality (Table 1's
    // "urgent chunks": very short deadline after an HMP correction).
    for (geo::TileId tile : missing) {
      const media::ChunkKey key{tile, index};
      const media::ChunkAddress address{key, policy_->base_tier_encoding(), 0};
      dispatch(address, abr::SpatialClass::kFov, simulator_.now());
    }
    return;  // resume via try_resume_from_stall()
  }

  if (stalled_) {
    stalled_ = false;
    const sim::Duration stall = simulator_.now() - stall_started_;
    qoe_.record_stall(stall);
    if (config_.telemetry != nullptr) {
      metrics_.stalled->add(-1.0);
      metrics_.stall_events->increment();
      metrics_.stall_s->observe(sim::to_seconds(stall));
      record_trace({.type = obs::TraceEventType::kStallEnd,
                    .ts = simulator_.now(),
                    .chunk = index,
                    .value = sim::to_seconds(stall)});
    }
    chunk_play_started_ = simulator_.now();
  }

  // Record the displayed viewport quality and byte usage.
  double utility_sum = 0.0;
  for (geo::TileId tile : visible) {
    const media::ChunkKey key{tile, index};
    const media::QualityLevel shown = buffer_.displayable_quality(key);
    utility_sum += video_->ladder().utility(std::max(shown, 0));
  }
  const double viewport_utility =
      visible.empty() ? 0.0 : utility_sum / static_cast<double>(visible.size());
  qoe_.record_played_chunk(viewport_utility, 0.0);
  utility_per_chunk_.push_back(viewport_utility);
  if (config_.telemetry != nullptr) {
    metrics_.chunks_played->increment();
    metrics_.viewport_utility->observe(viewport_utility);
    std::optional<geo::Orientation>& predicted =
        predicted_at_plan_[static_cast<std::size_t>(index)];
    if (predicted) {
      metrics_.hmp_error_deg->observe(geo::angular_distance_deg(
          *predicted, head_trace_.orientation_at(media)));
      predicted.reset();
    }
    record_trace({.type = obs::TraceEventType::kChunkPlayed,
                  .ts = simulator_.now(),
                  .chunk = index,
                  .quality = buffer_.displayable_quality(
                      {visible.empty() ? 0 : visible.front(), index}),
                  .value = viewport_utility});
  }

  const std::int64_t unused = buffer_.unused_bytes(index, visible);
  qoe_.record_wasted(unused);
  if (metrics_.bytes_wasted != nullptr) metrics_.bytes_wasted->add(unused);
  buffer_.evict_before(index + 1);

  // Advance the playhead.
  if (index + 1 >= video_->chunk_count()) {
    simulator_.schedule_after(video_->chunk_duration(),
                              [this, alive = alive_] {
                                if (*alive) finish();
                              });
    return;
  }
  current_chunk_ = index + 1;
  chunk_play_started_ += video_->chunk_duration();
  maybe_plan();
  simulator_.schedule_at(chunk_play_started_, [this, alive = alive_] {
    if (*alive) play_chunk();
  });
}

void StreamingSession::try_resume_from_stall() {
  if (!stalled_ || finished_) return;
  play_chunk();  // re-checks coverage; resumes when complete
}

void StreamingSession::finish() {
  if (finished_) return;
  stop();
  session_ended_ = simulator_.now();
  record_trace({.type = obs::TraceEventType::kSessionEnd,
                .ts = session_ended_,
                .value = sim::to_seconds(session_ended_ - session_started_)});
}

SessionReport StreamingSession::report() const {
  SessionReport report;
  report.qoe = qoe_.summary();
  report.startup_delay = startup_done_ - session_started_;
  report.wall_duration =
      (finished_ ? session_ended_ : simulator_.now()) - session_started_;
  report.fetches = fetch_counters_.fetches;
  report.urgent_fetches = fetch_counters_.urgent_fetches;
  report.upgrades = fetch_counters_.upgrades;
  report.late_corrections = fetch_counters_.late_corrections;
  report.fetch_failures = fetch_counters_.fetch_failures;
  report.degraded_retries = fetch_counters_.degraded_retries;
  report.viewport_utility_per_chunk = utility_per_chunk_;
  report.completed = finished_;
  return report;
}

}  // namespace sperke::core
