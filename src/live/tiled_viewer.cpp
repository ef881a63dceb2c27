#include "live/tiled_viewer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sperke::live {
namespace {

// Capture + upload + transcode pipeline: chunk i becomes fetchable at wall
// time chunk_end(i) + kIngestDelay.
constexpr sim::Duration kIngestDelay = sim::seconds(3.0);
constexpr double kHeadSampleHz = 25.0;
constexpr sim::Duration kUpgradeScanPeriod = sim::milliseconds(250);

}  // namespace

TiledLiveSession::TiledLiveSession(sim::Simulator& simulator,
                                   std::shared_ptr<const media::VideoModel> video,
                                   core::ChunkTransport& transport,
                                   const hmp::HeadTrace& head_trace,
                                   TiledLiveConfig config, LiveCrowdHmp* crowd)
    : simulator_(simulator),
      video_(std::move(video)),
      transport_(transport),
      head_trace_(head_trace),
      config_(std::move(config)),
      crowd_(crowd),
      fusion_(video_->geometry_ptr(), config_.viewport,
              hmp::make_orientation_predictor(config_.predictor),
              /*crowd=*/nullptr, {}, {}),
      buffer_(video_),
      policy_(abr::make_policy(video_, config_.abr)),
      in_flight_(static_cast<std::size_t>(video_->chunk_count()) *
                 static_cast<std::size_t>(video_->tile_count())),
      fetcher_(simulator_, *video_, transport_, buffer_, *policy_,
               config_.telemetry, in_flight_, video_->chunk_duration(),
               config_.fetch_recovery,
               [this](const core::TileFetcher::Fetch& fetch,
                      core::FetchOutcome outcome) { on_settle(fetch, outcome); }),
      planned_(static_cast<std::size_t>(video_->chunk_count()), -1) {
  const double min_latency = sim::to_seconds(kIngestDelay) +
                             sim::to_seconds(video_->chunk_duration());
  // NaN fails both tests; sim::seconds of a non-finite value is undefined.
  if (!(config_.e2e_target_s >= min_latency) ||
      !sim::valid_positive_seconds(config_.e2e_target_s)) {
    throw std::invalid_argument(
        "TiledLiveSession: e2e target below ingest + one chunk");
  }
  if (crowd_ != nullptr && crowd_->tile_count() != video_->tile_count()) {
    throw std::invalid_argument("TiledLiveSession: crowd/grid mismatch");
  }
}

sim::Time TiledLiveSession::availability_of(media::ChunkIndex index) const {
  return video_->chunk_start_time(index) + video_->chunk_duration() +
         kIngestDelay;
}

sim::Time TiledLiveSession::deadline_of(media::ChunkIndex index) const {
  return video_->chunk_start_time(index) + sim::seconds(config_.e2e_target_s);
}

sim::Time TiledLiveSession::content_now() const {
  const sim::Time now = simulator_.now();
  const auto latency = sim::seconds(config_.e2e_target_s);
  return now > latency ? now - latency : sim::kTimeZero;
}

void TiledLiveSession::start() {
  if (started_) throw std::logic_error("TiledLiveSession already started");
  started_ = true;
  observe_head();
  head_task_.emplace(simulator_, sim::seconds(1.0 / kHeadSampleHz),
                     [this] { observe_head(); });
  if (policy_->upgrade_window() > sim::Duration{0}) {
    upgrade_task_.emplace(simulator_, kUpgradeScanPeriod,
                          [this] { scan_upgrades(); });
  }
  // Plan each chunk the moment it becomes available at the ingest edge,
  // and play it at its wall-clock deadline.
  for (media::ChunkIndex index = 0; index < video_->chunk_count(); ++index) {
    simulator_.schedule_at(availability_of(index), [this, index, alive = alive_] {
      if (*alive && !finished_) plan_chunk(index);
    });
    simulator_.schedule_at(deadline_of(index), [this, index, alive = alive_] {
      if (*alive && !finished_) play_chunk(index);
    });
  }
}

void TiledLiveSession::observe_head() {
  if (finished_) return;
  const sim::Time t = content_now();
  if (t <= last_observed_) return;
  last_observed_ = t;
  fusion_.observe({t, head_trace_.orientation_at(t)});
}

std::vector<double> TiledLiveSession::fused_probabilities(
    media::ChunkIndex index, sim::Duration horizon) const {
  // Motion + context from the offline fusion machinery...
  std::vector<double> probs = fusion_.tile_probabilities(horizon, index);
  if (crowd_ == nullptr) return probs;
  // ...blended with the *time-gated* live crowd snapshot: only what other
  // viewers have already displayed (and reported) by now is usable.
  if (crowd_->observations(index, simulator_.now()) <= 0) return probs;
  const auto crowd_probs = crowd_->probabilities(index, simulator_.now());
  const double h = std::max(0.0, sim::to_seconds(horizon));
  // Blend weight of the live crowd prior; mirrors hmp::FusionConfig.
  constexpr double kCrowdGraceS = 0.5;
  constexpr double kCrowdTauS = 1.5;
  const double w = std::exp(-std::max(0.0, h - kCrowdGraceS) / kCrowdTauS);
  double total = 0.0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    probs[i] = w * probs[i] + (1.0 - w) * crowd_probs[i];
    total += probs[i];
  }
  for (double& p : probs) p /= total;
  return probs;
}

void TiledLiveSession::plan_chunk(media::ChunkIndex index) {
  const sim::Duration horizon =
      video_->chunk_start_time(index) - content_now();
  const auto probs = fused_probabilities(index, horizon);
  // FoV set: top-probability tiles, sized by the motion-predicted viewport
  // (same policy as the VOD planner).
  const geo::Orientation predicted = fusion_.predict_orientation(horizon);
  const auto motion_fov =
      video_->geometry().visible_tiles(predicted, config_.viewport);
  std::vector<geo::TileId> fov;
  abr::super_chunk_tiles(probs, motion_fov.size(), fov);

  const sim::Duration buffer_level = deadline_of(index) - simulator_.now();
  const auto plan =
      policy_->plan_chunk(index, fov, probs, transport_.estimated_kbps(),
                          buffer_level, last_fov_quality_);
  planned_[static_cast<std::size_t>(index)] = plan.fov_quality;
  last_fov_quality_ = plan.fov_quality;
  for (const auto& fetch : plan.fetches) {
    fetcher_.dispatch(fetch.address, fetch.spatial, deadline_of(index));
  }
}

void TiledLiveSession::on_settle(const core::TileFetcher::Fetch& fetch,
                                 core::FetchOutcome outcome) {
  if (finished_) return;
  if (core::delivered(outcome)) {
    qoe_.record_downloaded(fetch.bytes);
    if (fetch.address.key.index < next_play_) {
      qoe_.record_wasted(fetch.bytes);  // arrived after its live deadline
    } else {
      buffer_.add(fetch.address);
    }
    return;
  }
  if (outcome == core::FetchOutcome::kDropped) return;  // best-effort loss
  // Injected-fault loss: a base-tier tile on time beats a blank tile.
  fetcher_.recover(fetch, next_play_);
}

void TiledLiveSession::play_chunk(media::ChunkIndex index) {
  next_play_ = index + 1;
  const auto visible = video_->geometry().visible_tiles(
      head_trace_.orientation_at(video_->chunk_start_time(index)),
      config_.viewport);

  int shown = 0;
  double utility_sum = 0.0;
  std::vector<geo::TileId> displayed;
  for (geo::TileId tile : visible) {
    const media::ChunkKey key{tile, index};
    const media::QualityLevel q = buffer_.displayable_quality(key);
    if (q >= 0) {
      ++shown;
      utility_sum += video_->ladder().utility(q);
      displayed.push_back(tile);
    }
  }
  if (shown == 0) {
    // Live semantics: nothing to show -> the chunk is skipped outright.
    ++chunks_skipped_;
    qoe_.record_skip();
  } else {
    const double blank =
        1.0 - static_cast<double>(shown) / static_cast<double>(visible.size());
    qoe_.record_played_chunk(utility_sum / static_cast<double>(visible.size()),
                             blank);
    ++chunks_played_;
    blank_sum_ += blank;
    if (crowd_ != nullptr) {
      // Report what this viewer actually watched; other (higher-latency)
      // viewers can use it once the report lands.
      constexpr sim::Duration kCrowdReportDelay = sim::milliseconds(300);
      const sim::Time when = simulator_.now() + kCrowdReportDelay;
      simulator_.schedule_at(when, [this, index, displayed, when,
                                    alive = alive_] {
        if (*alive) crowd_->record(index, displayed, when);
      });
    }
  }

  qoe_.record_wasted(buffer_.unused_bytes(index, visible));
  buffer_.evict_before(index + 1);

  if (index + 1 >= video_->chunk_count()) finish();
}

void TiledLiveSession::scan_upgrades() {
  if (finished_) return;
  const double est = transport_.estimated_kbps();
  for (media::ChunkIndex index = next_play_;
       index < video_->chunk_count(); ++index) {
    if (availability_of(index) > simulator_.now()) break;  // not ingested yet
    const sim::Time deadline = deadline_of(index);
    if (!fetcher_.in_upgrade_window(deadline)) continue;
    const media::QualityLevel target = planned_[static_cast<std::size_t>(index)];
    if (target < 0) continue;
    const sim::Duration horizon =
        video_->chunk_start_time(index) - content_now();
    const auto visible = video_->geometry().visible_tiles(
        fusion_.predict_orientation(horizon), config_.viewport);
    if (!fetcher_.any_below(index, visible, target)) continue;
    const auto probs = fused_probabilities(index, horizon);
    fetcher_.upgrade(index, visible, probs, target, deadline, est);
  }
}

void TiledLiveSession::finish() {
  if (finished_) return;
  finished_ = true;
  if (head_task_) head_task_->stop();
  if (upgrade_task_) upgrade_task_->stop();
}

TiledLiveReport TiledLiveSession::report() const {
  TiledLiveReport out;
  out.qoe = qoe_.summary();
  out.chunks_played = chunks_played_;
  out.chunks_skipped = chunks_skipped_;
  out.mean_blank_fraction =
      chunks_played_ > 0 ? blank_sum_ / chunks_played_ : 0.0;
  const core::TileFetcher::Counters& fetched = fetcher_.counters();
  out.fetches = fetched.fetches;
  out.upgrades = fetched.upgrades;
  out.fetch_failures = fetched.fetch_failures;
  out.degraded_retries = fetched.degraded_retries;
  out.finished = finished_;
  return out;
}

}  // namespace sperke::live
