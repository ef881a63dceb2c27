#include "live/tiled_viewer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sperke::live {
namespace {

// Capture + upload + transcode pipeline: chunk i becomes fetchable at wall
// time chunk_end(i) + kIngestDelay.
constexpr sim::Duration kIngestDelay = sim::seconds(3.0);

}  // namespace

TiledLiveSession::TiledLiveSession(sim::Simulator& simulator,
                                   std::shared_ptr<const media::VideoModel> video,
                                   core::ChunkTransport& transport,
                                   const hmp::HeadTrace& head_trace,
                                   TiledLiveConfig config, LiveCrowdHmp* crowd)
    : core::Viewer(simulator, video, transport, head_trace,
                   {.abr = std::move(config.abr), .fusion = {}, .context = {},
                    .telemetry = config.telemetry,
                    .fetch_recovery = config.fetch_recovery},
                   /*crowd=*/nullptr, /*batch=*/nullptr,
                   // A null video throws in core::Viewer.
                   video != nullptr ? video->chunk_duration() : sim::Duration{0}),
      e2e_target_s_(config.e2e_target_s),
      crowd_(crowd) {
  const double min_latency = sim::to_seconds(kIngestDelay) +
                             sim::to_seconds(video_->chunk_duration());
  // NaN fails both tests; sim::seconds of a non-finite value is undefined.
  if (!(e2e_target_s_ >= min_latency) ||
      !sim::valid_positive_seconds(e2e_target_s_)) {
    throw std::invalid_argument(
        "TiledLiveSession: e2e target below ingest + one chunk");
  }
  // The crowd is read and written for every tile of every chunk.
  if (crowd_ != nullptr && (crowd_->tile_count() != video_->tile_count() ||
                            crowd_->chunk_count() < video_->chunk_count())) {
    throw std::invalid_argument("TiledLiveSession: crowd does not cover the video");
  }
}

sim::Time TiledLiveSession::deadline_of(media::ChunkIndex index) const {
  return video_->chunk_start_time(index) + sim::seconds(e2e_target_s_);
}

sim::Time TiledLiveSession::content_now() const {
  const sim::Time now = simulator_.now();
  const auto latency = sim::seconds(e2e_target_s_);
  return now > latency ? now - latency : sim::kTimeZero;
}

void TiledLiveSession::start() {
  start_tasks();
  // Plan each chunk the moment it becomes available at the ingest edge,
  // and play it at its wall-clock deadline.
  for (media::ChunkIndex index = 0; index < video_->chunk_count(); ++index) {
    const sim::Time ingested =
        video_->chunk_start_time(index) + video_->chunk_duration() + kIngestDelay;
    simulator_.schedule_at(ingested, [this, index, alive = alive_] {
      if (*alive && !finished_) plan_chunk(index);
    });
    simulator_.schedule_at(deadline_of(index), [this, index, alive = alive_] {
      if (*alive && !finished_) play_chunk(index);
    });
  }
}

void TiledLiveSession::fuse(media::ChunkIndex index, sim::Duration horizon) {
  core::Viewer::fuse(index, horizon);
  // Blend in the *time-gated* live crowd snapshot: only what other viewers
  // have already displayed (and reported) by now is usable.
  if (crowd_ == nullptr || crowd_->observations(index, simulator_.now()) <= 0) {
    return;
  }
  const auto crowd_probs = crowd_->probabilities(index, simulator_.now());
  const double h = std::max(0.0, sim::to_seconds(horizon));
  // Blend weight of the live crowd prior, on fusion's own schedule.
  const hmp::FusionConfig& schedule = fusion_.config();
  const double w =
      std::exp(-std::max(0.0, h - schedule.motion_grace_s) / schedule.motion_tau_s);
  double total = 0.0;
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    probs_[i] = w * probs_[i] + (1.0 - w) * crowd_probs[i];
    total += probs_[i];
  }
  for (double& p : probs_) p /= total;
}

void TiledLiveSession::plan_chunk(media::ChunkIndex index) {
  // The buffer level is the wall time left before the chunk's deadline.
  const sim::Time deadline = deadline_of(index);
  const abr::ChunkPlan& plan = core::Viewer::plan(
      index, deadline - simulator_.now(), transport_.estimated_kbps());
  for (const auto& fetch : plan.fetches) {
    dispatch(fetch.address, fetch.spatial, deadline);
  }
}

void TiledLiveSession::on_settle(const Fetch& fetch, core::FetchOutcome outcome) {
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
  recover(fetch, next_play_);
}

void TiledLiveSession::play_chunk(media::ChunkIndex index) {
  next_play_ = index + 1;
  const std::vector<geo::TileId>& visible = visible_at(index);

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
    qoe_.record_skip();
  } else {
    const double blank =
        1.0 - static_cast<double>(shown) / static_cast<double>(visible.size());
    qoe_.record_played_chunk(utility_sum / static_cast<double>(visible.size()),
                             blank);
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

  if (index + 1 >= video_->chunk_count()) stop();
}

TiledLiveReport TiledLiveSession::report() const {
  TiledLiveReport out;
  out.qoe = qoe_.summary();
  out.fetches = fetch_counters_.fetches;
  out.upgrades = fetch_counters_.upgrades;
  out.fetch_failures = fetch_counters_.fetch_failures;
  out.degraded_retries = fetch_counters_.degraded_retries;
  out.finished = finished_;
  return out;
}

}  // namespace sperke::live
