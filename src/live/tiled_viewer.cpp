#include "live/tiled_viewer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sperke::live {

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
      qoe_(config_.qoe) {
  const double min_latency = sim::to_seconds(config_.ingest_delay) +
                             sim::to_seconds(video_->chunk_duration());
  // NaN fails both tests; sim::seconds of a non-finite value is undefined.
  if (!(config_.e2e_target_s >= min_latency) ||
      !sim::valid_positive_seconds(config_.e2e_target_s)) {
    throw std::invalid_argument(
        "TiledLiveSession: e2e target below ingest + one chunk");
  }
  if (!(config_.head_sample_hz > 0.0) ||
      !sim::valid_positive_seconds(1.0 / config_.head_sample_hz)) {
    throw std::invalid_argument("TiledLiveSession: bad head sample rate");
  }
  if (config_.enable_upgrades && config_.upgrade_scan_period <= sim::Duration{0}) {
    throw std::invalid_argument("TiledLiveSession: upgrade scan period <= 0");
  }
  if (crowd_ != nullptr && crowd_->tile_count() != video_->tile_count()) {
    throw std::invalid_argument("TiledLiveSession: crowd/grid mismatch");
  }
}

sim::Time TiledLiveSession::availability_of(media::ChunkIndex index) const {
  return video_->chunk_start_time(index) + video_->chunk_duration() +
         config_.ingest_delay;
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
  head_task_.emplace(simulator_, sim::seconds(1.0 / config_.head_sample_hz),
                     [this] { observe_head(); });
  if (config_.enable_upgrades && policy_->upgrade_window() > sim::Duration{0}) {
    upgrade_task_.emplace(simulator_, config_.upgrade_scan_period,
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
  const double w =
      std::exp(-std::max(0.0, h - config_.crowd_grace_s) / config_.crowd_tau_s);
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
  std::vector<geo::TileId> order(probs.size());
  for (std::size_t i = 0; i < probs.size(); ++i) {
    order[i] = static_cast<geo::TileId>(i);
  }
  std::stable_sort(order.begin(), order.end(), [&](geo::TileId a, geo::TileId b) {
    return probs[static_cast<std::size_t>(a)] > probs[static_cast<std::size_t>(b)];
  });
  order.resize(std::min(order.size(), motion_fov.size()));
  std::sort(order.begin(), order.end());

  const sim::Duration buffer_level = deadline_of(index) - simulator_.now();
  const auto plan =
      policy_->plan_chunk(index, order, probs, transport_.estimated_kbps(),
                          buffer_level, last_fov_quality_);
  plan_quality_[index] = plan.fov_quality;
  last_fov_quality_ = plan.fov_quality;
  for (const auto& fetch : plan.fetches) {
    dispatch(fetch.address, fetch.spatial, deadline_of(index), false);
  }
}

void TiledLiveSession::dispatch(const media::ChunkAddress& address,
                                abr::SpatialClass spatial, sim::Time deadline,
                                bool is_upgrade,
                                std::int64_t parent_request_id) {
  if (buffer_.contains(address) || in_flight_.contains(address)) return;
  if (address.key.index < next_play_) return;  // already played: pointless
  in_flight_.insert(address);
  ++fetches_;
  if (is_upgrade) ++upgrades_;
  core::ChunkRequest request;
  request.id = net::to_chunk_id(address);
  request.bytes = video_->size_bytes(address);
  request.spatial = spatial;
  request.urgent = (deadline - simulator_.now()) < video_->chunk_duration();
  request.deadline = deadline;
  if (config_.telemetry != nullptr) {
    request.request_id = config_.telemetry->next_request_id();
    config_.telemetry->trace().record(
        {.type = obs::TraceEventType::kFetchDispatched,
         .ts = simulator_.now(),
         .tile = address.key.tile,
         .chunk = address.key.index,
         .quality = address.level,
         .bytes = request.bytes,
         .urgent = request.urgent,
         .request = request.request_id,
         .parent = parent_request_id});
  }
  request.parent_id = parent_request_id;
  const std::int64_t request_id = request.request_id;
  request.on_done = [this, alive = alive_, address, spatial, deadline,
                     request_id, parent_request_id](sim::Time finished_at,
                                                    core::FetchOutcome outcome) {
    if (!*alive) return;
    in_flight_.erase(address);
    if (finished_) return;
    if (config_.telemetry != nullptr) {
      config_.telemetry->trace().record(
          {.type = core::delivered(outcome) ? obs::TraceEventType::kFetchDone
                                            : obs::TraceEventType::kFetchDropped,
           .ts = finished_at,
           .tile = address.key.tile,
           .chunk = address.key.index,
           .quality = address.level,
           .bytes = core::delivered(outcome) ? video_->size_bytes(address) : 0,
           .request = request_id,
           .parent = parent_request_id});
    }
    if (core::delivered(outcome)) {
      const std::int64_t bytes = video_->size_bytes(address);
      qoe_.record_downloaded(bytes);
      if (address.key.index < next_play_) {
        qoe_.record_wasted(bytes);  // arrived after its live deadline
      } else {
        buffer_.add(address);
      }
      return;
    }
    if (outcome == core::FetchOutcome::kDropped) return;  // best-effort loss
    // Injected-fault loss (timed out / failed after retries).
    ++fetch_failures_;
    if (config_.fetch_recovery && spatial == abr::SpatialClass::kFov &&
        address.key.index >= next_play_ && deadline > simulator_.now()) {
      // Live degradation: a base-tier tile on time beats a blank tile. The
      // blank re-request cites the failed request as its causal parent.
      const media::ChunkAddress fallback{address.key,
                                         policy_->base_tier_encoding(), 0};
      if (!buffer_.contains(fallback) && !in_flight_.contains(fallback)) {
        ++degraded_retries_;
        dispatch(fallback, abr::SpatialClass::kFov, deadline, false,
                 request_id);
      }
    }
  };
  transport_.fetch(std::move(request));
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
      const sim::Time when = simulator_.now() + config_.crowd_report_delay;
      simulator_.schedule_at(when, [this, index, displayed, when,
                                    alive = alive_] {
        if (*alive) crowd_->record(index, displayed, when);
      });
    }
  }

  // Waste accounting for this chunk's cells.
  std::vector<char> is_visible(static_cast<std::size_t>(video_->tile_count()), 0);
  for (geo::TileId tile : visible) is_visible[static_cast<std::size_t>(tile)] = 1;
  for (geo::TileId tile = 0; tile < video_->tile_count(); ++tile) {
    const media::ChunkKey key{tile, index};
    const std::int64_t held = buffer_.cell_bytes(key);
    if (held == 0) continue;
    std::int64_t used = 0;
    if (is_visible[static_cast<std::size_t>(tile)]) {
      used = buffer_.cell_bytes_used(key, buffer_.displayable_quality(key));
    }
    qoe_.record_wasted(held - used);
  }
  buffer_.evict_before(index + 1);

  if (index + 1 >= video_->chunk_count()) finish();
}

void TiledLiveSession::scan_upgrades() {
  if (finished_) return;
  const double est = transport_.estimated_kbps();
  for (media::ChunkIndex index = next_play_;
       index < video_->chunk_count(); ++index) {
    if (availability_of(index) > simulator_.now()) break;  // not ingested yet
    const sim::Duration slack = deadline_of(index) - simulator_.now();
    if (slack <= sim::Duration{0}) continue;
    const sim::Duration horizon =
        video_->chunk_start_time(index) - content_now();
    const auto probs = fused_probabilities(index, horizon);
    const auto target_it = plan_quality_.find(index);
    if (target_it == plan_quality_.end()) continue;
    const auto visible = video_->geometry().visible_tiles(
        fusion_.predict_orientation(horizon), config_.viewport);
    for (geo::TileId tile : visible) {
      const media::ChunkKey key{tile, index};
      const media::QualityLevel current = buffer_.displayable_quality(key);
      if (current >= target_it->second) continue;
      const auto decision = policy_->consider_upgrade(
          key, current, buffer_.svc_contiguous_quality(key), target_it->second,
          probs[static_cast<std::size_t>(tile)], slack, est);
      if (!decision.upgrade) continue;
      for (const auto& address : decision.fetches) {
        dispatch(address, abr::SpatialClass::kFov, deadline_of(index),
                 /*is_upgrade=*/current >= 0);
      }
    }
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
  out.fetches = fetches_;
  out.upgrades = upgrades_;
  out.fetch_failures = fetch_failures_;
  out.degraded_retries = degraded_retries_;
  out.finished = finished_;
  return out;
}

}  // namespace sperke::live
