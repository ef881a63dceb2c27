#include "player/pipeline.h"

#include <algorithm>
#include <stdexcept>

namespace sperke::player {

// Decoded tiles the player keeps, across the frames it decodes ahead.
constexpr std::size_t kCacheCapacityTiles = 48;

FrameCache::FrameCache(std::size_t capacity_tiles) : capacity_(capacity_tiles) {
  if (capacity_tiles == 0) throw std::invalid_argument("FrameCache: zero capacity");
}

bool FrameCache::contains(int frame, geo::TileId tile) const {
  return entries_.contains({frame, tile});
}

bool FrameCache::put(int frame, geo::TileId tile) {
  if (entries_.contains({frame, tile})) return true;
  if (entries_.size() >= capacity_) return false;
  entries_.insert({frame, tile});
  return true;
}

void FrameCache::evict_before(int frame) {
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first < frame) {
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

DecoderPool::DecoderPool(sim::Simulator& simulator, DecoderModelConfig config)
    : simulator_(simulator), config_(config) {
  if (config_.hardware_decoders < 1) {
    throw std::invalid_argument("DecoderPool: need at least one decoder");
  }
}

DecoderPool::~DecoderPool() { *alive_ = false; }

void DecoderPool::decode(std::function<void()> on_done) {
  if (!has_free()) throw std::logic_error("DecoderPool: no free decoder");
  ++active_;
  // Service time reflects contention at admission (memory-bus sharing).
  const double ms = effective_decode_ms(config_, active_);
  simulator_.schedule_after(
      sim::seconds(ms / 1000.0),
      [this, alive = alive_, cb = std::move(on_done)] {
        if (!*alive) return;
        --active_;
        ++tiles_decoded_;
        if (cb) cb();
      });
}

PlayerSimulation::PlayerSimulation(sim::Simulator& simulator,
                                   std::shared_ptr<const geo::TileGeometry> geometry,
                                   const hmp::HeadTrace& head_trace, Config config)
    : simulator_(simulator),
      geometry_(std::move(geometry)),
      head_trace_(head_trace),
      config_(config),
      decoders_(simulator, config.decoder),
      cache_(kCacheCapacityTiles) {
  if (!geometry_) throw std::invalid_argument("PlayerSimulation: null geometry");
  if (config_.prefetch_frames < 1) {
    throw std::invalid_argument("PlayerSimulation: prefetch_frames < 1");
  }
}

PlayerSimulation::~PlayerSimulation() { *alive_ = false; }

void PlayerSimulation::start() {
  if (started_) throw std::logic_error("PlayerSimulation already started");
  started_ = true;
  started_at_ = simulator_.now();
  earliest_next_render_ = simulator_.now();
  schedule_decodes();
  try_render();
}

std::vector<geo::TileId> PlayerSimulation::tiles_needed(int frame) const {
  (void)frame;  // orientation is wall-clock driven; frames render the "now" view
  if (!config_.pipeline.fov_only) {
    std::vector<geo::TileId> all(
        static_cast<std::size_t>(geometry_->grid().tile_count()));
    for (geo::TileId t = 0; t < geometry_->grid().tile_count(); ++t) {
      all[static_cast<std::size_t>(t)] = t;
    }
    return all;
  }
  return geometry_->visible_tiles(head_trace_.orientation_at(simulator_.now()),
                                  config_.viewport);
}

std::vector<geo::TileId> PlayerSimulation::tiles_to_prefetch(int frame) const {
  std::vector<geo::TileId> tiles = tiles_needed(frame);
  if (config_.pipeline.fov_only && config_.cache_margin_ring &&
      config_.pipeline.frame_cache) {
    // Decode one ring of margin tiles so a small FoV shift only needs the
    // "delta" tiles (§3.5), not a full re-decode.
    const auto rings = geometry_->oos_rings(tiles);
    for (geo::TileId t = 0; t < geometry_->grid().tile_count(); ++t) {
      if (rings[static_cast<std::size_t>(t)] == 1) tiles.push_back(t);
    }
  }
  return tiles;
}

void PlayerSimulation::schedule_decodes() {
  if (!started_) return;
  const int depth = config_.pipeline.frame_cache ? config_.prefetch_frames : 1;
  for (int frame = next_frame_; frame < next_frame_ + depth; ++frame) {
    for (geo::TileId tile :
         (frame == next_frame_ ? tiles_needed(frame) : tiles_to_prefetch(frame))) {
      if (!decoders_.has_free()) return;
      if (cache_.contains(frame, tile) || decoding_.contains({frame, tile})) {
        continue;
      }
      if (!config_.pipeline.parallel_decoders && decoders_.active() >= 1) return;
      decoding_.insert({frame, tile});
      decoders_.decode([this, alive = alive_, frame, tile] {
        if (!*alive) return;
        decoding_.erase({frame, tile});
        cache_.put(frame, tile);
        schedule_decodes();
        try_render();
      });
    }
    if (!config_.pipeline.frame_cache) break;
  }
}

void PlayerSimulation::try_render() {
  if (!started_ || rendering_) return;
  if (simulator_.now() < earliest_next_render_) {
    // Respect the display refresh pacing.
    simulator_.schedule_at(earliest_next_render_, [this, alive = alive_] {
      if (*alive) try_render();
    });
    return;
  }
  const auto needed = tiles_needed(next_frame_);
  for (geo::TileId tile : needed) {
    if (!cache_.contains(next_frame_, tile)) {
      // A genuine surprise — the tile is not even on a decoder — means the
      // FoV shifted faster than the scheduler predicted; a tile merely
      // still decoding is ordinary pipelining.
      if (!decoding_.contains({next_frame_, tile})) ++render_misses_;
      schedule_decodes();  // make sure the missing tiles are on a decoder
      return;              // retry on the next decode completion
    }
  }
  rendering_ = true;
  const double render_ms =
      static_cast<double>(needed.size()) * config_.decoder.render_ms_per_tile +
      config_.decoder.compose_ms;
  simulator_.schedule_after(sim::seconds(render_ms / 1000.0),
                            [this, alive = alive_] {
                              if (*alive) finish_render();
                            });
}

void PlayerSimulation::finish_render() {
  rendering_ = false;
  ++frames_rendered_;
  cache_.evict_before(next_frame_ + 1);
  earliest_next_render_ =
      earliest_next_render_ +
      sim::seconds(1.0 / config_.decoder.display_cap_fps);
  if (earliest_next_render_ < simulator_.now()) {
    earliest_next_render_ = simulator_.now();
  }
  ++next_frame_;
  schedule_decodes();
  try_render();
}

double PlayerSimulation::measured_fps() const {
  const double elapsed = sim::to_seconds(simulator_.now() - started_at_);
  return elapsed > 0.0 ? frames_rendered_ / elapsed : 0.0;
}

}  // namespace sperke::player
