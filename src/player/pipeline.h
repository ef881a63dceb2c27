// Event-driven client pipeline (§3.5 / Figure 4's right half): a decoder
// pool fed by a decoding scheduler, a decoded-frame cache in "video
// memory", and a render loop that composes the current FoV. Used by the
// Figure 5 bench to *measure* FPS rather than compute it analytically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "geo/visibility.h"
#include "hmp/head_trace.h"
#include "player/decoder_model.h"
#include "sim/simulator.h"

namespace sperke::player {

// Decoded tile of one video frame, resident in video memory (the paper
// implements this with OpenGL ES framebuffer objects).
class FrameCache {
 public:
  explicit FrameCache(std::size_t capacity_tiles);

  [[nodiscard]] bool contains(int frame, geo::TileId tile) const;
  // Inserts; returns false (and does nothing) when the cache is full.
  bool put(int frame, geo::TileId tile);
  // Drop every tile belonging to frames before `frame`.
  void evict_before(int frame);
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::set<std::pair<int, geo::TileId>> entries_;
};

// N hardware decoders with contention-aware service times.
class DecoderPool {
 public:
  DecoderPool(sim::Simulator& simulator, DecoderModelConfig config);
  ~DecoderPool();
  DecoderPool(const DecoderPool&) = delete;
  DecoderPool& operator=(const DecoderPool&) = delete;

  [[nodiscard]] int capacity() const { return config_.hardware_decoders; }
  [[nodiscard]] int active() const { return active_; }
  [[nodiscard]] bool has_free() const { return active_ < capacity(); }

  // Start decoding one tile; `on_done` fires when the decoder finishes.
  // Throws std::logic_error if no decoder is free.
  void decode(std::function<void()> on_done);

  [[nodiscard]] std::int64_t tiles_decoded() const { return tiles_decoded_; }

 private:
  sim::Simulator& simulator_;
  DecoderModelConfig config_;
  int active_ = 0;
  std::int64_t tiles_decoded_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

// Whole-pipeline simulation: runs the render loop against a (wall-clock
// indexed) head trace and measures achieved FPS.
class PlayerSimulation {
 public:
  struct Config {
    DecoderModelConfig decoder;
    PipelineConfig pipeline;
    geo::Viewport viewport{100.0, 90.0};
    int prefetch_frames = 3;  // how far ahead the decoding scheduler works
    // Also decode ring-1 tiles around the FoV so small shifts hit the
    // cache. Off by default: on coarse grids the ring can cover the whole
    // panorama and eat the decode capacity FoV-only mode is meant to save.
    bool cache_margin_ring = false;
  };

  PlayerSimulation(sim::Simulator& simulator,
                   std::shared_ptr<const geo::TileGeometry> geometry,
                   const hmp::HeadTrace& head_trace, Config config);
  ~PlayerSimulation();
  PlayerSimulation(const PlayerSimulation&) = delete;
  PlayerSimulation& operator=(const PlayerSimulation&) = delete;

  // Schedule pipeline activity; then drive the simulator yourself
  // (e.g. simulator.run_until(seconds(10))).
  void start();

  [[nodiscard]] int frames_rendered() const { return frames_rendered_; }
  [[nodiscard]] double measured_fps() const;
  [[nodiscard]] std::int64_t tiles_decoded() const { return decoders_.tiles_decoded(); }
  // Render attempts that found a needed tile neither cached nor decoding —
  // FoV shifts that outran the scheduler (what the §3.5 decoded-frame
  // cache with margin tiles is meant to absorb).
  [[nodiscard]] int render_misses() const { return render_misses_; }

 private:
  [[nodiscard]] std::vector<geo::TileId> tiles_needed(int frame) const;
  [[nodiscard]] std::vector<geo::TileId> tiles_to_prefetch(int frame) const;
  void schedule_decodes();
  void try_render();
  void finish_render();

  sim::Simulator& simulator_;
  std::shared_ptr<const geo::TileGeometry> geometry_;
  const hmp::HeadTrace& head_trace_;
  Config config_;
  DecoderPool decoders_;
  FrameCache cache_;
  std::set<std::pair<int, geo::TileId>> decoding_;  // in-flight decodes

  int next_frame_ = 0;          // next frame to render
  int frames_rendered_ = 0;
  int render_misses_ = 0;
  bool rendering_ = false;
  bool started_ = false;
  sim::Time started_at_{sim::kTimeZero};
  sim::Time earliest_next_render_{sim::kTimeZero};  // display cap pacing
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sperke::player
