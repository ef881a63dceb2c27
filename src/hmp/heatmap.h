// Cross-user viewing statistics (§3.2's first data dimension): for every
// temporal chunk, how often each tile fell inside some viewer's FoV.
// Built offline from collected traces (VOD) or online from low-latency
// viewers (live crowd-sourced HMP, §3.4.2).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geo/visibility.h"
#include "media/chunk.h"
#include "sim/time.h"

namespace sperke::hmp {

class HeadTrace;

class ViewingHeatmap {
 public:
  ViewingHeatmap(int tile_count, media::ChunkIndex chunk_count);

  [[nodiscard]] int tile_count() const { return tile_count_; }
  [[nodiscard]] media::ChunkIndex chunk_count() const { return chunk_count_; }

  // Record that one viewer saw `visible` tiles during chunk `chunk`.
  void add_view(media::ChunkIndex chunk, std::span<const geo::TileId> visible);

  // Fold a whole head trace in: samples the trace `samples_per_chunk` times
  // per chunk and records the visible set each time.
  void add_trace(const HeadTrace& trace, const geo::TileGeometry& geometry,
                 const geo::Viewport& viewport, sim::Duration chunk_duration,
                 int samples_per_chunk = 4);

  // Laplace-smoothed viewing probability per tile for a chunk; sums to 1.
  [[nodiscard]] std::vector<double> probabilities(media::ChunkIndex chunk) const;

  // Raw observation count.
  [[nodiscard]] double count(media::ChunkIndex chunk, geo::TileId tile) const;

  // Total observations recorded for a chunk (0 = no crowd data yet).
  // O(1): per-chunk totals are maintained incrementally (exact, since the
  // counts are sums of 1.0s — integers well below 2^53).
  [[nodiscard]] double total(media::ChunkIndex chunk) const;

  // Pool another heatmap's observations into this one (same shape).
  void merge(const ViewingHeatmap& other);

 private:
  [[nodiscard]] std::size_t at(media::ChunkIndex chunk, geo::TileId tile) const;

  int tile_count_;
  media::ChunkIndex chunk_count_;
  std::vector<double> counts_;  // [chunk * tile_count + tile]
  std::vector<double> totals_;  // per-chunk sum of counts_
};

}  // namespace sperke::hmp
