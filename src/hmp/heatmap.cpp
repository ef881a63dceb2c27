#include "hmp/heatmap.h"

#include <stdexcept>

#include "hmp/head_trace.h"

namespace sperke::hmp {

ViewingHeatmap::ViewingHeatmap(int tile_count, media::ChunkIndex chunk_count)
    : tile_count_(tile_count), chunk_count_(chunk_count) {
  if (tile_count <= 0 || chunk_count <= 0) {
    throw std::invalid_argument("ViewingHeatmap: non-positive dims");
  }
  counts_.assign(static_cast<std::size_t>(tile_count) * chunk_count, 0.0);
  totals_.assign(static_cast<std::size_t>(chunk_count), 0.0);
}

std::size_t ViewingHeatmap::at(media::ChunkIndex chunk, geo::TileId tile) const {
  if (chunk < 0 || chunk >= chunk_count_ || tile < 0 || tile >= tile_count_) {
    throw std::out_of_range("ViewingHeatmap: chunk/tile out of range");
  }
  return static_cast<std::size_t>(chunk) * tile_count_ + tile;
}

void ViewingHeatmap::add_view(media::ChunkIndex chunk,
                              std::span<const geo::TileId> visible) {
  for (geo::TileId tile : visible) {
    counts_[at(chunk, tile)] += 1.0;
    totals_[static_cast<std::size_t>(chunk)] += 1.0;
  }
}

void ViewingHeatmap::add_trace(const HeadTrace& trace,
                               const geo::TileGeometry& geometry,
                               const geo::Viewport& viewport,
                               sim::Duration chunk_duration, int samples_per_chunk) {
  if (samples_per_chunk <= 0) {
    throw std::invalid_argument("add_trace: samples_per_chunk <= 0");
  }
  for (media::ChunkIndex chunk = 0; chunk < chunk_count_; ++chunk) {
    const sim::Time start = chunk_duration * chunk;
    if (start > trace.duration()) break;
    for (int s = 0; s < samples_per_chunk; ++s) {
      const sim::Time t =
          start + chunk_duration * s / samples_per_chunk;
      const auto visible =
          geometry.visible_tiles(trace.orientation_at(t), viewport);
      add_view(chunk, visible);
    }
  }
}

std::vector<double> ViewingHeatmap::probabilities(media::ChunkIndex chunk) const {
  std::vector<double> out(static_cast<std::size_t>(tile_count_));
  double total = 0.0;
  for (geo::TileId tile = 0; tile < tile_count_; ++tile) {
    out[static_cast<std::size_t>(tile)] = counts_[at(chunk, tile)] + 1.0;  // Laplace
    total += out[static_cast<std::size_t>(tile)];
  }
  for (double& p : out) p /= total;
  return out;
}

double ViewingHeatmap::count(media::ChunkIndex chunk, geo::TileId tile) const {
  return counts_[at(chunk, tile)];
}

double ViewingHeatmap::total(media::ChunkIndex chunk) const {
  if (chunk < 0 || chunk >= chunk_count_) {
    throw std::out_of_range("ViewingHeatmap: chunk out of range");
  }
  return totals_[static_cast<std::size_t>(chunk)];
}

void ViewingHeatmap::merge(const ViewingHeatmap& other) {
  if (other.tile_count_ != tile_count_ || other.chunk_count_ != chunk_count_) {
    throw std::invalid_argument("ViewingHeatmap::merge: shape mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  for (std::size_t c = 0; c < totals_.size(); ++c) totals_[c] += other.totals_[c];
}

}  // namespace sperke::hmp
