// Synthetic encoded-video model.
//
// Substitutes for real H.264/H.265/SVC bitstreams (see DESIGN.md §4): rate
// adaptation, prefetching and upgrade policies consume chunk *sizes*,
// *qualities* and *layer structure*, not pixels, so the model synthesizes
// exactly those. Sizes combine:
//   * the ladder bitrate of the quality level,
//   * the tile's share of the panorama (mix of plane area and solid angle —
//     equirect pole tiles compress far below their plane area),
//   * per-(tile, chunk) content complexity, temporally correlated (AR(1))
//     the way real scene complexity is.
//
// SVC layering (§3.1.1): the cumulative size of layers 0..q equals the AVC
// size at quality q times (1 + svc_overhead); layer i's size is the delta
// between consecutive cumulative sizes — the "delta encoding" of Figure 3.
//
// The model is also the server's content store (Figure 2): it answers the
// storage-accounting questions through which the paper frames the
// tiling-vs-versioning tradeoff (§2), and it is everything a client knows
// about a video before fetching chunks (the MPD of media/mpd.h carries its
// config).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "geo/visibility.h"
#include "media/chunk.h"
#include "media/quality_ladder.h"
#include "sim/time.h"

namespace sperke::media {

struct VideoModelConfig {
  double duration_s = 120.0;
  double chunk_duration_s = 1.0;
  int tile_rows = 4;
  int tile_cols = 6;
  QualityLadder ladder = QualityLadder::default_ladder();
  double svc_overhead = 0.10;      // SVC bitstream overhead vs AVC (per [31])
  double complexity_sigma = 0.25;  // lognormal spread of content complexity
  double complexity_rho = 0.7;     // AR(1) temporal correlation of complexity
  double area_mix = 0.5;           // 0 = pure plane-area share, 1 = pure solid angle
  std::uint64_t seed = 1;
};

class VideoModel {
 public:
  // Throws std::invalid_argument on a non-finite or out-of-range field, on
  // a ladder longer than kMaxLevels, and when tile_count() times the
  // largest object's size (top rung, largest tile share and complexity,
  // plus the SVC overhead) would not fit an int64, so that any one chunk's
  // plan sums without overflow.
  explicit VideoModel(VideoModelConfig config);

  [[nodiscard]] const VideoModelConfig& config() const { return config_; }
  [[nodiscard]] const QualityLadder& ladder() const { return config_.ladder; }
  [[nodiscard]] const geo::TileGeometry& geometry() const { return *geometry_; }
  [[nodiscard]] std::shared_ptr<const geo::TileGeometry> geometry_ptr() const {
    return geometry_;
  }

  [[nodiscard]] int tile_count() const { return geometry_->grid().tile_count(); }
  [[nodiscard]] ChunkIndex chunk_count() const { return chunk_count_; }
  [[nodiscard]] sim::Duration chunk_duration() const {
    return sim::seconds(config_.chunk_duration_s);
  }
  [[nodiscard]] sim::Time chunk_start_time(ChunkIndex index) const;
  [[nodiscard]] ChunkIndex chunk_at_time(sim::Time t) const;

  // Size of the complete AVC chunk at quality q.
  [[nodiscard]] std::int64_t avc_size_bytes(QualityLevel q, const ChunkKey& key) const;

  // Size of SVC layer `layer` alone (the incremental delta).
  [[nodiscard]] std::int64_t svc_layer_size_bytes(LayerIndex layer,
                                                  const ChunkKey& key) const;

  // Total size of SVC layers 0..q (== avc_size * (1 + overhead)).
  [[nodiscard]] std::int64_t svc_cumulative_size_bytes(QualityLevel q,
                                                       const ChunkKey& key) const;

  // Size of any downloadable object.
  [[nodiscard]] std::int64_t size_bytes(const ChunkAddress& address) const;

  // Fraction of the panorama's bits carried by each tile (sums to 1).
  [[nodiscard]] const std::vector<double>& tile_shares() const { return tile_shares_; }

  // Content complexity multiplier of a chunk cell (mean ~1).
  [[nodiscard]] double complexity(const ChunkKey& key) const;

  // Total stored bytes for the tiling approach (all qualities, AVC + SVC
  // copies when `with_svc`). Both storage totals throw std::overflow_error
  // when they do not fit an int64.
  [[nodiscard]] std::int64_t storage_bytes_tiling(bool with_svc) const;

  // Hypothetical storage for the versioning approach with `version_count`
  // FoV-specific versions of every quality (e.g. 88 for Oculus 360 [46]).
  // Each version stores the full panorama per quality (high-quality region
  // plus downgraded remainder), so it is approximated as one AVC tiling
  // copy of the ladder.
  [[nodiscard]] std::int64_t storage_bytes_versioning(int version_count) const;

  // Human-readable summary of the content organization (Figure 2).
  [[nodiscard]] std::string describe() const;

 private:
  void check_key(const ChunkKey& key) const;

  VideoModelConfig config_;
  std::shared_ptr<const geo::TileGeometry> geometry_;
  ChunkIndex chunk_count_;
  std::vector<double> tile_shares_;          // index = TileId
  std::vector<std::vector<double>> complexity_;  // [tile][chunk]
};

}  // namespace sperke::media
