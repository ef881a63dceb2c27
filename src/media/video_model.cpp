#include "media/video_model.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/rng.h"

namespace sperke::media {

VideoModel::VideoModel(VideoModelConfig config) : config_(std::move(config)) {
  // Every check is written so that NaN fails it.
  if (!sim::valid_positive_seconds(config_.duration_s)) {
    throw std::invalid_argument("VideoModel: duration must be positive and finite");
  }
  if (!sim::valid_positive_seconds(config_.chunk_duration_s)) {
    throw std::invalid_argument("VideoModel: chunk duration must be positive and finite");
  }
  const double chunks = std::ceil(config_.duration_s / config_.chunk_duration_s);
  if (!(chunks <= INT_MAX)) throw std::invalid_argument("VideoModel: too many chunks");
  if (config_.ladder.levels() > kMaxLevels) {
    throw std::invalid_argument("VideoModel: ladder has more than 32 levels");
  }
  if (!(config_.svc_overhead >= 0.0 && std::isfinite(config_.svc_overhead))) {
    throw std::invalid_argument("VideoModel: SVC overhead must be finite and >= 0");
  }
  if (!(config_.complexity_sigma >= 0.0 && std::isfinite(config_.complexity_sigma))) {
    throw std::invalid_argument("VideoModel: complexity_sigma must be finite and >= 0");
  }
  if (!(config_.complexity_rho >= 0.0 && config_.complexity_rho < 1.0)) {
    throw std::invalid_argument("VideoModel: complexity_rho must be in [0,1)");
  }
  if (!(config_.area_mix >= 0.0 && config_.area_mix <= 1.0)) {
    throw std::invalid_argument("VideoModel: area_mix must be in [0,1]");
  }

  geometry_ = std::make_shared<geo::TileGeometry>(
      geo::TileGrid(config_.tile_rows, config_.tile_cols));
  chunk_count_ = static_cast<ChunkIndex>(chunks);

  // Tile share of panorama bits: blend of uniform plane area (pixels) and
  // solid angle (how much scene the tile actually covers).
  const auto& omega = geometry_->solid_angle_fractions();
  const double uniform = 1.0 / static_cast<double>(tile_count());
  tile_shares_.reserve(omega.size());
  double total = 0.0;
  for (double w : omega) {
    const double share = (1.0 - config_.area_mix) * uniform + config_.area_mix * w;
    tile_shares_.push_back(share);
    total += share;
  }
  for (double& s : tile_shares_) s /= total;

  // Per-tile AR(1) complexity process in the log domain.
  Rng rng(config_.seed);
  complexity_.resize(static_cast<std::size_t>(tile_count()));
  const double sigma = config_.complexity_sigma;
  const double rho = config_.complexity_rho;
  const double innovation = sigma * std::sqrt(1.0 - rho * rho);
  double max_complexity = 0.0;  // a NaN sticks and fails the check below
  for (auto& series : complexity_) {
    series.reserve(static_cast<std::size_t>(chunk_count_));
    double log_c = rng.normal(0.0, sigma);
    for (ChunkIndex t = 0; t < chunk_count_; ++t) {
      series.push_back(std::exp(log_c));
      if (std::isnan(series.back()) || series.back() > max_complexity) {
        max_complexity = series.back();
      }
      log_c = rho * log_c + rng.normal(0.0, innovation);
    }
  }

  // The largest object it can size, the top rung's SVC stack of the largest
  // tile share at the largest complexity, must fit the int64 size casts,
  // and so must one such object per tile: every planner sums a chunk's
  // objects across tiles. Every other object's factors are no larger, and
  // rounding is monotone.
  const double max_bytes =
      ladder().panorama_kbps(ladder().max_level()) * 1000.0 *
      config_.chunk_duration_s *
      *std::max_element(tile_shares_.begin(), tile_shares_.end()) *
      max_complexity / 8.0;
  if (!(max_bytes * (1.0 + config_.svc_overhead) * tile_count() < 9.2e18)) {
    throw std::invalid_argument("VideoModel: a chunk's object sizes overflow int64");
  }
}

sim::Time VideoModel::chunk_start_time(ChunkIndex index) const {
  return sim::seconds(config_.chunk_duration_s * index);
}

ChunkIndex VideoModel::chunk_at_time(sim::Time t) const {
  const auto idx = static_cast<ChunkIndex>(sim::to_seconds(t) / config_.chunk_duration_s);
  return std::clamp(idx, ChunkIndex{0}, chunk_count_ - 1);
}

void VideoModel::check_key(const ChunkKey& key) const {
  if (key.tile < 0 || key.tile >= tile_count()) {
    throw std::out_of_range("VideoModel: tile out of range");
  }
  if (key.index < 0 || key.index >= chunk_count_) {
    throw std::out_of_range("VideoModel: chunk index out of range");
  }
}

double VideoModel::complexity(const ChunkKey& key) const {
  check_key(key);
  return complexity_[static_cast<std::size_t>(key.tile)]
                    [static_cast<std::size_t>(key.index)];
}

std::int64_t VideoModel::avc_size_bytes(QualityLevel q, const ChunkKey& key) const {
  check_key(key);
  if (!ladder().valid_level(q)) throw std::out_of_range("VideoModel: bad quality level");
  const double bits = ladder().panorama_kbps(q) * 1000.0 * config_.chunk_duration_s;
  const double tile_bits = bits * tile_shares_[static_cast<std::size_t>(key.tile)] *
                           complexity(key);
  return std::max<std::int64_t>(1, static_cast<std::int64_t>(tile_bits / 8.0));
}

std::int64_t VideoModel::svc_cumulative_size_bytes(QualityLevel q,
                                                   const ChunkKey& key) const {
  const double factor = 1.0 + config_.svc_overhead;
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(
             static_cast<double>(avc_size_bytes(q, key)) * factor));
}

std::int64_t VideoModel::svc_layer_size_bytes(LayerIndex layer,
                                              const ChunkKey& key) const {
  if (layer == 0) return svc_cumulative_size_bytes(0, key);
  return svc_cumulative_size_bytes(layer, key) -
         svc_cumulative_size_bytes(layer - 1, key);
}

std::int64_t VideoModel::size_bytes(const ChunkAddress& address) const {
  switch (address.encoding) {
    case Encoding::kAvc:
      return avc_size_bytes(address.level, address.key);
    case Encoding::kSvc:
      return svc_layer_size_bytes(address.level, address.key);
  }
  throw std::logic_error("VideoModel: unknown encoding");
}

std::int64_t VideoModel::storage_bytes_tiling(bool with_svc) const {
  std::int64_t total = 0;
  bool overflow = false;
  for (geo::TileId tile = 0; tile < tile_count(); ++tile) {
    for (ChunkIndex t = 0; t < chunk_count_; ++t) {
      const ChunkKey key{tile, t};
      for (QualityLevel q = 0; q < ladder().levels(); ++q) {
        overflow |=
            __builtin_add_overflow(total, avc_size_bytes(q, key), &total);
        if (with_svc) {
          overflow |= __builtin_add_overflow(
              total, svc_layer_size_bytes(q, key), &total);
        }
      }
    }
  }
  if (overflow) throw std::overflow_error("VideoModel: storage exceeds int64");
  return total;
}

std::int64_t VideoModel::storage_bytes_versioning(int version_count) const {
  if (version_count <= 0) throw std::invalid_argument("versioning: non-positive count");
  std::int64_t total = 0;
  if (__builtin_mul_overflow(storage_bytes_tiling(false), version_count,
                             &total)) {
    throw std::overflow_error("VideoModel: storage exceeds int64");
  }
  return total;
}

std::string VideoModel::describe() const {
  std::ostringstream os;
  os << "360 video: " << config_.duration_s << " s, equirectangular projection, "
     << config_.tile_rows << "x" << config_.tile_cols
     << " tiles, " << chunk_count_ << " chunks of " << config_.chunk_duration_s
     << " s\n";
  os << "quality ladder (panorama kbps):";
  for (QualityLevel q = 0; q < ladder().levels(); ++q) {
    os << ' ' << ladder().panorama_kbps(q);
  }
  os << "\nSVC overhead: " << config_.svc_overhead * 100.0 << "%\n";
  return os.str();
}

}  // namespace sperke::media
