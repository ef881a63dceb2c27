#include "media/content_store.h"

#include <stdexcept>

namespace sperke::media {

ContentStore::ContentStore(std::shared_ptr<const VideoModel> model)
    : model_(std::move(model)) {
  if (!model_) throw std::invalid_argument("ContentStore: null video model");
}

std::int64_t ContentStore::storage_bytes_tiling(bool with_svc) const {
  std::int64_t total = 0;
  const auto& ladder = model_->ladder();
  for (geo::TileId tile = 0; tile < model_->tile_count(); ++tile) {
    for (ChunkIndex t = 0; t < model_->chunk_count(); ++t) {
      const ChunkKey key{tile, t};
      for (QualityLevel q = 0; q < ladder.levels(); ++q) {
        total += model_->avc_size_bytes(q, key);
        if (with_svc) total += model_->svc_layer_size_bytes(q, key);
      }
    }
  }
  return total;
}

std::int64_t ContentStore::storage_bytes_versioning(int version_count) const {
  if (version_count <= 0) throw std::invalid_argument("versioning: non-positive count");
  // Each version stores the full panorama per quality (high-quality region
  // plus downgraded remainder); approximate each version's size as one full
  // panorama copy across the ladder.
  std::int64_t one_version = 0;
  const auto& ladder = model_->ladder();
  for (geo::TileId tile = 0; tile < model_->tile_count(); ++tile) {
    for (ChunkIndex t = 0; t < model_->chunk_count(); ++t) {
      const ChunkKey key{tile, t};
      for (QualityLevel q = 0; q < ladder.levels(); ++q) {
        one_version += model_->avc_size_bytes(q, key);
      }
    }
  }
  return one_version * version_count;
}

}  // namespace sperke::media
