// Server-side content store: holds the encoded representations of one video
// (Figure 2's server-side organization) and answers storage-accounting
// questions, which is how the paper frames the tiling-vs-versioning
// tradeoff (§2): tiling keeps one copy per quality, versioning keeps up to
// 88 FoV-specific copies.
#pragma once

#include <cstdint>
#include <memory>

#include "media/video_model.h"

namespace sperke::media {

class ContentStore {
 public:
  explicit ContentStore(std::shared_ptr<const VideoModel> model);

  [[nodiscard]] const VideoModel& video() const { return *model_; }

  // Total stored bytes for the tiling approach (all qualities, AVC + SVC
  // copies when `with_svc`).
  [[nodiscard]] std::int64_t storage_bytes_tiling(bool with_svc) const;

  // Hypothetical storage for the versioning approach with `version_count`
  // FoV-specific versions of every quality (e.g. 88 for Oculus 360 [46]).
  [[nodiscard]] std::int64_t storage_bytes_versioning(int version_count) const;

 private:
  std::shared_ptr<const VideoModel> model_;
};

}  // namespace sperke::media
