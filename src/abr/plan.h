// Fetch plans: the output of 360° rate adaptation and the input to the
// fetch scheduler / multipath layer.
//
// SpatialClass is the spatial half of the paper's Table 1 priority matrix
// (FoV chunks > OOS chunks); the temporal half (urgent vs regular) is
// decided at dispatch time from the playback deadline
// (core::ChunkRequest::urgent), and mp::rank orders the four cells.
#pragma once

#include <cstdint>
#include <vector>

#include "media/chunk.h"
#include "media/video_model.h"

namespace sperke::abr {

enum class SpatialClass : std::uint8_t {
  kFov,  // inside the predicted field of view
  kOos,  // out-of-sight margin tile (HMP error tolerance)
};

struct PlannedFetch {
  media::ChunkAddress address;
  SpatialClass spatial = SpatialClass::kFov;
  // Predicted probability this tile will actually be displayed.
  double visibility_probability = 1.0;
};

// All fetches planned for one temporal chunk index.
struct ChunkPlan {
  media::ChunkIndex index = 0;
  media::QualityLevel fov_quality = 0;
  std::vector<PlannedFetch> fetches;

  [[nodiscard]] std::int64_t total_bytes(const media::VideoModel& video) const {
    std::int64_t total = 0;
    for (const auto& f : fetches) total += video.size_bytes(f.address);
    return total;
  }
};

}  // namespace sperke::abr
