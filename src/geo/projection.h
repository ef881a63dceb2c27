// The equirectangular sphere-to-plane projection (YouTube's layout, one of
// the two schemes the paper names in §2).
//
// u is longitude and v is latitude, both linear in angle, normalized into
// [0,1)^2. Tiles (geo/tile_grid.h) are rectangles in this plane. The
// projection heavily oversamples the poles, which is why per-tile
// solid-angle weights (geo/visibility.h) matter for bandwidth accounting.
#pragma once

#include "geo/vec.h"

namespace sperke::geo {

struct Uv {
  double u = 0.0;  // [0,1): horizontal position in the panorama plane
  double v = 0.0;  // [0,1): vertical position, 0 = top
};

// Project a (non-zero) direction onto the panorama plane.
[[nodiscard]] Uv uv_from_direction(const Vec3& dir);

// Inverse projection; uv components are wrapped/clamped into [0,1).
[[nodiscard]] Vec3 direction_from_uv(Uv uv);

}  // namespace sperke::geo
