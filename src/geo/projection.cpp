#include "geo/projection.h"

#include <algorithm>
#include <cmath>

#include "geo/orientation.h"

namespace sperke::geo {
namespace {

// Wrap into [0,1).
double wrap01(double x) {
  double r = x - std::floor(x);
  return r >= 1.0 ? 0.0 : r;
}

}  // namespace

Uv uv_from_direction(const Vec3& dir) {
  const LonLat ll = lonlat_from_direction(dir);
  return Uv{wrap01((ll.lon_deg + 180.0) / 360.0),
            std::clamp((90.0 - ll.lat_deg) / 180.0, 0.0, 1.0 - 1e-12)};
}

Vec3 direction_from_uv(Uv uv) {
  const double lon = wrap01(uv.u) * 360.0 - 180.0;
  const double lat = 90.0 - std::clamp(uv.v, 0.0, 1.0) * 180.0;
  return direction_from_lonlat(lon, lat);
}

}  // namespace sperke::geo
