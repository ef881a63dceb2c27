#include "geo/visibility.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "util/math.h"

namespace sperke::geo {

namespace {

// Ids start at 1 so 0 stays the Scratch memo's "empty entry" marker.
// Atomic: shards construct their TileGeometry on engine worker threads.
std::uint64_t next_instance_id() {
  // sperke-analyze: shared(atomic relaxed fetch_add; ids only key per-thread memo entries, so allocation order never affects results)
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

TileGeometry::TileGeometry(std::shared_ptr<const Projection> projection,
                           TileGrid grid, int samples_per_axis)
    : projection_(std::move(projection)),
      grid_(grid),
      instance_id_(next_instance_id()),
      samples_per_axis_(samples_per_axis) {
  if (!projection_) throw std::invalid_argument("TileGeometry: null projection");
  if (samples_per_axis_ < 2) throw std::invalid_argument("TileGeometry: samples_per_axis < 2");

  // Equirect tile edges are constant-lat/lon lines; precompute them for the
  // sign-test classifier (see classify_equirect).
  if (dynamic_cast<const EquirectangularProjection*>(projection_.get()) != nullptr) {
    equirect_fast_ = true;
    for (int j = 1; j < grid_.rows(); ++j) {
      row_sin_.push_back(std::sin(deg_to_rad(90.0 - 180.0 * j / grid_.rows())));
    }
    for (int k = 1; k < grid_.cols(); ++k) {
      const double lon = 360.0 * k / grid_.cols() - 180.0;
      const double r = deg_to_rad(lon);
      if (lon <= 0.0) {
        ++col_base_;
        // The lon == 0 meridian needs no test: every lon >= 0 passes it.
        if (lon < 0.0) col_neg_.emplace_back(std::cos(r), std::sin(r));
      } else {
        col_pos_.emplace_back(std::cos(r), std::sin(r));
      }
    }
  }

  // Precompute per-tile solid angle by sampling the sphere uniformly:
  // stratified in longitude and in sin(latitude) (equal-area bands).
  const int kLonSamples = 256;
  const int kLatSamples = 128;
  solid_angle_.assign(static_cast<std::size_t>(grid_.tile_count()), 0.0);
  for (int i = 0; i < kLonSamples; ++i) {
    const double lon = (i + 0.5) / kLonSamples * 360.0 - 180.0;
    for (int j = 0; j < kLatSamples; ++j) {
      const double z = (j + 0.5) / kLatSamples * 2.0 - 1.0;  // sin(lat)
      const double lat = rad_to_deg(std::asin(z));
      const Vec3 dir = direction_from_lonlat(lon, lat);
      const TileId id = grid_.tile_at(projection_->uv_from_direction(dir));
      solid_angle_[static_cast<std::size_t>(id)] += 1.0;
    }
  }
  const double total = kLonSamples * static_cast<double>(kLatSamples);
  for (double& f : solid_angle_) f /= total;

  tile_centers_.reserve(static_cast<std::size_t>(grid_.tile_count()));
  for (TileId id = 0; id < grid_.tile_count(); ++id) {
    tile_centers_.push_back(projection_->direction_from_uv(grid_.tile_center(id)));
  }
}

TileId TileGeometry::classify_equirect(const Vec3& d) const {
  // Directions within ~1e-12 of a tile edge defer to the generic chain: its
  // rounding there is not reproducible from sign tests alone (e.g. a |lat|
  // below half an ulp of 90.0 vanishes inside (90 - lat) / 180, flipping the
  // row), so the guard band keeps the two paths bit-identical everywhere.
  constexpr double kEdgeEps = 1e-12;

  // Row: count latitude boundaries at or above the direction. The generic
  // path re-normalizes inside lonlat_from_direction, so divide z the same
  // way before comparing.
  const double z = d.z / d.norm();
  int row = 0;
  for (const double s : row_sin_) {
    if (std::abs(z - s) < kEdgeEps) {
      return grid_.tile_at(projection_->uv_from_direction(d));
    }
    row += (z <= s) ? 1 : 0;
  }

  if (std::abs(d.y) <= kEdgeEps * (std::abs(d.x) + std::abs(d.y))) {
    // On or near the lon == 0 / ±180 half-split (this also covers the
    // degenerate x == y == 0 vertical, where atan2(±0, ±0) semantics pick
    // the seam column); defer to the generic chain rather than replicate it.
    return grid_.tile_at(projection_->uv_from_direction(d));
  }

  // Column: split on the sign of the longitude (the lon >= 0 test below
  // matches atan2's treatment of y == ±0), then count boundary meridians
  // passed via cross-product sign tests. Restricted to one half, every
  // test spans less than 180° of longitude, so the half-plane test is
  // exact; the tests are scale-invariant, so no normalization is needed.
  int col;
  const double xy_scale = std::abs(d.x) + std::abs(d.y);
  const bool lon_nonneg = d.y > 0.0;
  if (lon_nonneg) {
    col = col_base_;
    for (const auto& [c, s] : col_pos_) {
      const double cross = d.y * c - d.x * s;
      if (std::abs(cross) < kEdgeEps * xy_scale) {
        return grid_.tile_at(projection_->uv_from_direction(d));
      }
      col += (cross >= 0.0) ? 1 : 0;
    }
  } else {
    col = 0;
    for (const auto& [c, s] : col_neg_) {
      const double cross = d.y * c - d.x * s;
      if (std::abs(cross) < kEdgeEps * xy_scale) {
        return grid_.tile_at(projection_->uv_from_direction(d));
      }
      col += (cross >= 0.0) ? 1 : 0;
    }
  }
  return static_cast<TileId>(row * grid_.cols() + col);
}

TileId TileGeometry::classify(const Vec3& dir) const {
  return equirect_fast_ ? classify_equirect(dir)
                        : grid_.tile_at(projection_->uv_from_direction(dir));
}

std::vector<TileId> TileGeometry::visible_tiles(const Orientation& view,
                                                const Viewport& viewport) const {
  // sperke-analyze: shared(per-thread scratch; never escapes the call)
  thread_local Scratch scratch;
  std::vector<TileId> out;
  visible_tiles(view, viewport, out, scratch);
  return out;
}

void TileGeometry::visible_tiles(const Orientation& view, const Viewport& viewport,
                                 std::vector<TileId>& out, Scratch& scratch) const {
  // Exact-key memo hit: same geometry, same orientation bits, same
  // viewport. out receives a copy of the cached set (no allocation once
  // its capacity has grown past the FoV size).
  for (const Scratch::MemoEntry& entry : scratch.memo) {
    if (entry.geometry == instance_id_ && entry.view.yaw_deg == view.yaw_deg &&
        entry.view.pitch_deg == view.pitch_deg &&
        entry.view.roll_deg == view.roll_deg &&
        entry.viewport.width_deg == viewport.width_deg &&
        entry.viewport.height_deg == viewport.height_deg) {
      out.assign(entry.tiles.begin(), entry.tiles.end());
      return;
    }
  }
  const ViewBasis basis = view_basis(view.normalized());
  const double half_w = deg_to_rad(viewport.width_deg) / 2.0;
  const double half_h = deg_to_rad(viewport.height_deg) / 2.0;
  const double tan_w = std::tan(half_w);
  const double tan_h = std::tan(half_h);

  auto& seen = scratch.seen;
  seen.assign(static_cast<std::size_t>(grid_.tile_count()), 0);
  const int n = samples_per_axis_;  // >= 2, enforced by the constructor
  auto& up_terms = scratch.up_terms;
  up_terms.clear();
  for (int j = 0; j < n; ++j) {
    const double b = static_cast<double>(j) / (n - 1) * 2.0 - 1.0;
    up_terms.push_back(basis.up * (b * tan_h));
  }
  for (int i = 0; i < n; ++i) {
    const double a = static_cast<double>(i) / (n - 1) * 2.0 - 1.0;
    const Vec3 fr = basis.forward + basis.right * (a * tan_w);
    for (int j = 0; j < n; ++j) {
      const Vec3 dir = (fr + up_terms[static_cast<std::size_t>(j)]).normalized();
      seen[static_cast<std::size_t>(classify(dir))] = 1;
    }
  }
  out.clear();
  for (TileId id = 0; id < grid_.tile_count(); ++id) {
    if (seen[static_cast<std::size_t>(id)]) out.push_back(id);
  }
  Scratch::MemoEntry& entry = scratch.memo[scratch.memo_next];
  scratch.memo_next = (scratch.memo_next + 1) % Scratch::kMemoEntries;
  entry.geometry = instance_id_;
  entry.view = view;
  entry.viewport = viewport;
  entry.tiles.assign(out.begin(), out.end());
}

std::vector<double> TileGeometry::tile_distances_deg(const Orientation& view) const {
  std::vector<double> out;
  tile_distances_deg(view, out);
  return out;
}

void TileGeometry::tile_distances_deg(const Orientation& view,
                                      std::vector<double>& out) const {
  const Vec3 dir = view.direction();
  out.clear();
  out.reserve(tile_centers_.size());
  for (const Vec3& c : tile_centers_) {
    out.push_back(rad_to_deg(angle_between(dir, c)));
  }
}

std::vector<TileId> TileGeometry::tiles_by_distance(const Orientation& view) const {
  // sperke-analyze: shared(per-thread scratch; never escapes the call)
  thread_local Scratch scratch;
  std::vector<TileId> out;
  tiles_by_distance(view, out, scratch);
  return out;
}

void TileGeometry::tiles_by_distance(const Orientation& view,
                                     std::vector<TileId>& out,
                                     Scratch& scratch) const {
  const Vec3 dir = view.direction();
  auto& keys = scratch.keys;
  keys.clear();
  keys.reserve(tile_centers_.size());
  for (TileId id = 0; id < grid_.tile_count(); ++id) {
    keys.emplace_back(
        rad_to_deg(angle_between(dir, tile_centers_[static_cast<std::size_t>(id)])),
        id);
  }
  // Lexicographic (distance, id) — the id key pins equal-distance ties to
  // ascending TileId, so no stable sort (and no side-array lambda) needed.
  std::sort(keys.begin(), keys.end());
  out.clear();
  out.reserve(keys.size());
  for (const auto& [dist, id] : keys) out.push_back(id);
}

std::vector<int> TileGeometry::oos_rings(const std::vector<TileId>& visible) const {
  // sperke-analyze: shared(per-thread scratch; never escapes the call)
  thread_local Scratch scratch;
  std::vector<int> out;
  oos_rings(visible, out, scratch);
  return out;
}

void TileGeometry::oos_rings(const std::vector<TileId>& visible,
                             std::vector<int>& out, Scratch& scratch) const {
  out.assign(static_cast<std::size_t>(grid_.tile_count()), -1);
  auto& frontier = scratch.queue;
  frontier.clear();
  for (TileId id : visible) {
    if (!grid_.contains(id)) throw std::out_of_range("oos_rings: bad TileId");
    out[static_cast<std::size_t>(id)] = 0;
    frontier.push_back(id);
  }
  const int rows = grid_.rows();
  const int cols = grid_.cols();
  const auto relax = [&](TileId nb, int next_ring) {
    auto& r = out[static_cast<std::size_t>(nb)];
    if (r < 0) {
      r = next_ring;
      frontier.push_back(nb);
    }
  };
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const TileId cur = frontier[head];
    const int next_ring = out[static_cast<std::size_t>(cur)] + 1;
    // Inlined TileGrid::neighbors (same visit order) to keep the BFS free
    // of per-tile allocations.
    const int row = cur / cols;
    const int col = cur % cols;
    if (row > 0) relax(cur - cols, next_ring);
    if (row + 1 < rows) relax(cur + cols, next_ring);
    relax(static_cast<TileId>(row * cols + (col + cols - 1) % cols), next_ring);
    if (cols > 1) relax(static_cast<TileId>(row * cols + (col + 1) % cols), next_ring);
  }
  // Unreached tiles (possible only with an empty visible set) get a large ring.
  for (auto& r : out) {
    if (r < 0) r = grid_.tile_count();
  }
}

Vec3 TileGeometry::tile_center_direction(TileId id) const {
  if (!grid_.contains(id)) throw std::out_of_range("tile_center_direction: bad TileId");
  return tile_centers_[static_cast<std::size_t>(id)];
}

}  // namespace sperke::geo
