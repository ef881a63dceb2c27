#include "geo/visibility.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "util/math.h"

namespace sperke::geo {
namespace {

// Frustum samples per axis in visible_tiles.
constexpr int kSamplesPerAxis = 24;

// Solid-angle sample lattice: stratified in longitude and in sin(latitude)
// (equal-area bands), so each sample stands for the same solid angle.
constexpr int kLonSamples = 256;
constexpr int kLatSamples = 128;

double sample_lon_deg(int i) { return (i + 0.5) / kLonSamples * 360.0 - 180.0; }

double sample_lat_deg(int j) {
  const double z = (j + 0.5) / kLatSamples * 2.0 - 1.0;  // sin(lat)
  return rad_to_deg(std::asin(z));
}

// Per-axis sample coordinates closer than this to a tile boundary send the
// solid-angle table back to the per-sample loop. The loop's direction
// round trip moves a coordinate by a few ulps only, so any coordinate
// farther out lands in the same tile on both paths.
constexpr double kSampleEdgeEps = 1e-9;

bool near_boundary(double x, int tiles) {
  const double k = std::round(x * tiles);
  return std::abs(x - k / tiles) < kSampleEdgeEps;
}

}  // namespace

TileGeometry::TileGeometry(TileGrid grid) : grid_(grid) {
  // Tile edges are constant-lat/lon lines; precompute them for the
  // sign-test classifier (see classify).
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
  edge_planes_.emplace_back(1.0, 0.0);
  edge_planes_.insert(edge_planes_.end(), col_neg_.begin(), col_neg_.end());
  edge_planes_.insert(edge_planes_.end(), col_pos_.begin(), col_pos_.end());

  // Per-tile solid angle: the share of the sample lattice in each tile.
  solid_angle_.assign(static_cast<std::size_t>(grid_.tile_count()), 0.0);
  if (!count_samples()) {
    for (int i = 0; i < kLonSamples; ++i) {
      const double lon = sample_lon_deg(i);
      for (int j = 0; j < kLatSamples; ++j) {
        const Vec3 dir = direction_from_lonlat(lon, sample_lat_deg(j));
        const TileId id = grid_.tile_at(uv_from_direction(dir));
        solid_angle_[static_cast<std::size_t>(id)] += 1.0;
      }
    }
  }
  const double total = kLonSamples * static_cast<double>(kLatSamples);
  for (double& f : solid_angle_) f /= total;

  tile_centers_.reserve(static_cast<std::size_t>(grid_.tile_count()));
  for (TileId id = 0; id < grid_.tile_count(); ++id) {
    tile_centers_.push_back(direction_from_uv(grid_.tile_center(id)));
  }
}

bool TileGeometry::count_samples() {
  // A tile is a lon x lat box, so a sample's column depends on its
  // longitude only and its row on its latitude only: the per-tile sample
  // count is the product of per-axis counts (small integers, so the product
  // is exact), and no trig runs per sample pair.
  const int cols = grid_.cols();
  const int rows = grid_.rows();
  std::vector<double> per_col(static_cast<std::size_t>(cols), 0.0);
  std::vector<double> per_row(static_cast<std::size_t>(rows), 0.0);
  for (int i = 0; i < kLonSamples; ++i) {
    const double u = (sample_lon_deg(i) + 180.0) / 360.0;
    if (near_boundary(u, cols)) return false;
    per_col[static_cast<std::size_t>(grid_.tile_at({u, 0.0}))] += 1.0;  // row 0
  }
  for (int j = 0; j < kLatSamples; ++j) {
    const double v = (90.0 - sample_lat_deg(j)) / 180.0;
    if (near_boundary(v, rows)) return false;
    per_row[static_cast<std::size_t>(grid_.tile_at({0.0, v}) / cols)] += 1.0;
  }
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      solid_angle_[static_cast<std::size_t>(r * cols + c)] =
          per_row[static_cast<std::size_t>(r)] * per_col[static_cast<std::size_t>(c)];
    }
  }
  return true;
}

TileId TileGeometry::classify(const Vec3& d) const {
  // Directions within ~1e-12 of a tile edge defer to the generic chain
  // (uv_from_direction, then tile_at): its rounding there is not
  // reproducible from sign tests alone (e.g. a |lat| below half an ulp of
  // 90.0 vanishes inside (90 - lat) / 180, flipping the row), so the guard
  // band keeps the two paths bit-identical everywhere.
  constexpr double kEdgeEps = 1e-12;

  // Row: count latitude boundaries at or above the direction. The generic
  // path re-normalizes inside lonlat_from_direction, so divide z the same
  // way before comparing.
  const double z = d.z / d.norm();
  int row = 0;
  for (const double s : row_sin_) {
    if (std::abs(z - s) < kEdgeEps) {
      return grid_.tile_at(uv_from_direction(d));
    }
    row += (z <= s) ? 1 : 0;
  }

  if (std::abs(d.y) <= kEdgeEps * (std::abs(d.x) + std::abs(d.y))) {
    // On or near the lon == 0 / ±180 half-split (this also covers the
    // degenerate x == y == 0 vertical, where atan2(±0, ±0) semantics pick
    // the seam column); defer to the generic chain rather than replicate it.
    return grid_.tile_at(uv_from_direction(d));
  }

  // Column: split on the sign of the longitude (the lon >= 0 test below
  // matches atan2's treatment of y == ±0), then count boundary meridians
  // passed via cross-product sign tests. Restricted to one half, every
  // test spans less than 180° of longitude, so the half-plane test is
  // exact; the tests are scale-invariant, so no normalization is needed.
  const double xy_scale = std::abs(d.x) + std::abs(d.y);
  const bool lon_nonneg = d.y > 0.0;
  int col = lon_nonneg ? col_base_ : 0;
  for (const auto& [c, s] : lon_nonneg ? col_pos_ : col_neg_) {
    const double cross = d.y * c - d.x * s;
    if (std::abs(cross) < kEdgeEps * xy_scale) {
      return grid_.tile_at(uv_from_direction(d));
    }
    col += (cross >= 0.0) ? 1 : 0;
  }
  return static_cast<TileId>(row * grid_.cols() + col);
}

TileId TileGeometry::classify_clear(const Vec3& p) const {
  // classify's sign tests without its guard band, which a direction this
  // far from every edge never enters; p need not be unit length, so the
  // row test compares z against s·|p|.
  const double norm = p.norm();
  int row = 0;
  for (const double s : row_sin_) row += (p.z <= s * norm) ? 1 : 0;
  const bool lon_nonneg = p.y > 0.0;
  int col = lon_nonneg ? col_base_ : 0;
  for (const auto& [c, s] : lon_nonneg ? col_pos_ : col_neg_) {
    col += (p.y * c - p.x * s >= 0.0) ? 1 : 0;
  }
  return static_cast<TileId>(row * grid_.cols() + col);
}

std::vector<TileId> TileGeometry::visible_tiles(const Orientation& view,
                                                const Viewport& viewport) const {
  // sperke-analyze: shared(per-thread scratch; never escapes the call)
  thread_local Scratch scratch;
  std::vector<TileId> out;
  visible_tiles(view, viewport, out, scratch);
  return out;
}

namespace {

// Half-width of the window kept around each edge crossing, in units of the
// normalized edge function (sin(latitude) for a parallel, the unit-direction
// cross product for a meridian plane). Far above the classifier's 1e-12
// guard band and above rounding, so every sample outside a window is
// outside the guard band too, and its edge tests have the signs of its
// whole run.
constexpr double kCrossMargin = 1e-9;
// A column whose latitude extremum comes this close to a row boundary is
// classified sample by sample: near a double root the crossings cannot be
// bracketed reliably.
constexpr double kGrazeEps = 1e-6;
// Meridian slopes at or below this count as zero, which keeps 1/slope
// finite; such a plane's test is constant along a column to this order.
constexpr double kFlatSlope = 1e-300;

}  // namespace

bool TileGeometry::mark_crossings(const Vec3& fr, const Vec3& up_step,
                                  Scratch& scratch) const {
  // The column's samples are p(b) = fr + b·up_step at b_j = 2j/(n-1) - 1;
  // they lie on one great circle. Between edge crossings no edge test
  // changes sign, so a run of samples there lands in one tile. Set in
  // `near` every sample within a window of a crossing, and in `starts` the
  // first sample and the first after each window; the caller classifies
  // the former and sign-tests the latter. Bit n is a sink for crossings
  // past the last sample, so a crossing outside the column needs no branch.
  const int n = kSamplesPerAxis;
  auto& near = scratch.near;
  auto& starts = scratch.starts;
  near.assign(static_cast<std::size_t>(n / 64 + 1), 0);
  starts.assign(near.size(), 0);
  const auto set = [](std::vector<std::uint64_t>& bits, int j) {
    bits[static_cast<std::size_t>(j / 64)] |= std::uint64_t{1} << (j % 64);
  };
  set(starts, 0);
  const double half = 0.5 * (n - 1);
  const double last = n;
  const auto flag = [&](double center, double radius) {
    // Window [lo, hi] in sample-index units, clamped to [-1, n]; NaN
    // bounds widen to the whole column. Samples ceil(lo)..floor(hi) lie in
    // the window and floor(hi) + 1 starts the next run.
    double lo = (center - radius + 1.0) * half;
    double hi = (center + radius + 1.0) * half;
    lo = lo >= -1.0 ? std::min(lo, last) : -1.0;
    hi = hi <= last ? std::max(hi, -1.0) : last;
    const int lo_t = static_cast<int>(lo);  // truncation: ceil for lo <= 0
    const int hi_t = static_cast<int>(hi);
    const int j0 = std::max(lo_t + (lo_t < lo ? 1 : 0), 0);
    const int j1 = std::min(hi_t - (hi_t > hi ? 1 : 0) + 1, n);
    for (int j = j0; j < j1; ++j) set(near, j);
    set(starts, j1);
  };

  const double fz = fr.z;
  const double uz = up_step.z;
  const double f2 = fr.dot(fr);
  const double fu = fr.dot(up_step);
  const double u2 = up_step.dot(up_step);
  // Bound on |p(b)|² over the column; |p| >= 1 because fr has a unit
  // forward component orthogonal to up_step, so it also bounds |p|.
  const double reach2 = f2 + 2.0 * std::abs(fu) + u2;

  // Meridian planes the view crosses: the sign test p.y·c - p.x·s is
  // at0 + b·slope on this column; normalizing p divides it by |p| <= reach2.
  const double plane_margin = kCrossMargin * reach2;
  for (const Scratch::Plane& plane : scratch.planes) {
    const double at0 = fr.y * plane.c - fr.x * plane.s;
    if (plane.inv_slope == 0.0) {
      if (std::abs(at0) <= plane_margin) return false;  // the column lies on the plane
      continue;
    }
    flag(-at0 * plane.inv_slope, plane_margin * std::abs(plane.inv_slope));
  }

  // Latitude parallels: z/|p| = s. Every sin(latitude) the column reaches
  // lies between its end values and the one extremum of g(b) = z/|p| on the
  // column's half great circle, so a row sine outside that range plus the
  // margin has no window. A row sine near the extremum is a (near) double
  // root, which the root solve below cannot bracket reliably.
  double g_lo = (fz - uz) / std::sqrt(f2 - 2.0 * fu + u2);
  double g_hi = (fz + uz) / std::sqrt(f2 + 2.0 * fu + u2);
  if (g_lo > g_hi) std::swap(g_lo, g_hi);
  const double den = uz * fu - fz * u2;
  if (den != 0.0) {
    const double b_ext = (fz * fu - uz * f2) / den;
    const double z_ext =
        (fz + b_ext * uz) / std::sqrt(f2 + b_ext * (2.0 * fu + b_ext * u2));
    for (const double s : row_sin_) {
      if (std::abs(z_ext - s) < kGrazeEps) return false;
    }
    if (std::abs(b_ext) <= 1.0) {
      g_lo = std::min(g_lo, z_ext);
      g_hi = std::max(g_hi, z_ext);
    }
  }
  for (const double s : row_sin_) {
    if (s < g_lo - kCrossMargin || s > g_hi + kCrossMargin) continue;
    if (s == 0.0) {
      // z(b) = fz + b·uz; |z/|p|| <= margin needs |z| <= margin·reach2.
      if (uz == 0.0) return false;  // the column lies on the equator
      flag(-fz / uz, kCrossMargin * reach2 / std::abs(uz));
      continue;
    }
    // h(b) = z² - s²|p|² = qa·b² + 2·qb·b + qc, with roots qc/q and q/qa;
    // those with sign(z) == sign(s) are the crossings (the others solve
    // z/|p| = -s). Where |z/|p| - s| <= margin, |h| <= bound; the nearer
    // root of h is then within 2·bound/|h'(root)| = bound/sqrt(disc),
    // whatever qa is.
    const double s2 = s * s;
    const double qa = uz * uz - s2 * u2;
    const double qb = fz * uz - s2 * fu;
    const double qc = fz * fz - s2 * f2;
    const double disc = qb * qb - qa * qc;
    if (disc < 0.0) continue;
    const double root_disc = std::sqrt(disc);
    const double q = -(qb + std::copysign(root_disc, qb));
    if (q == 0.0) return false;  // a double root at b = 0
    // One division for qc/q, q/qa and bound/sqrt(disc). A zero factor
    // (qa == 0: h is linear; disc == 0) yields an infinite or NaN window,
    // which flag() sends past the column or widens to all of it; the sign
    // filter therefore drops only roots definitely on the wrong side.
    const double inv = 1.0 / (q * qa * root_disc);
    const double bound = kCrossMargin * (2.0 * std::abs(s) + kCrossMargin) * reach2;
    const double radius = bound * q * qa * inv;
    for (const double b0 : {qc * qa * root_disc * inv, q * q * root_disc * inv}) {
      const double z0 = fz + b0 * uz;
      if (!(s > 0.0 ? z0 <= 0.0 : z0 > 0.0)) flag(b0, radius);
    }
  }
  return true;
}

void TileGeometry::visible_tiles(const Orientation& view, const Viewport& viewport,
                                 std::vector<TileId>& out, Scratch& scratch) const {
  const ViewBasis basis = view_basis(view.normalized());
  const double half_w = deg_to_rad(viewport.width_deg) / 2.0;
  const double half_h = deg_to_rad(viewport.height_deg) / 2.0;
  const double tan_w = std::tan(half_w);
  const double tan_h = std::tan(half_h);

  auto& seen = scratch.seen;
  seen.assign(static_cast<std::size_t>(grid_.tile_count()), 0);
  const int n = kSamplesPerAxis;
  auto& up_terms = scratch.up_terms;
  up_terms.clear();
  for (int j = 0; j < n; ++j) {
    const double b = static_cast<double>(j) / (n - 1) * 2.0 - 1.0;
    up_terms.push_back(basis.up * (b * tan_h));
  }
  const Vec3 up_step = basis.up * tan_h;
  // A plane's sign test is linear over the frustum, c·p.y - s·p.x =
  // f0 + a·fa + b·fb for p = forward + a·right·tan_w + b·up·tan_h, so a
  // plane farther than |fa| + |fb| plus every column's margin from the
  // center crosses no column. reach_bound >= any column's reach2.
  const Vec3 right_step = basis.right * tan_w;
  const double reach_bound = 2.0 * (1.0 + tan_w * tan_w + tan_h * tan_h);
  scratch.planes.clear();
  for (const auto& [c, s] : edge_planes_) {
    const double f0 = basis.forward.y * c - basis.forward.x * s;
    const double fa = right_step.y * c - right_step.x * s;
    const double fb = up_step.y * c - up_step.x * s;
    if (std::abs(f0) > std::abs(fa) + std::abs(fb) + kCrossMargin * reach_bound) continue;
    scratch.planes.push_back({c, s, std::abs(fb) > kFlatSlope ? 1.0 / fb : 0.0});
  }
  const auto mark = [&](const Vec3& fr, int j) {
    const Vec3 dir = (fr + up_terms[static_cast<std::size_t>(j)]).normalized();
    seen[static_cast<std::size_t>(classify(dir))] = 1;
  };
  for (int i = 0; i < n; ++i) {
    const double a = static_cast<double>(i) / (n - 1) * 2.0 - 1.0;
    const Vec3 fr = basis.forward + basis.right * (a * tan_w);
    if (mark_crossings(fr, up_step, scratch)) {
      for (std::size_t w = 0; w < scratch.near.size(); ++w) {
        const auto base = static_cast<int>(w * 64);
        for (std::uint64_t bits = scratch.near[w]; bits != 0; bits &= bits - 1) {
          mark(fr, base + std::countr_zero(bits));
        }
        for (std::uint64_t bits = scratch.starts[w] & ~scratch.near[w]; bits != 0;
             bits &= bits - 1) {
          const int j = base + std::countr_zero(bits);
          if (j == n) break;  // the sink
          const Vec3 p = fr + up_terms[static_cast<std::size_t>(j)];
          seen[static_cast<std::size_t>(classify_clear(p))] = 1;
        }
      }
    } else {
      for (int j = 0; j < n; ++j) mark(fr, j);
    }
  }
  out.clear();
  for (TileId id = 0; id < grid_.tile_count(); ++id) {
    if (seen[static_cast<std::size_t>(id)]) out.push_back(id);
  }
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
