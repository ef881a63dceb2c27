#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "geo/orientation.h"
#include "geo/projection.h"
#include "geo/tile_grid.h"
#include "geo/visibility.h"
#include "util/math.h"
#include "util/rng.h"

namespace sperke::geo {
namespace {

TEST(Orientation, DirectionOfFront) {
  const Vec3 d = Orientation{0.0, 0.0, 0.0}.direction();
  EXPECT_NEAR(d.x, 1.0, 1e-12);
  EXPECT_NEAR(d.y, 0.0, 1e-12);
  EXPECT_NEAR(d.z, 0.0, 1e-12);
}

TEST(Orientation, DirectionOfPoles) {
  const Vec3 up = Orientation{0.0, 90.0, 0.0}.direction();
  EXPECT_NEAR(up.z, 1.0, 1e-12);
  const Vec3 down = Orientation{45.0, -90.0, 0.0}.direction();
  EXPECT_NEAR(down.z, -1.0, 1e-12);
}

TEST(Orientation, NormalizedWrapsYaw) {
  const Orientation o = Orientation{270.0, 100.0, 0.0}.normalized();
  EXPECT_DOUBLE_EQ(o.yaw_deg, -90.0);
  EXPECT_DOUBLE_EQ(o.pitch_deg, 90.0);
}

TEST(Orientation, LonLatRoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const double lon = rng.uniform(-180.0, 180.0);
    const double lat = rng.uniform(-89.0, 89.0);
    const LonLat ll = lonlat_from_direction(direction_from_lonlat(lon, lat));
    EXPECT_NEAR(ll.lon_deg, lon, 1e-9);
    EXPECT_NEAR(ll.lat_deg, lat, 1e-9);
  }
}

TEST(Orientation, AngularDistanceProperties) {
  const Orientation a{0.0, 0.0, 0.0};
  const Orientation b{90.0, 0.0, 0.0};
  const Orientation c{180.0, 0.0, 0.0};
  EXPECT_NEAR(angular_distance_deg(a, a), 0.0, 1e-9);
  EXPECT_NEAR(angular_distance_deg(a, b), 90.0, 1e-9);
  EXPECT_NEAR(angular_distance_deg(a, c), 180.0, 1e-9);
  EXPECT_NEAR(angular_distance_deg(a, b), angular_distance_deg(b, a), 1e-12);
}

TEST(Orientation, ViewBasisIsOrthonormal) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    const Orientation o{rng.uniform(-180.0, 180.0), rng.uniform(-85.0, 85.0),
                        rng.uniform(-180.0, 180.0)};
    const ViewBasis b = view_basis(o);
    EXPECT_NEAR(b.forward.norm(), 1.0, 1e-9);
    EXPECT_NEAR(b.right.norm(), 1.0, 1e-9);
    EXPECT_NEAR(b.up.norm(), 1.0, 1e-9);
    EXPECT_NEAR(b.forward.dot(b.right), 0.0, 1e-9);
    EXPECT_NEAR(b.forward.dot(b.up), 0.0, 1e-9);
    EXPECT_NEAR(b.right.dot(b.up), 0.0, 1e-9);
  }
}

TEST(Orientation, RollRotatesBasisNotDirection) {
  const Orientation flat{30.0, 10.0, 0.0};
  const Orientation rolled{30.0, 10.0, 45.0};
  const Vec3 d1 = flat.direction();
  const Vec3 d2 = rolled.direction();
  EXPECT_NEAR(angle_between(d1, d2), 0.0, 1e-12);
  const ViewBasis b1 = view_basis(flat);
  const ViewBasis b2 = view_basis(rolled);
  EXPECT_GT(angle_between(b1.up, b2.up), 0.1);
}

TEST(Projection, DirectionUvDirection) {
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const Vec3 dir =
        direction_from_lonlat(rng.uniform(-180.0, 180.0), rng.uniform(-88.0, 88.0));
    const Uv uv = uv_from_direction(dir);
    EXPECT_GE(uv.u, 0.0);
    EXPECT_LT(uv.u, 1.0);
    EXPECT_GE(uv.v, 0.0);
    EXPECT_LT(uv.v, 1.0);
    const Vec3 back = direction_from_uv(uv);
    EXPECT_NEAR(angle_between(dir, back), 0.0, 1e-6) << "lon/lat sample " << i;
  }
}

TEST(Projection, UvDirectionUvIsStable) {
  Rng rng(19);
  for (int i = 0; i < 300; ++i) {
    const Uv uv{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    const Vec3 dir = direction_from_uv(uv);
    const Uv uv2 = uv_from_direction(dir);
    const Vec3 dir2 = direction_from_uv(uv2);
    EXPECT_NEAR(angle_between(dir, dir2), 0.0, 1e-6);
  }
}

TEST(Projection, EquirectMapsFrontToCenter) {
  const Uv uv = uv_from_direction(Vec3{1.0, 0.0, 0.0});
  EXPECT_NEAR(uv.u, 0.5, 1e-12);
  EXPECT_NEAR(uv.v, 0.5, 1e-12);
}

TEST(TileGrid, BasicIndexing) {
  const TileGrid g(4, 6);
  EXPECT_EQ(g.tile_count(), 24);
  EXPECT_EQ(g.tile_id(0, 0), 0);
  EXPECT_EQ(g.tile_id(3, 5), 23);
  EXPECT_EQ(g.row_of(13), 2);
  EXPECT_EQ(g.col_of(13), 1);
}

TEST(TileGrid, RejectsBadDimsAndIds) {
  EXPECT_THROW(TileGrid(0, 4), std::invalid_argument);
  const TileGrid g(2, 2);
  EXPECT_THROW((void)g.tile_id(2, 0), std::out_of_range);
  EXPECT_THROW((void)g.row_of(4), std::out_of_range);
}

TEST(TileGrid, TileAtCoversPlane) {
  const TileGrid g(3, 5);
  EXPECT_EQ(g.tile_at({0.0, 0.0}), g.tile_id(0, 0));
  EXPECT_EQ(g.tile_at({0.999, 0.999}), g.tile_id(2, 4));
  EXPECT_EQ(g.tile_at({0.5, 0.5}), g.tile_id(1, 2));
}

TEST(TileGrid, CenterInvertsToSameTile) {
  const TileGrid g(4, 8);
  for (TileId id = 0; id < g.tile_count(); ++id) {
    EXPECT_EQ(g.tile_at(g.tile_center(id)), id);
  }
}

TEST(TileGrid, NeighborsWrapHorizontally) {
  const TileGrid g(2, 4);
  const auto nb = g.neighbors(g.tile_id(0, 0));
  EXPECT_NE(std::find(nb.begin(), nb.end(), g.tile_id(0, 3)), nb.end());
  EXPECT_NE(std::find(nb.begin(), nb.end(), g.tile_id(0, 1)), nb.end());
  EXPECT_NE(std::find(nb.begin(), nb.end(), g.tile_id(1, 0)), nb.end());
  // No vertical wrap: row -1 absent.
  EXPECT_EQ(nb.size(), 3u);
}

class TileGeometryTest : public ::testing::Test {
 protected:
  TileGeometry make(int rows = 4, int cols = 6) {
    return TileGeometry(TileGrid(rows, cols));
  }
};

TEST_F(TileGeometryTest, SolidAnglesSumToOne) {
  const auto tg = make();
  const auto& w = tg.solid_angle_fractions();
  const double sum = std::accumulate(w.begin(), w.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
  for (double f : w) EXPECT_GT(f, 0.0);
}

// The solid-angle table as first written: 256 x 128 directions, each
// classified through the projection. TileGeometry must reproduce it bit
// for bit however it computes the table.
std::vector<double> per_sample_solid_angles(const TileGrid& grid) {
  const int lon_samples = 256;
  const int lat_samples = 128;
  std::vector<double> out(static_cast<std::size_t>(grid.tile_count()), 0.0);
  for (int i = 0; i < lon_samples; ++i) {
    const double lon = (i + 0.5) / lon_samples * 360.0 - 180.0;
    for (int j = 0; j < lat_samples; ++j) {
      const double z = (j + 0.5) / lat_samples * 2.0 - 1.0;
      const double lat = rad_to_deg(std::asin(z));
      const TileId id =
          grid.tile_at(uv_from_direction(direction_from_lonlat(lon, lat)));
      out[static_cast<std::size_t>(id)] += 1.0;
    }
  }
  const double total = lon_samples * static_cast<double>(lat_samples);
  for (double& f : out) f /= total;
  return out;
}

void expect_bitwise_per_sample(int rows, int cols) {
  const TileGeometry tg{TileGrid(rows, cols)};
  const std::vector<double> want = per_sample_solid_angles(tg.grid());
  const std::vector<double>& got = tg.solid_angle_fractions();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)), 0)
      << rows << "x" << cols;
}

TEST_F(TileGeometryTest, SolidAnglesBitIdenticalToPerSampleLoop) {
  for (int rows = 1; rows <= 24; ++rows) {
    for (int cols = 1; cols <= 24; ++cols) {
      expect_bitwise_per_sample(rows, cols);
    }
  }
}

TEST_F(TileGeometryTest, SolidAnglesFallBackNearSampleOnBoundary) {
  // With 512 columns every longitude sample (2i + 1)/512 sits on a column
  // boundary, where the direction round trip's last ulps pick the column:
  // only the per-sample loop reproduces them.
  expect_bitwise_per_sample(1, 512);
  expect_bitwise_per_sample(4, 512);
}

TEST_F(TileGeometryTest, SolidAnglesPinned) {
  // Sample counts out of 256 x 128, captured from the per-sample loop.
  const auto expect_counts = [](const TileGeometry& tg, const std::vector<int>& counts) {
    const std::vector<double>& got = tg.solid_angle_fractions();
    ASSERT_EQ(got.size(), counts.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], counts[i] / 32768.0) << "tile " << i;
    }
  };
  expect_counts(make(4, 6),
                {817,  798,  817,  817,  798,  817,  1935, 1890, 1935, 1935, 1890, 1935,
                 1935, 1890, 1935, 1935, 1890, 1935, 817,  798,  817,  817,  798,  817});
  expect_counts(make(8, 12),
                {105, 110, 105, 105, 110, 105, 105, 110, 105, 105, 110, 105,
                 294, 308, 294, 294, 308, 294, 294, 308, 294, 294, 308, 294,
                 441, 462, 441, 441, 462, 441, 441, 462, 441, 441, 462, 441,
                 504, 528, 504, 504, 528, 504, 504, 528, 504, 504, 528, 504,
                 504, 528, 504, 504, 528, 504, 504, 528, 504, 504, 528, 504,
                 441, 462, 441, 441, 462, 441, 441, 462, 441, 441, 462, 441,
                 294, 308, 294, 294, 308, 294, 294, 308, 294, 294, 308, 294,
                 105, 110, 105, 105, 110, 105, 105, 110, 105, 105, 110, 105});
}

TEST_F(TileGeometryTest, EquirectPoleTilesHaveSmallerSolidAngle) {
  const auto tg = make(4, 6);
  const auto& w = tg.solid_angle_fractions();
  // Row 0 (top/pole) tiles cover less sphere than row 1/2 (equator) tiles.
  EXPECT_LT(w[static_cast<std::size_t>(tg.grid().tile_id(0, 0))],
            w[static_cast<std::size_t>(tg.grid().tile_id(1, 0))]);
}

TEST_F(TileGeometryTest, VisibleTilesContainCenterTile) {
  const auto tg = make();
  const Viewport vp{100.0, 90.0};
  Rng rng(23);
  for (int i = 0; i < 50; ++i) {
    const Orientation o{rng.uniform(-180.0, 180.0), rng.uniform(-60.0, 60.0), 0.0};
    const auto visible = tg.visible_tiles(o, vp);
    const TileId center =
        tg.grid().tile_at(uv_from_direction(o.direction()));
    EXPECT_NE(std::find(visible.begin(), visible.end(), center), visible.end());
  }
}

TEST_F(TileGeometryTest, VisibleSetIsProperSubsetForNarrowFov) {
  const auto tg = make();
  const auto visible = tg.visible_tiles({0.0, 0.0, 0.0}, Viewport{90.0, 90.0});
  EXPECT_GT(visible.size(), 0u);
  EXPECT_LT(static_cast<int>(visible.size()), tg.grid().tile_count());
}

TEST_F(TileGeometryTest, WiderFovSeesAtLeastAsManyTiles) {
  const auto tg = make();
  const Orientation o{20.0, 10.0, 0.0};
  const auto narrow = tg.visible_tiles(o, Viewport{60.0, 60.0});
  const auto wide = tg.visible_tiles(o, Viewport{120.0, 100.0});
  EXPECT_GE(wide.size(), narrow.size());
  for (TileId id : narrow) {
    EXPECT_NE(std::find(wide.begin(), wide.end(), id), wide.end());
  }
}

TEST_F(TileGeometryTest, TileDistancesMatchCenters) {
  const auto tg = make();
  const Orientation o{0.0, 0.0, 0.0};
  const auto dist = tg.tile_distances_deg(o);
  ASSERT_EQ(static_cast<int>(dist.size()), tg.grid().tile_count());
  for (TileId id = 0; id < tg.grid().tile_count(); ++id) {
    const double expect =
        rad_to_deg(angle_between(o.direction(), tg.tile_center_direction(id)));
    EXPECT_NEAR(dist[static_cast<std::size_t>(id)], expect, 1e-9);
  }
}

TEST_F(TileGeometryTest, OosRingsZeroOnVisibleMonotoneOutward) {
  const auto tg = make();
  const auto visible = tg.visible_tiles({0.0, 0.0, 0.0}, Viewport{100.0, 90.0});
  const auto rings = tg.oos_rings(visible);
  for (TileId id : visible) EXPECT_EQ(rings[static_cast<std::size_t>(id)], 0);
  // Every non-visible tile has ring >= 1 and a neighbor with ring - 1.
  for (TileId id = 0; id < tg.grid().tile_count(); ++id) {
    const int r = rings[static_cast<std::size_t>(id)];
    if (r == 0) continue;
    EXPECT_GE(r, 1);
    bool has_closer = false;
    for (TileId nb : tg.grid().neighbors(id)) {
      if (rings[static_cast<std::size_t>(nb)] == r - 1) has_closer = true;
    }
    EXPECT_TRUE(has_closer) << "tile " << id << " ring " << r;
  }
}

TEST_F(TileGeometryTest, OosRingsEmptyVisibleAllUnreached) {
  const auto tg = make();
  const auto rings = tg.oos_rings({});
  for (int r : rings) EXPECT_EQ(r, tg.grid().tile_count());
}

TEST_F(TileGeometryTest, FullSphereFovSeesManyTiles) {
  // A very wide viewport on a coarse grid should cover most of the sphere.
  const auto tg = make(2, 4);
  const auto visible = tg.visible_tiles({0.0, 0.0, 0.0}, Viewport{170.0, 170.0});
  EXPECT_GE(static_cast<int>(visible.size()), 4);
}

}  // namespace
}  // namespace sperke::geo
