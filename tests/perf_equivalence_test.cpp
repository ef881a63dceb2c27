// Equivalence oracles for the DESIGN.md §8 hot-path optimizations. Each
// accelerated kernel (equirect sign-test classifier, fused fusion pass,
// keyed distance sort, scratch-buffer planning) is pinned against a naive
// reference built from the same primitive expressions the
// pre-optimization code evaluated — and the match must be *exact*, not
// approximate, because seeded simulations diff their exports byte-for-byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <tuple>
#include <utility>
#include <vector>

#include "abr/sperke_vra.h"
#include "geo/orientation.h"
#include "geo/visibility.h"
#include "hmp/fusion.h"
#include "hmp/head_trace.h"
#include "hmp/heatmap.h"
#include "media/video_model.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "util/math.h"

namespace sperke {
namespace {

// Frustum samples per axis; keep in sync with geo/visibility.cpp.
constexpr int kSamplesPerAxis = 24;

std::shared_ptr<geo::TileGeometry> equirect_geometry(int rows, int cols) {
  return std::make_shared<geo::TileGeometry>(geo::TileGrid(rows, cols));
}

// The pre-optimization visible_tiles: every frustum sample goes through the
// full uv_from_direction -> tile_at chain, with the direction built by the
// same left-associated expression the production loop hoists.
std::vector<geo::TileId> naive_visible_tiles(const geo::TileGeometry& geometry,
                                             const geo::Orientation& view,
                                             const geo::Viewport& viewport) {
  const geo::ViewBasis basis = geo::view_basis(view.normalized());
  const double half_w = deg_to_rad(viewport.width_deg) / 2.0;
  const double half_h = deg_to_rad(viewport.height_deg) / 2.0;
  const double tan_w = std::tan(half_w);
  const double tan_h = std::tan(half_h);
  std::vector<char> seen(static_cast<std::size_t>(geometry.grid().tile_count()), 0);
  const int n = kSamplesPerAxis;
  for (int i = 0; i < n; ++i) {
    const double a = static_cast<double>(i) / (n - 1) * 2.0 - 1.0;
    for (int j = 0; j < n; ++j) {
      const double b = static_cast<double>(j) / (n - 1) * 2.0 - 1.0;
      const geo::Vec3 dir = (basis.forward + basis.right * (a * tan_w) +
                             basis.up * (b * tan_h))
                                .normalized();
      const geo::TileId id =
          geometry.grid().tile_at(geo::uv_from_direction(dir));
      seen[static_cast<std::size_t>(id)] = 1;
    }
  }
  std::vector<geo::TileId> out;
  for (geo::TileId id = 0; id < geometry.grid().tile_count(); ++id) {
    if (seen[static_cast<std::size_t>(id)]) out.push_back(id);
  }
  return out;
}

TEST(VisibleTilesEquivalence, FastClassifierMatchesNaiveRandomized) {
  const geo::Viewport viewport{100.0, 90.0};
  std::mt19937 rng(1234);
  std::uniform_real_distribution<double> yaw(-360.0, 360.0);
  std::uniform_real_distribution<double> pitch(-90.0, 90.0);
  std::uniform_real_distribution<double> roll(-30.0, 30.0);
  for (const auto& [rows, cols] : {std::pair{4, 6}, {8, 12}, {5, 7}, {1, 1}}) {
    const auto geometry = equirect_geometry(rows, cols);
    for (int trial = 0; trial < 200; ++trial) {
      const geo::Orientation view{yaw(rng), pitch(rng),
                                  trial % 3 == 0 ? roll(rng) : 0.0};
      EXPECT_EQ(geometry->visible_tiles(view, viewport),
                naive_visible_tiles(*geometry, view, viewport))
          << "rows=" << rows << " cols=" << cols << " yaw=" << view.yaw_deg
          << " pitch=" << view.pitch_deg << " roll=" << view.roll_deg;
    }
  }
}

TEST(VisibleTilesEquivalence, FastClassifierMatchesNaiveAtEdges) {
  const geo::Viewport viewport{100.0, 90.0};
  const auto geometry = equirect_geometry(4, 6);
  // Poles (degenerate x==y==0 samples), the seam, and exact tile-boundary
  // meridians/parallels — where a one-ulp classifier disagreement would
  // show up first.
  const std::vector<geo::Orientation> edges = {
      {0.0, 90.0, 0.0},    {0.0, -90.0, 0.0},  {180.0, 0.0, 0.0},
      {-180.0, 0.0, 0.0},  {0.0, 0.0, 0.0},    {60.0, 45.0, 0.0},
      {-60.0, -45.0, 0.0}, {120.0, 45.0, 0.0}, {90.0, 89.9, 15.0},
      {-90.0, -89.9, -15.0}, {30.0, 0.0, 0.0}, {0.0, 45.0, 0.0},
  };
  for (const auto& view : edges) {
    EXPECT_EQ(geometry->visible_tiles(view, viewport),
              naive_visible_tiles(*geometry, view, viewport))
        << "yaw=" << view.yaw_deg << " pitch=" << view.pitch_deg;
  }
}

TEST(VisibleTilesEquivalence, OutParamMatchesAllocatingAcrossReuse) {
  const geo::Viewport viewport{100.0, 90.0};
  const auto geometry = equirect_geometry(8, 12);
  geo::TileGeometry::Scratch scratch;
  std::vector<geo::TileId> out;
  for (int trial = 0; trial < 50; ++trial) {
    const geo::Orientation view{trial * 17.3, trial * 1.7 - 40.0, 0.0};
    geometry->visible_tiles(view, viewport, out, scratch);
    EXPECT_EQ(out, geometry->visible_tiles(view, viewport));
  }
}

// Property test for the crossing-window kernel: visible_tiles classifies
// only the samples next to an edge crossing plus one per run between
// crossings, so it must agree with the per-sample reference on random
// (view, viewport, grid) triples. A quarter of the draws pin the view to a
// pole, the ±180° seam, an exact boundary meridian or an exact boundary
// parallel, with roll 0 and a whole-ten viewport, where crossings sit
// exactly on samples.
class VisibleTilesProperty : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(VisibleTilesProperty, CrossingKernelMatchesNaive) {
  const auto [rows, cols] = GetParam();
  const auto geometry = equirect_geometry(rows, cols);
  constexpr int kDraws = 30000;  // x 7 grids = 210 000 triples
  std::mt19937_64 rng(static_cast<std::uint64_t>(rows * 1000 + cols));
  std::uniform_real_distribution<double> fov(20.0, 170.0);
  std::uniform_real_distribution<double> yaw(-180.0, 180.0);
  std::uniform_real_distribution<double> pitch(-90.0, 90.0);
  std::uniform_real_distribution<double> roll(-180.0, 180.0);
  std::uniform_int_distribution<int> sign(0, 1);
  std::uniform_int_distribution<int> col_edge(0, cols);
  std::uniform_int_distribution<int> row_edge(0, rows);
  geo::TileGeometry::Scratch scratch;
  std::vector<geo::TileId> out;
  int mismatches = 0;
  for (int d = 0; d < kDraws; ++d) {
    geo::Viewport viewport{fov(rng), fov(rng)};
    geo::Orientation view{yaw(rng), pitch(rng), d % 3 == 0 ? roll(rng) : 0.0};
    if (d % 4 == 1) {
      // Whole-ten viewports put the frustum's edge columns on boundaries too.
      viewport = {10.0 * std::round(viewport.width_deg / 10.0),
                  10.0 * std::round(viewport.height_deg / 10.0)};
      view.roll_deg = 0.0;
      switch ((d / 4) % 4) {
        case 0: view.pitch_deg = sign(rng) ? 90.0 : -90.0; break;
        case 1: view.yaw_deg = sign(rng) ? 180.0 : -180.0; break;
        case 2: view.yaw_deg = 360.0 * col_edge(rng) / cols - 180.0; break;
        default: view.pitch_deg = 90.0 - 180.0 * row_edge(rng) / rows; break;
      }
    }
    geometry->visible_tiles(view, viewport, out, scratch);
    if (out != naive_visible_tiles(*geometry, view, viewport) && ++mismatches <= 5) {
      ADD_FAILURE() << "rows=" << rows << " cols=" << cols << " yaw=" << view.yaw_deg
                    << " pitch=" << view.pitch_deg << " roll=" << view.roll_deg
                    << " viewport=" << viewport.width_deg << "x" << viewport.height_deg;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Grids, VisibleTilesProperty,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 2},
                                           std::pair{2, 2}, std::pair{3, 5},
                                           std::pair{4, 6}, std::pair{8, 12},
                                           std::pair{16, 24}));

// Columns that graze an edge fall back to classifying every sample. Three
// constructions, each of which breaks equivalence when its guard is removed
// from the kernel:
//   * roll 0: the great circle of column 0 (and 23) peaks on the first row
//     boundary (45° on 4 rows, 54° on 5), exactly at a sample, with the
//     pitch swept over ±40 ulps so the peak sample straddles the parallel;
//   * roll ±90: column 0 lies in the equator plane;
//   * pitch 0, roll 0: the outer columns lie in boundary meridian planes,
//     the ±180° seam included.
TEST(VisibleTilesEquivalence, GrazingColumnsMatchNaive) {
  std::vector<std::pair<geo::Orientation, geo::Viewport>> cases;
  int mismatches = 0;
  const auto check = [&](const geo::TileGeometry& geometry) {
    for (const auto& [view, viewport] : cases) {
      if (geometry.visible_tiles(view, viewport) !=
              naive_visible_tiles(geometry, view, viewport) &&
          ++mismatches <= 5) {
        ADD_FAILURE() << "rows=" << geometry.grid().rows() << " yaw=" << view.yaw_deg
                      << " pitch=" << view.pitch_deg << " roll=" << view.roll_deg
                      << " viewport=" << viewport.width_deg << "x" << viewport.height_deg;
      }
    }
    cases.clear();
  };
  // Column a = -1 has t = -tan(w/2); with forward at pitch p its great
  // circle peaks at sin²(lat) = 1 - t²·sin²p / (1 + t²), reached at
  // b = cos p·(1 + t²) / (sin p·tan(h/2)).
  for (const int rows : {4, 5}) {
    const double s2 = std::pow(std::sin(deg_to_rad(90.0 - 180.0 / rows)), 2.0);
    for (const double width : {100.0, 120.0, 140.0}) {
      const double t2 = std::pow(std::tan(deg_to_rad(width / 2.0)), 2.0);
      const double sp = std::sqrt((1.0 - s2) * (1.0 + t2) / t2);
      const double cp = std::sqrt(1.0 - sp * sp);
      for (int peak = kSamplesPerAxis / 2; peak < kSamplesPerAxis; ++peak) {
        const double b_peak = static_cast<double>(peak) / (kSamplesPerAxis - 1) * 2.0 - 1.0;
        const double height = 2.0 * rad_to_deg(std::atan(cp * (1.0 + t2) / (sp * b_peak)));
        if (height > 170.0) continue;
        double pitch = rad_to_deg(std::asin(sp));
        for (int ulp = 0; ulp < 40; ++ulp) pitch = std::nextafter(pitch, 0.0);
        for (int ulp = 0; ulp < 80; ++ulp, pitch = std::nextafter(pitch, 90.0)) {
          cases.push_back({{17.0, pitch, 0.0}, {width, height}});
          cases.push_back({{17.0, -pitch, 0.0}, {width, height}});
        }
      }
    }
    check(*equirect_geometry(rows, 6));
  }
  for (const double dp : {0.0, 1e-12, -1e-12, 1e-9, 1e-6, -1e-6, 1e-4}) {
    for (const double yaw : {0.0, 33.0, -150.0}) {
      cases.push_back({{yaw, 45.0 + dp, 90.0}, {90.0, 100.0}});
      cases.push_back({{yaw, -45.0 + dp, -90.0}, {90.0, 100.0}});
    }
  }
  for (int k = 0; k <= 6; ++k) {
    for (const double offset : {0.0, 50.0, -50.0, 60.0, -60.0}) {
      for (const double width : {100.0, 120.0}) {
        for (const double height : {30.0, 90.0, 140.0}) {
          for (const double pitch : {0.0, -0.0}) {
            cases.push_back({{60.0 * k - 180.0 + offset, pitch, 0.0}, {width, height}});
          }
        }
      }
    }
  }
  check(*equirect_geometry(4, 6));
  EXPECT_EQ(mismatches, 0);
}

// The pre-optimization FusionPredictor::tile_probabilities: four separate
// full-grid passes (blend, floor, prune, renormalize) built from the public
// surface of the predictor. Must match the fused single pass bit-for-bit.
std::vector<double> naive_tile_probabilities(
    const hmp::FusionPredictor& fusion, const geo::TileGeometry& geometry,
    const hmp::ViewingHeatmap* crowd,
    const std::optional<hmp::HeadSample>& last_sample, sim::Duration horizon,
    media::ChunkIndex chunk) {
  const geo::Viewport& viewport = fusion.viewport();
  const hmp::ViewingContext& context = fusion.context();
  const hmp::FusionConfig& config = fusion.config();
  const int n = geometry.grid().tile_count();
  const double h = std::max(sim::to_seconds(horizon), 0.0);

  const geo::Orientation predicted = fusion.predict_orientation(horizon);
  const double engagement = std::clamp(context.engagement, 0.0, 1.0);
  const double sigma = config.sigma_base_deg +
                       config.sigma_growth_dps * (1.5 - engagement) * h;
  const double fov_radius =
      std::min(viewport.width_deg, viewport.height_deg) / 2.0;
  const auto dist = geometry.tile_distances_deg(predicted);
  std::vector<double> motion(static_cast<std::size_t>(n));
  double motion_total = 0.0;
  for (int i = 0; i < n; ++i) {
    const double excess =
        std::max(0.0, dist[static_cast<std::size_t>(i)] - fov_radius);
    motion[static_cast<std::size_t>(i)] =
        std::exp(-(excess * excess) / (2.0 * sigma * sigma));
    motion_total += motion[static_cast<std::size_t>(i)];
  }

  const bool have_crowd = crowd != nullptr && crowd->total(chunk) > 0.0;
  std::vector<double> crowd_prob;
  if (have_crowd) crowd_prob = crowd->probabilities(chunk);

  const double w_motion_raw = std::exp(
      -std::max(0.0, h - config.motion_grace_s) / config.motion_tau_s);
  const double w_motion = have_crowd ? w_motion_raw : 1.0;
  const double w_crowd = 1.0 - w_motion;
  const double uniform = 1.0 / static_cast<double>(n);

  std::vector<double> prob(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(i);
    prob[s] = w_motion * (motion[s] / motion_total);
    if (have_crowd) prob[s] += w_crowd * crowd_prob[s];
  }
  for (double& p : prob) p = (1.0 - config.uniform_floor) * p +
                             config.uniform_floor * uniform;

  if (last_sample.has_value()) {
    if (context.max_speed_dps.has_value()) {
      const double fov_diag =
          std::hypot(viewport.width_deg, viewport.height_deg) / 2.0;
      const double reach = *context.max_speed_dps * h + fov_diag;
      const auto cur_dist =
          geometry.tile_distances_deg(last_sample->orientation);
      for (int i = 0; i < n; ++i) {
        if (cur_dist[static_cast<std::size_t>(i)] > reach) {
          prob[static_cast<std::size_t>(i)] = 0.0;
        }
      }
    }
    if (context.pose.has_value()) {
      const double band = hmp::pose_yaw_half_range_deg(*context.pose) +
                          viewport.width_deg / 2.0;
      for (int i = 0; i < n; ++i) {
        const double lon =
            geo::lonlat_from_direction(geometry.tile_center_direction(i)).lon_deg;
        if (std::abs(angle_diff_deg(lon, context.home_yaw_deg)) > band) {
          prob[static_cast<std::size_t>(i)] = 0.0;
        }
      }
    }
  }

  double total = 0.0;
  for (int i = 0; i < n; ++i) total += prob[static_cast<std::size_t>(i)];
  if (total <= 0.0) {
    std::fill(prob.begin(), prob.end(), uniform);
  } else {
    for (double& p : prob) p /= total;
  }
  return prob;
}

void expect_exact_equal(const std::vector<double>& got,
                        const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Exact: the fused pass applies the identical operation sequence.
    EXPECT_EQ(got[i], want[i]) << what << " tile " << i;
  }
}

TEST(FusionEquivalence, FusedPassMatchesNaiveRandomized) {
  const auto geometry = equirect_geometry(4, 6);
  std::mt19937 rng(777);
  std::uniform_real_distribution<double> yaw(-180.0, 180.0);
  std::uniform_real_distribution<double> pitch(-60.0, 60.0);

  hmp::ViewingHeatmap crowd(geometry->grid().tile_count(), 10);
  std::vector<geo::TileId> viewed{0, 1, 2, 7, 8};
  for (media::ChunkIndex c = 0; c < 10; c += 2) crowd.add_view(c, viewed);

  const std::vector<hmp::ViewingContext> contexts = {
      {},
      {.pose = hmp::Pose::kSitting,
       .max_speed_dps = {},
       .home_yaw_deg = 30.0,
       .engagement = 0.9},
      {.pose = {}, .max_speed_dps = 120.0, .home_yaw_deg = 0.0,
       .engagement = 0.2},
      {.pose = hmp::Pose::kLying,
       .max_speed_dps = 60.0,
       .home_yaw_deg = -45.0,
       .engagement = 0.5},
  };
  for (const auto& context : contexts) {
    for (const hmp::ViewingHeatmap* crowd_ptr :
         {static_cast<const hmp::ViewingHeatmap*>(nullptr),
          static_cast<const hmp::ViewingHeatmap*>(&crowd)}) {
      hmp::FusionPredictor fusion(
          geometry, {100.0, 90.0},
          hmp::make_orientation_predictor("linear-regression"), crowd_ptr,
          context);
      std::optional<hmp::HeadSample> last;
      for (int k = 0; k < 20; ++k) {
        const hmp::HeadSample sample{sim::milliseconds(40 * k),
                                     {yaw(rng), pitch(rng), 0.0}};
        fusion.observe(sample);
        last = sample;
        if (k % 5 != 0) continue;
        for (const auto horizon :
             {sim::milliseconds(200), sim::seconds(1), sim::seconds(4)}) {
          const media::ChunkIndex chunk = k % 10;
          const auto naive = naive_tile_probabilities(
              fusion, *geometry, crowd_ptr, last, horizon, chunk);
          // Queries keep no state between calls, so a repeated query must
          // reproduce the same values exactly.
          expect_exact_equal(fusion.tile_probabilities(horizon, chunk), naive,
                             "first");
          expect_exact_equal(fusion.tile_probabilities(horizon, chunk), naive,
                             "repeated");
        }
      }
    }
  }
}

TEST(FusionEquivalence, CrowdMemoInvalidatesOnHeatmapMutation) {
  const auto geometry = equirect_geometry(4, 6);
  hmp::ViewingHeatmap crowd(geometry->grid().tile_count(), 4);
  std::vector<geo::TileId> viewed{3, 4, 5};
  crowd.add_view(1, viewed);
  hmp::FusionPredictor fusion(
      geometry, {100.0, 90.0},
      hmp::make_orientation_predictor("linear-regression"), &crowd, {});
  std::optional<hmp::HeadSample> last;
  for (int k = 0; k < 5; ++k) {
    const hmp::HeadSample sample{sim::milliseconds(40 * k),
                                 {k * 10.0, 0.0, 0.0}};
    fusion.observe(sample);
    last = sample;
  }
  const auto horizon = sim::seconds(2);
  expect_exact_equal(
      fusion.tile_probabilities(horizon, 1),
      naive_tile_probabilities(fusion, *geometry, &crowd, last, horizon, 1),
      "before mutation");
  // Mutate the heatmap between queries; the next query must read the new
  // counts.
  std::vector<geo::TileId> more{10, 11};
  crowd.add_view(1, more);
  expect_exact_equal(
      fusion.tile_probabilities(horizon, 1),
      naive_tile_probabilities(fusion, *geometry, &crowd, last, horizon, 1),
      "after mutation");
}

TEST(HeatmapEquivalence, IncrementalTotalsMatchRecomputedSums) {
  hmp::ViewingHeatmap heatmap(24, 6);
  hmp::ViewingHeatmap pooled(24, 6);  // every view recorded twice
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> chunk_of(0, 5);
  std::uniform_int_distribution<int> tile_of(0, 23);
  for (int k = 0; k < 100; ++k) {
    std::vector<geo::TileId> view;
    for (int t = 0; t < 1 + k % 7; ++t) view.push_back(tile_of(rng));
    const media::ChunkIndex chunk = chunk_of(rng);
    heatmap.add_view(chunk, view);
    pooled.add_view(chunk, view);
    pooled.add_view(chunk, view);
  }
  for (media::ChunkIndex c = 0; c < 6; ++c) {
    double sum = 0.0;
    for (geo::TileId t = 0; t < 24; ++t) sum += heatmap.count(c, t);
    EXPECT_EQ(heatmap.total(c), sum);
    EXPECT_EQ(pooled.total(c), 2.0 * sum);
  }
}

TEST(LinkEquivalence, ActiveTransferCounterTracksWarmupChurnAndCancel) {
  sim::Simulator simulator;
  net::Link link(simulator,
                 net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(8'000.0),
                                 .rtt = sim::milliseconds(20), .faults = {}});
  int completions = 0;
  const auto count_completed = [&](const net::TransferResult& r) {
    if (r.completed()) ++completions;
  };
  const auto id1 = link.fetch({.id = {}, .bytes = 100'000}, count_completed);
  const auto id2 = link.fetch({.id = {}, .bytes = 200'000}, count_completed);
  link.fetch({.id = {}, .bytes = 50'000}, count_completed);
  EXPECT_EQ(link.active_transfers(), 0);  // all in RTT warmup
  simulator.run_until(sim::milliseconds(25));
  EXPECT_EQ(link.active_transfers(), 3);
  EXPECT_TRUE(link.cancel(id2));
  EXPECT_EQ(link.active_transfers(), 2);
  EXPECT_FALSE(link.cancel(id2));
  simulator.run_until(sim::seconds(600.0));
  EXPECT_EQ(link.active_transfers(), 0);
  EXPECT_EQ(completions, 2);
  EXPECT_EQ(link.transfer_rate_kbps(id1), 0.0);  // finished: no longer rated
}

TEST(LinkEquivalence, ChurnIsDeterministicAcrossRuns) {
  const auto run = [] {
    sim::Simulator simulator;
    net::Link link(simulator,
                   net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(40'000.0),
                                   .rtt = sim::milliseconds(10),
                                   .loss_rate = 0.01, .faults = {}});
    std::vector<std::int64_t> completion_ticks;
    for (int i = 0; i < 24; ++i) {
      simulator.schedule_at(sim::milliseconds(i * 7), [&link, &completion_ticks] {
        link.fetch(
            {.id = {}, .bytes = 60'000},
            [&link, &completion_ticks](const net::TransferResult& r) {
              completion_ticks.push_back(r.time.count());
              link.fetch(
                  {.id = {}, .bytes = 30'000},
                  [&completion_ticks](const net::TransferResult& r2) {
                    completion_ticks.push_back(r2.time.count());
                  });
            });
      });
    }
    simulator.run_until(sim::seconds(5.0));
    completion_ticks.push_back(link.bytes_delivered());
    return completion_ticks;
  };
  EXPECT_EQ(run(), run());
}

TEST(LinkEquivalence, SettleTimelineIsPinned) {
  // One seeded link through every way a transfer can settle: weighted
  // sharing under a Mathis cap and a stepped trace, an outage that fails
  // warmup and active transfers alike, a handshake into the dead link, a
  // capacity collapse, an RTT spike, seeded mid-flight failures, a cancel
  // in warmup, a cancel of an active transfer and a completion callback
  // that starts a new transfer. Every settle is pinned in firing order, so
  // a change that reorders the table (consistently across runs) shows.
  sim::Simulator simulator;
  net::FaultPlan faults;
  faults.outages.push_back({.start_s = 0.6, .duration_s = 0.1});
  faults.capacity_collapses.push_back(
      {.start_s = 1.0, .duration_s = 0.3, .factor = 0.25});
  faults.rtt_spikes.push_back({.start_s = 1.5, .duration_s = 0.4, .factor = 3.0});
  faults.transfer_failure_prob = 0.3;
  faults.seed = 7;
  net::Link link(
      simulator,
      net::LinkConfig{.bandwidth = net::BandwidthTrace::steps(
                          {{0.0, 20'000.0}, {0.4, 35'000.0}, {1.2, 12'000.0}}),
                      .rtt = sim::milliseconds(30),
                      .loss_rate = 0.001,
                      .faults = std::move(faults)});
  using Settle = std::tuple<net::FetchId, int, std::int64_t, std::int64_t>;
  std::vector<Settle> settles;
  std::function<net::FetchId(std::int64_t, double, bool)> start;
  start = [&](std::int64_t bytes, double weight, bool chain) {
    auto id = std::make_shared<net::FetchId>(0);
    *id = link.fetch(
        {.id = {}, .bytes = bytes, .weight = weight},
        [&, id, chain](const net::TransferResult& r) {
          settles.emplace_back(*id, static_cast<int>(r.status), r.time.count(),
                               r.bytes_delivered);
          if (chain) start(90'000, 2.0, false);
        });
    return *id;
  };
  const auto at = [&](double t_s, std::function<void()> action) {
    simulator.schedule_at(sim::seconds(t_s), std::move(action));
  };
  at(0.0, [&] {
    start(300'000, 1.0, true);
    start(500'000, 2.0, false);
    start(200'000, 4.0, true);
    start(700'000, 1.0, false);
  });
  at(0.45, [&] { start(800'000, 1.0, false); });  // active at 0.6
  at(0.5, [&] { start(600'000, 2.0, false); });   // active at 0.6
  at(0.58, [&] { start(400'000, 1.0, false); });  // still in warmup at 0.6
  at(0.65, [&] { start(100'000, 1.0, false); });  // handshake into the outage
  net::FetchId warm_cancel = 0;
  net::FetchId active_cancel = 0;
  at(0.8, [&] {
    start(250'000, 1.0, true);
    warm_cancel = start(600'000, 2.0, false);
    active_cancel = start(900'000, 1.0, false);
    start(350'000, 4.0, false);
  });
  at(0.81, [&] { EXPECT_TRUE(link.cancel(warm_cancel)); });
  at(0.9, [&] { EXPECT_TRUE(link.cancel(active_cancel)); });
  at(1.1, [&] {
    start(450'000, 1.0, true);
    start(150'000, 2.0, false);
  });
  at(1.6, [&] {
    start(500'000, 1.0, false);
    start(80'000, 4.0, true);
  });
  simulator.run_until(sim::seconds(10.0));
  // (id, status: 0 completed / 1 failed / 2 cancelled, time in us, bytes)
  const std::vector<Settle> expected{
      {3, 1, 166436, 170545},   {4, 1, 216410, 69709},    {5, 0, 289765, 90000},
      {1, 0, 454194, 300000},   {2, 0, 455127, 500000},   {7, 1, 517562, 62650},
      {6, 1, 600000, 225305},   {8, 1, 600000, 131428},   {9, 1, 600000, 0},
      {10, 1, 680000, 0},       {12, 2, 810000, 0},       {13, 2, 900000, 87411},
      {11, 0, 986597, 250000},  {14, 0, 1033964, 350000}, {15, 0, 1110461, 90000},
      {17, 1, 1315234, 91276},  {16, 0, 1708994, 450000}, {19, 1, 1710620, 12905},
      {18, 1, 1766752, 44450},  {20, 1, 1853697, 34236},  {21, 0, 1918536, 90000},
  };
  EXPECT_EQ(settles, expected);
  EXPECT_EQ(link.bytes_delivered(), 3'049'915);
}

TEST(LinkEquivalence, RttSpikeActivatesALaterIdFirst) {
  // A transfer issued inside an RTT spike activates after a later one
  // issued once the spike has ended. It must still join the active set at
  // its id position: every weight sum and the firing order walk ids
  // ascending (the check preset verifies that order on every reflow).
  sim::Simulator simulator;
  net::FaultPlan faults;
  faults.rtt_spikes.push_back({.start_s = 0.1, .duration_s = 0.1, .factor = 10.0});
  net::Link link(simulator,
                 net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(8'000.0),
                                 .rtt = sim::milliseconds(30),
                                 .faults = std::move(faults)});
  using Settle = std::tuple<net::FetchId, int, std::int64_t, std::int64_t>;
  std::vector<Settle> settles;
  const auto record = [&settles](net::FetchId id) {
    return [&settles, id](const net::TransferResult& r) {
      settles.emplace_back(id, static_cast<int>(r.status), r.time.count(),
                           r.bytes_delivered);
    };
  };
  // Issued at 0.15 s with a 300 ms RTT: first byte at 0.45 s.
  simulator.schedule_at(sim::seconds(0.15), [&] {
    EXPECT_EQ(link.fetch({.id = {}, .bytes = 400'000, .weight = 1.0}, record(1)), 1U);
  });
  // Issued at 0.25 s with a 30 ms RTT: first byte at 0.28 s, alone at
  // 1 MB/s until 0.45 s (170 000 bytes), then a 3:1 share.
  simulator.schedule_at(sim::seconds(0.25), [&] {
    EXPECT_EQ(link.fetch({.id = {}, .bytes = 200'000, .weight = 3.0}, record(2)), 2U);
  });
  simulator.run_until(sim::seconds(0.3));
  EXPECT_EQ(link.active_transfers(), 1);
  EXPECT_EQ(link.transfer_rate_kbps(1), 0.0);
  EXPECT_EQ(link.transfer_rate_kbps(2), 8'000.0);
  simulator.run_until(sim::seconds(0.46));
  EXPECT_EQ(link.active_transfers(), 2);
  EXPECT_EQ(link.transfer_rate_kbps(1), 2'000.0);
  EXPECT_EQ(link.transfer_rate_kbps(2), 6'000.0);
  simulator.run_until(sim::seconds(5.0));
  // (id, status 0 = completed, time in us, bytes)
  const std::vector<Settle> expected{{2, 0, 490'000, 200'000},
                                     {1, 0, 880'000, 400'000}};
  EXPECT_EQ(settles, expected);
  EXPECT_EQ(link.bytes_delivered(), 600'000);
}

TEST(LinkEquivalence, StaleActivationOfAReusedSlotDoesNothing) {
  // A warmup cancel frees the transfer's slot, and the next fetch takes
  // it. The cancelled transfer's activation event (due at 0.08 s) still
  // fires; it must leave the new transfer, issued into an RTT spike, in
  // warmup until its own first byte at 0.37 s.
  sim::Simulator simulator;
  net::FaultPlan faults;
  faults.rtt_spikes.push_back({.start_s = 0.06, .duration_s = 0.44, .factor = 10.0});
  net::Link link(simulator,
                 net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(8'000.0),
                                 .rtt = sim::milliseconds(30),
                                 .faults = std::move(faults)});
  // (status 0 completed / 2 cancelled, time in us, bytes)
  using Settle = std::tuple<int, std::int64_t, std::int64_t>;
  std::vector<Settle> first;
  std::vector<Settle> second;
  const auto into = [](auto& settles) {
    return [&settles](const net::TransferResult& r) {
      settles.emplace_back(static_cast<int>(r.status), r.time.count(),
                           r.bytes_delivered);
    };
  };
  net::FetchId cancelled = 0;
  net::FetchId reused = 0;
  simulator.schedule_at(sim::seconds(0.05), [&] {
    cancelled = link.fetch({.id = {}, .bytes = 300'000}, into(first));
  });
  simulator.schedule_at(sim::seconds(0.07), [&] {
    EXPECT_TRUE(link.cancel(cancelled));
    reused = link.fetch({.id = {}, .bytes = 100'000}, into(second));
  });
  simulator.run_until(sim::seconds(0.2));
  EXPECT_EQ(link.active_transfers(), 0);
  EXPECT_EQ(link.transfer_rate_kbps(reused), 0.0);
  EXPECT_FALSE(link.cancel(cancelled));
  simulator.run_until(sim::seconds(0.38));
  EXPECT_EQ(link.active_transfers(), 1);
  EXPECT_EQ(link.transfer_rate_kbps(reused), 8'000.0);
  simulator.run_until(sim::seconds(5.0));
  // The new transfer's own 100 000 bytes at 1 MB/s from 0.37 s.
  EXPECT_EQ(first, (std::vector<Settle>{{2, 70'000, 0}}));
  EXPECT_EQ(second, (std::vector<Settle>{{0, 470'000, 100'000}}));
  EXPECT_EQ(link.bytes_delivered(), 100'000);
}

TEST(PlanEquivalence, PlanChunkIntoMatchesPlanChunkAcrossWorkspaceReuse) {
  media::VideoModelConfig cfg;
  cfg.duration_s = 30.0;
  cfg.tile_rows = 4;
  cfg.tile_cols = 6;
  const auto video = std::make_shared<media::VideoModel>(cfg);
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> mass(0.0, 1.0);
  for (const auto mode : {abr::EncodingMode::kSvc, abr::EncodingMode::kHybrid,
                          abr::EncodingMode::kAvcRefetch}) {
    abr::SperkeVraConfig vra_cfg;
    vra_cfg.mode = mode;
    const abr::SperkeVra vra(video, vra_cfg);
    abr::SperkeVra::PlanWorkspace workspace;  // reused across every call
    abr::ChunkPlan reused;
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<double> probs(static_cast<std::size_t>(video->tile_count()));
      double total = 0.0;
      for (double& p : probs) total += (p = mass(rng));
      for (double& p : probs) p /= total;
      const auto fov = video->geometry().visible_tiles(
          {trial * 31.0, trial * 3.0 - 30.0, 0.0}, {100.0, 90.0});
      const auto index = static_cast<media::ChunkIndex>(trial % 30);
      const double kbps = 4'000.0 + 900.0 * trial;
      const auto plan = vra.plan_chunk(index, fov, probs, kbps,
                                       sim::seconds(2.0), trial % 5);
      vra.plan_chunk_into(index, fov, probs, kbps, sim::seconds(2.0),
                          trial % 5, workspace, reused);
      EXPECT_EQ(reused.index, plan.index);
      EXPECT_EQ(reused.fov_quality, plan.fov_quality);
      ASSERT_EQ(reused.fetches.size(), plan.fetches.size());
      for (std::size_t i = 0; i < plan.fetches.size(); ++i) {
        EXPECT_EQ(reused.fetches[i].address, plan.fetches[i].address);
        EXPECT_EQ(reused.fetches[i].spatial, plan.fetches[i].spatial);
        EXPECT_EQ(reused.fetches[i].visibility_probability,
                  plan.fetches[i].visibility_probability);
      }
    }
  }
}

}  // namespace
}  // namespace sperke
