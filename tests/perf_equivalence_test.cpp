// Equivalence oracles for the DESIGN.md §8 hot-path optimizations. Each
// accelerated kernel (equirect sign-test classifier, fused fusion pass,
// keyed distance sort, scratch-buffer planning) is pinned against a naive
// reference built from the same primitive expressions the
// pre-optimization code evaluated — and the match must be *exact*, not
// approximate, because seeded simulations diff their exports byte-for-byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <random>
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

constexpr int kSamplesPerAxis = 24;  // keep in sync with the reference below

std::shared_ptr<geo::TileGeometry> equirect_geometry(int rows, int cols) {
  return std::make_shared<geo::TileGeometry>(
      geo::make_projection("equirectangular"), geo::TileGrid(rows, cols),
      kSamplesPerAxis);
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
          geometry.grid().tile_at(geometry.projection().uv_from_direction(dir));
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

TEST(TilesByDistance, TiesBreakByAscendingTileId) {
  const auto geometry = equirect_geometry(4, 6);
  // A view on the lon==0 tile boundary at the equator is mirror-symmetric,
  // so equal-distance pairs are guaranteed to exist.
  for (const auto& view : {geo::Orientation{0.0, 0.0, 0.0},
                           geo::Orientation{90.0, 0.0, 0.0},
                           geo::Orientation{37.0, 21.0, 0.0}}) {
    const auto order = geometry->tiles_by_distance(view);
    const auto dist = geometry->tile_distances_deg(view);
    ASSERT_EQ(order.size(), dist.size());
    int ties = 0;
    for (std::size_t i = 1; i < order.size(); ++i) {
      const double prev = dist[static_cast<std::size_t>(order[i - 1])];
      const double cur = dist[static_cast<std::size_t>(order[i])];
      ASSERT_LE(prev, cur);
      if (prev == cur) {
        ++ties;
        EXPECT_LT(order[i - 1], order[i])
            << "equal-distance tiles must stay in ascending id order";
      }
    }
    if (view.yaw_deg == 0.0 && view.pitch_deg == 0.0) {
      EXPECT_GT(ties, 0) << "symmetric view should produce distance ties";
    }
  }
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
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> chunk_of(0, 5);
  std::uniform_int_distribution<int> tile_of(0, 23);
  for (int k = 0; k < 100; ++k) {
    std::vector<geo::TileId> view;
    for (int t = 0; t < 1 + k % 7; ++t) view.push_back(tile_of(rng));
    heatmap.add_view(chunk_of(rng), view);
  }
  hmp::ViewingHeatmap pooled(24, 6);
  pooled.merge(heatmap);
  pooled.merge(heatmap);
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
  const auto id1 = link.start_transfer(100'000, count_completed);
  const auto id2 = link.start_transfer(200'000, count_completed);
  link.start_transfer(50'000, count_completed);
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
        link.start_transfer(
            60'000, [&link, &completion_ticks](const net::TransferResult& r) {
              completion_ticks.push_back(r.time.count());
              link.start_transfer(
                  30'000, [&completion_ticks](const net::TransferResult& r2) {
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
