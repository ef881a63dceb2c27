// Tile-ABR policy arena tests: the abr::make_policy factory contract, the
// per-policy golden determinism guarantee (two independently constructed
// instances produce byte-identical plans for the same inputs), and the
// policy-specific allocation invariants of the related-work competitors
// (knapsack, consistency, fullpano) behind the TileAbrPolicy interface.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "abr/factory.h"
#include "util/rng.h"

namespace sperke::abr {
namespace {

std::shared_ptr<media::VideoModel> make_video() {
  media::VideoModelConfig cfg;
  cfg.duration_s = 20.0;
  cfg.chunk_duration_s = 1.0;
  cfg.tile_rows = 4;
  cfg.tile_cols = 6;
  cfg.seed = 5;
  return std::make_shared<media::VideoModel>(cfg);
}

std::vector<double> probs_for(const media::VideoModel& video,
                              const std::vector<geo::TileId>& fov) {
  std::vector<double> probs(static_cast<std::size_t>(video.tile_count()), 0.01);
  for (geo::TileId tile : fov) probs[static_cast<std::size_t>(tile)] = 0.2;
  double sum = 0.0;
  for (double p : probs) sum += p;
  for (double& p : probs) p /= sum;
  return probs;
}

bool same_plan(const ChunkPlan& a, const ChunkPlan& b) {
  if (a.index != b.index || a.fov_quality != b.fov_quality ||
      a.fetches.size() != b.fetches.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.fetches.size(); ++i) {
    if (a.fetches[i].address != b.fetches[i].address ||
        a.fetches[i].spatial != b.fetches[i].spatial ||
        a.fetches[i].visibility_probability !=
            b.fetches[i].visibility_probability) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- factory

TEST(PolicyFactory, NamesAreStableAndResolvable) {
  const auto names = policy_names();
  const std::vector<std::string_view> expected{"sperke", "knapsack",
                                               "consistency", "fullpano"};
  EXPECT_TRUE(std::equal(names.begin(), names.end(), expected.begin(),
                         expected.end()));
  auto video = make_video();
  for (std::string_view name : names) {
    TileAbrConfig config;
    config.policy = name;
    const auto policy = make_policy(video, config);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
  }
}

TEST(PolicyFactory, UnknownPolicyErrorListsValidNames) {
  auto video = make_video();
  TileAbrConfig config;
  config.policy = "oracle";
  try {
    (void)make_policy(video, config);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("oracle"), std::string::npos) << what;
    for (std::string_view name : policy_names()) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
  }
  EXPECT_THROW(validate_policy_name("oracle"), std::invalid_argument);
  for (std::string_view name : policy_names()) {
    EXPECT_NO_THROW(validate_policy_name(std::string(name)));
  }
}

TEST(PolicyFactory, NullVideoRejectedByEveryPolicy) {
  for (std::string_view name : policy_names()) {
    TileAbrConfig config;
    config.policy = name;
    EXPECT_THROW((void)make_policy(nullptr, config), std::invalid_argument)
        << name;
  }
}

TEST(RegularVraFactory, UnknownNameErrorListsValidNames) {
  try {
    (void)parse_regular_vra("quantum");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("quantum"), std::string::npos) << what;
    for (const char* name : {"throughput", "fixed-<level>"}) {
      EXPECT_NE(what.find(name), std::string::npos) << what;
    }
    for (const char* gone : {"buffer", "mpc", "bola"}) {
      EXPECT_EQ(what.find(gone), std::string::npos) << what;
    }
  }
}

TEST(RegularVraFactory, MalformedFixedLevelsRejected) {
  EXPECT_NO_THROW((void)parse_regular_vra("fixed-2"));
  EXPECT_THROW((void)parse_regular_vra("fixed-"), std::invalid_argument);
  EXPECT_THROW((void)parse_regular_vra("fixed-x"), std::invalid_argument);
  EXPECT_THROW((void)parse_regular_vra("fixed--1"), std::invalid_argument);
  EXPECT_THROW((void)parse_regular_vra("fixed-2x"), std::invalid_argument);
}

// ----------------------------------------------------- golden determinism

class PolicyGolden : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<TileAbrPolicy> make() const {
    TileAbrConfig config;
    config.policy = GetParam();
    return make_policy(video, config);
  }

  std::shared_ptr<media::VideoModel> video = make_video();
  std::vector<geo::TileId> fov{7, 8, 9, 13, 14, 15};
};

TEST_P(PolicyGolden, IndependentInstancesPlanIdentically) {
  // Two separately constructed instances of the same policy must plan
  // byte-identically — the property that lets every shard build its own
  // instance from the shared TileAbrConfig without breaking determinism.
  const auto a = make();
  const auto b = make();
  const auto probs = probs_for(*video, fov);
  for (int round = 0; round < 3; ++round) {
    const auto index = static_cast<media::ChunkIndex>(round);
    const double kbps = 4'000.0 * (round + 1);
    const ChunkPlan plan_a =
        a->plan_chunk(index, fov, probs, kbps, sim::seconds(2.0), round);
    const ChunkPlan plan_b =
        b->plan_chunk(index, fov, probs, kbps, sim::seconds(2.0), round);
    EXPECT_TRUE(same_plan(plan_a, plan_b)) << "round " << round;
    EXPECT_FALSE(plan_a.fetches.empty());
  }
}

TEST_P(PolicyGolden, PlanChunkIntoMatchesPlanChunkAcrossWorkspaceReuse) {
  const auto policy = make();
  const auto probs = probs_for(*video, fov);
  TileAbrPolicy::PlanWorkspace workspace;  // reused across every call
  ChunkPlan into;
  for (int round = 0; round < 3; ++round) {
    const auto index = static_cast<media::ChunkIndex>(round);
    const double kbps = 2'000.0 + 5'000.0 * round;
    const ChunkPlan fresh =
        policy->plan_chunk(index, fov, probs, kbps, sim::seconds(1.5), 1);
    policy->plan_chunk_into(index, fov, probs, kbps, sim::seconds(1.5), 1,
                            workspace, into);
    EXPECT_TRUE(same_plan(fresh, into)) << "round " << round;
  }
}

TEST_P(PolicyGolden, EmptyFovThrows) {
  const auto policy = make();
  EXPECT_THROW(
      (void)policy->plan_chunk(0, {}, {}, 8'000.0, sim::seconds(2.0), 0),
      std::invalid_argument);
}

TEST(PolicyInputs, RejectsMalformedPlanInputs) {
  // plan_chunk_into checks its inputs once, for every policy, before any
  // per-tile array is indexed: a short probability map is never read past
  // its end and an out-of-range FoV tile is never written through.
  const auto video = make_video();
  const std::vector<geo::TileId> fov{7, 8, 9};
  const std::vector<double> full = probs_for(*video, fov);
  const std::vector<double> short_map(full.begin(), full.end() - 1);
  struct Case {
    const char* what;
    std::vector<geo::TileId> fov;
    const std::vector<double>* probs;
  };
  const std::vector<Case> cases{
      {"short map", fov, &short_map},
      {"FoV tile == tile_count", {7, video->tile_count()}, &full},
      {"negative FoV tile", {-1, 7}, &full},
  };
  for (const std::string_view name : policy_names()) {
    TileAbrConfig config;
    config.policy = std::string(name);
    const auto policy = make_policy(video, config);
    for (const Case& c : cases) {
      EXPECT_THROW((void)policy->plan_chunk(0, c.fov, *c.probs, 8'000.0,
                                            sim::seconds(2.0), 0),
                   std::invalid_argument)
          << name << ": " << c.what;
    }
    EXPECT_NO_THROW(
        (void)policy->plan_chunk(0, fov, full, 8'000.0, sim::seconds(2.0), 0))
        << name;
  }
}

// VideoModel bounds tile_count() times its largest object, so a model just
// under that bound plans in every policy and encoding mode without a byte
// sum overflowing, and no throughput estimate overflows a byte budget.
TEST(PolicyInputs, PlansAModelJustUnderTheInt64Bound) {
  media::VideoModelConfig cfg;
  cfg.duration_s = 4.0;
  cfg.tile_rows = 2;
  cfg.tile_cols = 2;
  cfg.complexity_sigma = 0.0;
  cfg.area_mix = 0.0;
  cfg.ladder = media::QualityLadder({6e16});  // 8.25e18 SVC bytes per chunk
  const auto video = std::make_shared<media::VideoModel>(cfg);
  const std::vector<geo::TileId> fov{0, 1};
  const auto probs = probs_for(*video, fov);
  for (const std::string_view name : policy_names()) {
    for (const EncodingMode mode :
         {EncodingMode::kAvcNoUpgrade, EncodingMode::kSvc, EncodingMode::kHybrid}) {
      TileAbrConfig config;
      config.policy = std::string(name);
      config.sperke.mode = mode;
      const auto policy = make_policy(video, config);
      for (const double kbps :
           {0.0, 8'000.0, 6e16, std::numeric_limits<double>::infinity()}) {
        const ChunkPlan plan =
            policy->plan_chunk(0, fov, probs, kbps, sim::seconds(2.0), 0);
        EXPECT_GT(plan.total_bytes(*video), 0) << name << " @ " << kbps;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicyGolden,
                         ::testing::Values("sperke", "knapsack", "consistency",
                                           "fullpano"),
                         [](const auto& info) { return info.param; });

// ------------------------------------------------------- interface surface

TEST(PolicyInterface, BaseTierEncodingFollowsSperkeMode) {
  auto video = make_video();
  TileAbrConfig config;
  config.policy = "sperke";
  for (const auto& [mode, encoding] :
       {std::pair{EncodingMode::kAvcNoUpgrade, media::Encoding::kAvc},
        std::pair{EncodingMode::kAvcRefetch, media::Encoding::kAvc},
        std::pair{EncodingMode::kSvc, media::Encoding::kSvc},
        std::pair{EncodingMode::kHybrid, media::Encoding::kSvc}}) {
    config.sperke.mode = mode;
    EXPECT_EQ(make_policy(video, config)->base_tier_encoding(), encoding)
        << to_string(mode);
  }
  for (const char* name : {"knapsack", "consistency", "fullpano"}) {
    config.policy = name;
    EXPECT_EQ(make_policy(video, config)->base_tier_encoding(),
              media::Encoding::kAvc)
        << name;
  }
}

TEST(PolicyInterface, OnlySperkeExposesAnUpgradeWindow) {
  auto video = make_video();
  TileAbrConfig config;
  EXPECT_EQ(make_policy(video, config)->upgrade_window(), sim::seconds(4));
  for (const char* name : {"knapsack", "consistency", "fullpano"}) {
    config.policy = name;
    EXPECT_EQ(make_policy(video, config)->upgrade_window(), sim::Duration{0})
        << name;
  }
}

TEST(PolicyInterface, DefaultConsiderUpgradeDeclines) {
  // Competitors inherit the no-op upgrade path: whatever the state, they
  // never ask for mid-flight refinement fetches.
  auto video = make_video();
  for (const char* name : {"knapsack", "consistency", "fullpano"}) {
    TileAbrConfig config;
    config.policy = name;
    const auto policy = make_policy(video, config);
    const auto decision = policy->consider_upgrade(
        {3, 1}, 0, 0, 3, 0.9, sim::seconds(1.0), 50'000.0);
    EXPECT_FALSE(decision.upgrade) << name;
    EXPECT_TRUE(decision.fetches.empty()) << name;
  }
}

TEST(PolicyInterface, SuperChunkTilesTakesTheMostProbableInIdOrder) {
  std::vector<geo::TileId> out{9, 9, 9, 9, 9, 9, 9, 9};  // stale contents
  const std::vector<double> probs{0.1, 0.3, 0.05, 0.3, 0.25};
  super_chunk_tiles(probs, 3, out);
  EXPECT_EQ(out, (std::vector<geo::TileId>{1, 3, 4}));
  // Ties go to the lower id.
  const std::vector<double> flat{0.2, 0.2, 0.2, 0.4};
  super_chunk_tiles(flat, 2, out);
  EXPECT_EQ(out, (std::vector<geo::TileId>{0, 3}));
  // A count past the grid takes every tile; zero takes none.
  super_chunk_tiles(probs, 12, out);
  EXPECT_EQ(out, (std::vector<geo::TileId>{0, 1, 2, 3, 4}));
  super_chunk_tiles(probs, 0, out);
  EXPECT_TRUE(out.empty());
}

// ------------------------------------------------------------- knapsack

class KnapsackTest : public ::testing::Test {
 protected:
  std::shared_ptr<media::VideoModel> video = make_video();
  std::vector<geo::TileId> fov{7, 8, 13, 14};
};

TEST_F(KnapsackTest, RespectsByteBudgetBeyondCoverageFloor) {
  KnapsackVra vra(video);
  const auto probs = probs_for(*video, fov);
  const double kbps = 6'000.0;
  const ChunkPlan plan =
      vra.plan_chunk(2, fov, probs, kbps, sim::seconds(2.0), 0);
  const double chunk_s = sim::to_seconds(video->chunk_duration());
  const auto budget = static_cast<std::int64_t>(
      kbps * 0.9 * chunk_s * 1000.0 / 8.0);
  std::int64_t floor_bytes = 0;
  for (geo::TileId t : fov) floor_bytes += video->avc_size_bytes(0, {t, 2});
  EXPECT_LE(plan.total_bytes(*video), std::max(budget, floor_bytes));
}

TEST_F(KnapsackTest, MoreBandwidthNeverLowersAllocations) {
  KnapsackVra vra(video);
  const auto probs = probs_for(*video, fov);
  ChunkPlan last;
  std::int64_t last_bytes = 0;
  for (const double kbps : {2'000.0, 8'000.0, 40'000.0}) {
    const ChunkPlan plan =
        vra.plan_chunk(1, fov, probs, kbps, sim::seconds(2.0), 0);
    const std::int64_t bytes = plan.total_bytes(*video);
    EXPECT_GE(bytes, last_bytes);
    EXPECT_GE(plan.fov_quality, last.fov_quality);
    last = plan;
    last_bytes = bytes;
  }
  // At 40 Mbps the plan should reach past the base tier.
  EXPECT_GT(last.fov_quality, 0);
}

TEST_F(KnapsackTest, FovCoveredEvenWithZeroThroughputEstimate) {
  KnapsackVra vra(video);
  const auto probs = probs_for(*video, fov);
  const ChunkPlan plan = vra.plan_chunk(0, fov, probs, 0.0, sim::Duration{0}, 0);
  std::vector<geo::TileId> fetched;
  for (const auto& fetch : plan.fetches) {
    EXPECT_EQ(fetch.address.encoding, media::Encoding::kAvc);
    EXPECT_EQ(fetch.address.level, 0);
    EXPECT_EQ(fetch.spatial, SpatialClass::kFov);
    fetched.push_back(fetch.address.key.tile);
  }
  EXPECT_EQ(fetched, fov);
}

TEST_F(KnapsackTest, ImprobableTilesNeverEnter) {
  KnapsackVra vra(video);
  // Everything outside the FoV sits below the 0.005 entry floor.
  std::vector<double> probs(static_cast<std::size_t>(video->tile_count()),
                            0.004);
  for (geo::TileId t : fov) probs[static_cast<std::size_t>(t)] = 0.2;
  const ChunkPlan plan =
      vra.plan_chunk(0, fov, probs, 100'000.0, sim::seconds(2.0), 0);
  for (const auto& fetch : plan.fetches) {
    EXPECT_TRUE(std::find(fov.begin(), fov.end(), fetch.address.key.tile) !=
                fov.end())
        << "tile " << fetch.address.key.tile;
  }
}

// The greedy of Ghosh et al. at the published values, written out on its
// own: 90 % of the throughput estimate, a 0.25 utility credit for putting a
// tile on screen, and no entry below viewing probability 0.005.
ChunkPlan knapsack_reference(const media::VideoModel& video,
                             media::ChunkIndex index,
                             const std::vector<geo::TileId>& fov,
                             const std::vector<double>& probs, double kbps) {
  const auto& ladder = video.ladder();
  std::vector<media::QualityLevel> q(
      static_cast<std::size_t>(video.tile_count()), -1);
  std::int64_t spent = 0;
  for (geo::TileId t : fov) {
    q[static_cast<std::size_t>(t)] = 0;
    spent += video.avc_size_bytes(0, {t, index});
  }
  const auto budget = static_cast<std::int64_t>(
      kbps * 0.9 * sim::to_seconds(video.chunk_duration()) * 1000.0 / 8.0);
  for (;;) {
    double best = 0.0;
    geo::TileId pick = -1;
    std::int64_t pick_cost = 0;
    for (geo::TileId t = 0; t < video.tile_count(); ++t) {
      const media::QualityLevel level = q[static_cast<std::size_t>(t)];
      const double p = probs[static_cast<std::size_t>(t)];
      if (level == ladder.max_level() || (level < 0 && p < 0.005)) continue;
      const double gain =
          level < 0 ? p * (ladder.utility(0) + 0.25)
                    : p * (ladder.utility(level + 1) - ladder.utility(level));
      const std::int64_t cost = std::max<std::int64_t>(
          1, video.avc_size_bytes(level + 1, {t, index}) -
                 (level < 0 ? 0 : video.avc_size_bytes(level, {t, index})));
      if (spent + cost > budget) continue;
      if (gain / static_cast<double>(cost) > best) {
        best = gain / static_cast<double>(cost);
        pick = t;
        pick_cost = cost;
      }
    }
    if (pick < 0) break;
    ++q[static_cast<std::size_t>(pick)];
    spent += pick_cost;
  }
  ChunkPlan plan;
  plan.index = index;
  plan.fov_quality = ladder.max_level();
  for (geo::TileId t : fov) {
    plan.fov_quality =
        std::min(plan.fov_quality, q[static_cast<std::size_t>(t)]);
  }
  for (geo::TileId t = 0; t < video.tile_count(); ++t) {
    const media::QualityLevel level = q[static_cast<std::size_t>(t)];
    if (level < 0) continue;
    const bool in_fov = std::find(fov.begin(), fov.end(), t) != fov.end();
    plan.fetches.push_back({{{t, index}, media::Encoding::kAvc, level},
                            in_fov ? SpatialClass::kFov : SpatialClass::kOos,
                            probs[static_cast<std::size_t>(t)]});
  }
  return plan;
}

TEST_F(KnapsackTest, PlansAtThePublishedValues) {
  KnapsackVra vra(video);
  // Off-FoV probabilities straddle the entry floor: 0.001 .. 0.008.
  std::vector<double> probs(static_cast<std::size_t>(video->tile_count()));
  for (geo::TileId t = 0; t < video->tile_count(); ++t) {
    probs[static_cast<std::size_t>(t)] = 0.001 * (1 + t % 8);
  }
  for (geo::TileId t : fov) probs[static_cast<std::size_t>(t)] = 0.15;
  // At 1.73, 2.5 and 4.07 Mbps an entry credit of 0.2 or 0.3 instead of
  // 0.25 changes the plan.
  for (const double kbps :
       {1'000.0, 1'730.0, 2'500.0, 4'070.0, 6'000.0, 12'000.0, 30'000.0}) {
    const ChunkPlan plan =
        vra.plan_chunk(3, fov, probs, kbps, sim::seconds(2.0), 0);
    EXPECT_TRUE(
        same_plan(plan, knapsack_reference(*video, 3, fov, probs, kbps)))
        << kbps << " kbps";
  }
  // With bandwidth to spare every tile at or above the floor reaches the
  // top level, and no tile below it is fetched at all.
  const ChunkPlan rich =
      vra.plan_chunk(3, fov, probs, 1e9, sim::seconds(2.0), 0);
  int fetched = 0;
  for (const auto& fetch : rich.fetches) {
    EXPECT_GE(fetch.visibility_probability, 0.005);
    EXPECT_EQ(fetch.address.level, video->ladder().max_level());
    ++fetched;
  }
  int eligible = 0;
  for (const double p : probs) eligible += p >= 0.005 ? 1 : 0;
  EXPECT_EQ(fetched, eligible);
}

// The heap planner against the rescanning greedy above, on random maps:
// 4x6 and 8x12 grids, several chunks, budgets from zero to unbounded, one
// workspace reused throughout. A flat-complexity video gives every tile of
// a row the same sizes, so maps drawn from a few values tie exactly on
// density. The values straddle the 0.005 entry floor and include zero.
TEST_F(KnapsackTest, HeapPlannerMatchesRescanningGreedy) {
  constexpr std::array kValues{0.0, 0.004, 0.0049999, 0.005, 0.0050001,
                               0.02, 0.05, 0.2};
  TileAbrPolicy::PlanWorkspace workspace;
  ChunkPlan plan;
  int plans = 0;
  for (const auto& [rows, cols] : {std::pair{4, 6}, std::pair{8, 12}}) {
    for (const double sigma : {0.25, 0.0}) {
      media::VideoModelConfig cfg;
      cfg.duration_s = 20.0;
      cfg.tile_rows = rows;
      cfg.tile_cols = cols;
      cfg.complexity_sigma = sigma;
      cfg.seed = 5;
      const auto grid_video = std::make_shared<media::VideoModel>(cfg);
      const KnapsackVra vra(grid_video);
      const auto tiles = static_cast<std::size_t>(grid_video->tile_count());
      Rng rng(static_cast<std::uint64_t>(rows * 100 + cols) +
              (sigma > 0.0 ? 1 : 0));
      for (const media::ChunkIndex index : {0, 3, 11, 19}) {
        for (int trial = 0; trial < 20; ++trial) {
          // Half the maps draw only from kValues (ties); the rest mix in
          // continuous values.
          const bool ties = trial % 2 == 0;
          std::vector<double> probs(tiles);
          for (double& p : probs) {
            p = ties || rng.bernoulli(0.5)
                    ? kValues[static_cast<std::size_t>(rng.uniform_int(
                          0, static_cast<std::int64_t>(kValues.size()) - 1))]
                    : rng.uniform(0.0, 0.3);
          }
          std::vector<geo::TileId> fov;
          for (std::int64_t n = rng.uniform_int(1, 8); n > 0; --n) {
            fov.push_back(static_cast<geo::TileId>(
                rng.uniform_int(0, static_cast<std::int64_t>(tiles) - 1)));
          }
          std::sort(fov.begin(), fov.end());
          fov.erase(std::unique(fov.begin(), fov.end()), fov.end());
          for (const double kbps : {0.0, 300.0, 1'500.0, 4'000.0, 10'000.0,
                                    25'000.0, 80'000.0, 1e12}) {
            vra.plan_chunk_into(index, fov, probs, kbps, sim::seconds(2.0), 0,
                                workspace, plan);
            ASSERT_TRUE(same_plan(
                plan, knapsack_reference(*grid_video, index, fov, probs, kbps)))
                << rows << "x" << cols << " sigma " << sigma << " chunk "
                << index << " trial " << trial << " at " << kbps << " kbps";
            ++plans;
          }
        }
      }
    }
  }
  EXPECT_EQ(plans, 2 * 2 * 4 * 20 * 8);
}

// ---------------------------------------------------------- consistency

class ConsistencyTest : public ::testing::Test {
 protected:
  std::shared_ptr<media::VideoModel> video = make_video();
  std::vector<geo::TileId> fov{7, 8, 13, 14};
};

TEST_F(ConsistencyTest, TemporalRiseIsClamped) {
  ConsistencyVra vra(video);
  const auto probs = probs_for(*video, fov);
  // Effectively unlimited bandwidth: only the temporal clamp can bind.
  const ChunkPlan plan =
      vra.plan_chunk(0, fov, probs, 1e9, sim::seconds(2.0), /*last=*/0);
  EXPECT_EQ(plan.fov_quality, 1);  // one level per chunk
  // Drops are unconstrained: from the top level a collapse lands on base.
  const ChunkPlan crash = vra.plan_chunk(
      0, fov, probs, 900.0, sim::seconds(2.0), video->ladder().max_level());
  EXPECT_EQ(crash.fov_quality, 0);
}

TEST_F(ConsistencyTest, QualityDecaysBySpatialRing) {
  ConsistencyVra vra(video);
  const auto probs = probs_for(*video, fov);
  const ChunkPlan plan =
      vra.plan_chunk(0, fov, probs, 1e9, sim::seconds(2.0), /*last=*/3);
  media::QualityLevel fov_level = -1;
  media::QualityLevel max_oos_level = -1;
  for (const auto& fetch : plan.fetches) {
    if (fetch.spatial == SpatialClass::kFov) {
      fov_level = fetch.address.level;
      EXPECT_EQ(fetch.address.level, plan.fov_quality);
    } else {
      max_oos_level = std::max(max_oos_level, fetch.address.level);
    }
  }
  ASSERT_GE(fov_level, 1);
  ASSERT_GE(max_oos_level, 0);  // margin exists
  EXPECT_LT(max_oos_level, fov_level);  // and sits strictly below the FoV
}

TEST_F(ConsistencyTest, EmergencyDropsMarginAndKeepsBaseFov) {
  ConsistencyVra vra(video);
  const auto probs = probs_for(*video, fov);
  // Throughput far below even the all-base plan.
  const ChunkPlan plan =
      vra.plan_chunk(0, fov, probs, 1.0, sim::seconds(2.0), 2);
  EXPECT_EQ(plan.fov_quality, 0);
  std::vector<geo::TileId> fetched;
  for (const auto& fetch : plan.fetches) {
    EXPECT_EQ(fetch.spatial, SpatialClass::kFov);
    EXPECT_EQ(fetch.address.level, 0);
    fetched.push_back(fetch.address.key.tile);
  }
  EXPECT_EQ(fetched, fov);
}

TEST_F(ConsistencyTest, TwoRingsOneLevelApart) {
  ConsistencyVra vra(video);
  const auto probs = probs_for(*video, fov);
  // Grid distance from the FoV, by BFS over the tile neighbourhood.
  std::vector<int> ring(static_cast<std::size_t>(video->tile_count()), -1);
  std::vector<geo::TileId> frontier = fov;
  for (geo::TileId t : fov) ring[static_cast<std::size_t>(t)] = 0;
  for (int r = 1; !frontier.empty(); ++r) {
    std::vector<geo::TileId> next;
    for (geo::TileId t : frontier) {
      for (geo::TileId n : video->geometry().grid().neighbors(t)) {
        if (ring[static_cast<std::size_t>(n)] >= 0) continue;
        ring[static_cast<std::size_t>(n)] = r;
        next.push_back(n);
      }
    }
    frontier = std::move(next);
  }
  const ChunkPlan plan =
      vra.plan_chunk(0, fov, probs, 1e9, sim::seconds(2.0), /*last=*/3);
  ASSERT_EQ(plan.fov_quality, 4);
  std::vector<int> fetched_level(ring.size(), -1);
  for (const auto& fetch : plan.fetches) {
    fetched_level[static_cast<std::size_t>(fetch.address.key.tile)] =
        fetch.address.level;
  }
  for (geo::TileId t = 0; t < video->tile_count(); ++t) {
    const int r = ring[static_cast<std::size_t>(t)];
    EXPECT_EQ(fetched_level[static_cast<std::size_t>(t)], r <= 2 ? 4 - r : -1)
        << "tile " << t << " ring " << r;
  }
}

TEST_F(ConsistencyTest, SpendsNinetyPercentOfTheEstimate) {
  ConsistencyVra vra(video);
  const auto probs = probs_for(*video, fov);
  // The bytes of the level-2 plan, and the throughput whose whole chunk
  // budget equals them.
  const ChunkPlan two =
      vra.plan_chunk(0, fov, probs, 1e9, sim::seconds(2.0), 1);
  ASSERT_EQ(two.fov_quality, 2);
  const double chunk_s = sim::to_seconds(video->chunk_duration());
  const double full_kbps =
      static_cast<double>(two.total_bytes(*video)) * 8.0 / 1000.0 / chunk_s;
  // 0.9 x kbps must cover the plan: 1 % above that it does, 1 % below
  // it does not.
  EXPECT_EQ(vra.plan_chunk(0, fov, probs, full_kbps / 0.9 * 1.01,
                           sim::seconds(2.0), 1).fov_quality, 2);
  EXPECT_LT(vra.plan_chunk(0, fov, probs, full_kbps / 0.9 * 0.99,
                           sim::seconds(2.0), 1).fov_quality, 2);
}

// -------------------------------------------------------------- fullpano

TEST(FullPanoramaTest, FetchesEveryTileAtOneLevel) {
  auto video = make_video();
  FullPanoramaVra vra(video, {});
  const std::vector<geo::TileId> fov{7, 8};
  const auto probs = probs_for(*video, fov);
  const ChunkPlan plan =
      vra.plan_chunk(1, fov, probs, 50'000.0, sim::seconds(2.0), 0);
  ASSERT_EQ(plan.fetches.size(),
            static_cast<std::size_t>(video->tile_count()));
  int fov_marked = 0;
  for (const auto& fetch : plan.fetches) {
    EXPECT_EQ(fetch.address.level, plan.fov_quality);
    EXPECT_EQ(fetch.address.encoding, media::Encoding::kAvc);
    if (fetch.spatial == SpatialClass::kFov) ++fov_marked;
  }
  EXPECT_EQ(fov_marked, static_cast<int>(fov.size()));
}

TEST(FullPanoramaTest, UniformLevelTracksBandwidth) {
  auto video = make_video();
  FullPanoramaVra vra(video, {});
  const std::vector<geo::TileId> fov{7, 8};
  const auto probs = probs_for(*video, fov);
  const auto low = vra.plan_chunk(1, fov, probs, 3'000.0, sim::seconds(2.0), 0);
  const auto high = vra.plan_chunk(1, fov, probs, 1e6, sim::seconds(2.0), 0);
  EXPECT_LE(low.fov_quality, high.fov_quality);
  EXPECT_EQ(high.fov_quality, video->ladder().max_level());
}

}  // namespace
}  // namespace sperke::abr
