#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "abr/oos.h"
#include "abr/policy.h"
#include "abr/qoe.h"
#include "abr/sperke_vra.h"

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

// Super-chunk cost per ladder level, kbps.
constexpr std::array<double, 5> kLevelKbps{1000.0, 2500.0, 5000.0, 10000.0, 20000.0};

TEST(QoeTracker, AggregatesScore) {
  QoeTracker tracker;
  tracker.record_played_chunk(0.8, 0.0);
  tracker.record_played_chunk(0.6, 0.1);
  tracker.record_stall(sim::seconds(2.0));
  tracker.record_skip(1);
  tracker.record_downloaded(1000);
  tracker.record_wasted(100);
  const QoeSummary s = tracker.summary();
  EXPECT_EQ(s.chunks_played, 2);
  EXPECT_NEAR(s.mean_viewport_utility, 0.7, 1e-9);
  EXPECT_NEAR(s.stall_seconds, 2.0, 1e-9);
  EXPECT_EQ(s.stall_events, 1);
  EXPECT_EQ(s.skipped_chunks, 1);
  EXPECT_NEAR(s.switch_magnitude, 0.2, 1e-9);
  EXPECT_NEAR(s.blank_fraction_mean, 0.05, 1e-9);
  EXPECT_EQ(s.bytes_downloaded, 1000);
  EXPECT_EQ(s.bytes_wasted, 100);
  // score = 1.4 - 4*2 - 2*1 - 1*0.2 - 4*0.1
  EXPECT_NEAR(s.score, 1.4 - 8.0 - 2.0 - 0.2 - 0.4, 1e-9);
}

TEST(QoeTracker, RejectsBadInputs) {
  QoeTracker tracker;
  EXPECT_THROW(tracker.record_played_chunk(1.5, 0.0), std::invalid_argument);
  EXPECT_THROW(tracker.record_played_chunk(0.5, -0.1), std::invalid_argument);
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(tracker.record_played_chunk(kNan, 0.0), std::invalid_argument);
  EXPECT_THROW(tracker.record_played_chunk(0.5, kNan), std::invalid_argument);
  EXPECT_THROW(tracker.record_stall(sim::Duration{-1}), std::invalid_argument);
  EXPECT_THROW(tracker.record_skip(-1), std::invalid_argument);
  EXPECT_THROW(tracker.record_downloaded(-1), std::invalid_argument);
  EXPECT_THROW(tracker.record_wasted(-1), std::invalid_argument);
  // A rejected input leaves the summary untouched.
  const QoeSummary s = tracker.summary();
  EXPECT_EQ(s.chunks_played, 0);
  EXPECT_EQ(s.bytes_downloaded, 0);
  EXPECT_EQ(s.bytes_wasted, 0);
}

TEST(QoeTracker, ByteTotalsThrowInsteadOfOverflowing) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  QoeTracker tracker;
  tracker.record_downloaded(kMax);
  tracker.record_wasted(kMax);
  EXPECT_THROW(tracker.record_downloaded(1), std::overflow_error);
  EXPECT_THROW(tracker.record_wasted(1), std::overflow_error);
  // The totals stay at the last value that fit.
  EXPECT_EQ(tracker.summary().bytes_downloaded, kMax);
  EXPECT_EQ(tracker.summary().bytes_wasted, kMax);
}

TEST(ThroughputVra, PicksSustainableLevel) {
  const auto throughput = parse_regular_vra("throughput");
  EXPECT_EQ(regular_vra_level(kLevelKbps, 12000.0, throughput), 3);  // 0.85*12000 >= 10000
  EXPECT_EQ(regular_vra_level(kLevelKbps, 3000.0, throughput), 1);
  EXPECT_EQ(regular_vra_level(kLevelKbps, 500.0, throughput), 0);
  EXPECT_EQ(regular_vra_level(kLevelKbps, 0.0, throughput), 0);  // unknown throughput
  // The budget is 0.85 of the estimate: 0.85 * 11760 misses 10000.
  EXPECT_EQ(regular_vra_level(kLevelKbps, 11760.0, throughput), 2);
}

TEST(RegularVraFactory, MakesAllKinds) {
  EXPECT_EQ(parse_regular_vra("throughput"), std::nullopt);
  EXPECT_EQ(parse_regular_vra("fixed-2"), 2);
  EXPECT_THROW((void)parse_regular_vra("festive2"), std::invalid_argument);
  // Only throughput and fixed-<level> resolve.
  for (const char* name : {"buffer", "mpc", "bola"}) {
    EXPECT_THROW((void)parse_regular_vra(name), std::invalid_argument) << name;
  }
}

TEST(FixedVra, ClampsToLadderTop) {
  const auto pinned = parse_regular_vra("fixed-99");
  EXPECT_EQ(regular_vra_level(kLevelKbps, 0.0, pinned), 4);
  // A pin ignores the estimate.
  EXPECT_EQ(regular_vra_level(kLevelKbps, 1e9, parse_regular_vra("fixed-1")), 1);
  EXPECT_THROW((void)regular_vra_level({}, 0.0, pinned), std::invalid_argument);
}

class OosTest : public ::testing::Test {
 protected:
  std::shared_ptr<media::VideoModel> video = make_video();
  OosSelector::Workspace workspace;

  ChunkPlan fov_plan(media::QualityLevel q, const std::vector<geo::TileId>& fov) {
    ChunkPlan plan;
    plan.index = 0;
    plan.fov_quality = q;
    for (geo::TileId tile : fov) {
      plan.fetches.push_back(
          {{{tile, 0}, media::Encoding::kAvc, q}, SpatialClass::kFov, 0.2});
    }
    return plan;
  }

  std::vector<double> uniform_probs() {
    return std::vector<double>(static_cast<std::size_t>(video->tile_count()),
                               1.0 / video->tile_count());
  }
};

TEST_F(OosTest, AddsOosTilesWithinBudget) {
  OosSelector selector({.budget_fraction = 0.5});
  auto plan = fov_plan(3, {0, 1, 6, 7});
  const auto fov_bytes = plan.total_bytes(*video);
  selector.select(plan, *video, {0, 1, 6, 7}, uniform_probs(),
                  media::Encoding::kAvc, workspace);
  std::int64_t oos_bytes = 0;
  int oos_count = 0;
  for (const auto& f : plan.fetches) {
    if (f.spatial == SpatialClass::kOos) {
      oos_bytes += video->size_bytes(f.address);
      ++oos_count;
    }
  }
  EXPECT_GT(oos_count, 0);
  // The accuracy scaling with uniform probs roughly doubles the 0.5 budget.
  EXPECT_LE(oos_bytes, fov_bytes);
}

TEST_F(OosTest, ZeroBudgetAddsNothing) {
  OosSelector selector({.budget_fraction = 0.0});
  auto plan = fov_plan(3, {0, 1});
  const auto before = plan.fetches.size();
  selector.select(plan, *video, {0, 1}, uniform_probs(), media::Encoding::kAvc,
                  workspace);
  EXPECT_EQ(plan.fetches.size(), before);
}

TEST_F(OosTest, HigherProbabilityTilesChosenFirst) {
  OosSelector selector({.budget_fraction = 1.5});
  auto plan = fov_plan(2, {0});
  auto probs = uniform_probs();
  probs[5] = 0.9;  // one clearly-hot tile
  selector.select(plan, *video, {0}, probs, media::Encoding::kAvc, workspace);
  // The hottest candidate must be the first OOS fetch emitted.
  std::optional<geo::TileId> first_oos;
  for (const auto& f : plan.fetches) {
    if (f.spatial == SpatialClass::kOos && !first_oos.has_value()) {
      first_oos = f.address.key.tile;
    }
  }
  ASSERT_TRUE(first_oos.has_value());
  EXPECT_EQ(*first_oos, 5);
}

TEST_F(OosTest, FirstTileDropsOneLevelThenOneMoreEveryThreeTiles) {
  // A budget no candidate set can exhaust: every OOS tile is fetched, in
  // tile-id order (uniform probabilities, stable ranking).
  OosSelector selector({.budget_fraction = 100.0});
  auto plan = fov_plan(4, {0});
  selector.select(plan, *video, {0}, uniform_probs(), media::Encoding::kAvc,
                  workspace);
  std::vector<media::QualityLevel> levels;
  for (const auto& f : plan.fetches) {
    if (f.spatial == SpatialClass::kOos) levels.push_back(f.address.level);
  }
  std::vector<media::QualityLevel> want;
  for (int rank = 0; rank < video->tile_count() - 1; ++rank) {
    want.push_back(std::max(0, 4 - 1 - rank / 3));
  }
  EXPECT_EQ(levels, want);  // 3,3,3, 2,2,2, 1,1,1, 0,...
}

TEST_F(OosTest, BudgetIsScaledByOnePlusMissMass) {
  // Half the probability mass sits on the FoV tile, so the miss mass is
  // 0.5 and the budget is 0.5 * fov_bytes * 1.5.
  std::vector<double> probs(static_cast<std::size_t>(video->tile_count()),
                            0.5 / (video->tile_count() - 1));
  probs[0] = 0.5;
  auto plan = fov_plan(4, {0});
  const auto fov_bytes = static_cast<double>(plan.total_bytes(*video));
  // Candidates in rank order (uniform off the FoV: tile id order) at the
  // rank ladder's levels, taken while the running total fits `budget`.
  const auto fitting = [&](double budget) {
    std::int64_t spent = 0;
    int count = 0;
    for (geo::TileId tile = 1; tile < video->tile_count(); ++tile) {
      const int q = std::max(0, 4 - 1 - count / 3);
      const std::int64_t cost = video->avc_size_bytes(q, {tile, 0});
      if (static_cast<double>(spent + cost) > budget) break;
      spent += cost;
      ++count;
    }
    return count;
  };
  OosSelector({.budget_fraction = 0.5})
      .select(plan, *video, {0}, probs, media::Encoding::kAvc, workspace);
  const int oos = static_cast<int>(plan.fetches.size()) - 1;
  EXPECT_EQ(oos, fitting(0.5 * fov_bytes * 1.5));
  EXPECT_GT(oos, fitting(0.5 * fov_bytes));  // the scaling mattered
}

TEST_F(OosTest, SvcEncodingEmitsLayerStacks) {
  OosSelector selector({.budget_fraction = 2.0});
  auto plan = fov_plan(2, {0});
  selector.select(plan, *video, {0}, uniform_probs(), media::Encoding::kSvc,
                  workspace);
  // An OOS tile at quality q appears as layers 0..q, in order.
  std::map<geo::TileId, std::vector<media::LayerIndex>> layers;
  for (const auto& f : plan.fetches) {
    if (f.spatial != SpatialClass::kOos) continue;
    EXPECT_EQ(f.address.encoding, media::Encoding::kSvc);
    layers[f.address.key.tile].push_back(f.address.level);
  }
  ASSERT_FALSE(layers.empty());
  bool stacked = false;
  for (const auto& [tile, stack] : layers) {
    for (std::size_t l = 0; l < stack.size(); ++l) {
      EXPECT_EQ(stack[l], static_cast<media::LayerIndex>(l)) << "tile " << tile;
    }
    stacked = stacked || stack.size() == 2;  // the first ranks sit at 1
  }
  EXPECT_TRUE(stacked);
}

TEST_F(OosTest, RejectsBadConfigAndInput) {
  EXPECT_THROW(OosSelector({.budget_fraction = -1.0}), std::invalid_argument);
  OosSelector ok;
  auto plan = fov_plan(1, {0});
  std::vector<double> wrong_size(3, 0.1);
  EXPECT_THROW(ok.select(plan, *video, {0}, wrong_size, media::Encoding::kAvc,
                         workspace),
               std::invalid_argument);
}

TEST_F(OosTest, RejectsNonFiniteBudgetFraction) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW(OosSelector({.budget_fraction = bad}), std::invalid_argument)
        << bad;
  }
}

TEST_F(OosTest, HugeFiniteBudgetTakesEveryCandidate) {
  // 1e300 * fov_bytes is far past any int64: the budget stays a double.
  OosSelector selector({.budget_fraction = 1e300});
  auto plan = fov_plan(4, {0});
  selector.select(plan, *video, {0}, uniform_probs(), media::Encoding::kAvc,
                  workspace);
  EXPECT_EQ(plan.fetches.size(), static_cast<std::size_t>(video->tile_count()));
}

class SperkeVraTest : public ::testing::Test {
 protected:
  std::shared_ptr<media::VideoModel> video = make_video();

  SperkeVra make(EncodingMode mode) {
    SperkeVraConfig cfg;
    cfg.mode = mode;
    return SperkeVra(video, cfg);
  }

  std::vector<double> probs_for(const std::vector<geo::TileId>& fov) {
    std::vector<double> probs(static_cast<std::size_t>(video->tile_count()), 0.01);
    for (geo::TileId tile : fov) probs[static_cast<std::size_t>(tile)] = 0.2;
    double sum = 0.0;
    for (double p : probs) sum += p;
    for (double& p : probs) p /= sum;
    return probs;
  }
};

TEST_F(SperkeVraTest, PlanCoversFovAtChosenQuality) {
  auto vra = make(EncodingMode::kAvcRefetch);
  const std::vector<geo::TileId> fov{7, 8, 9, 13, 14, 15};
  const auto plan = vra.plan_chunk(2, fov, probs_for(fov), 20'000.0,
                                   sim::seconds(3.0), 0);
  EXPECT_EQ(plan.index, 2);
  std::set<geo::TileId> planned_fov;
  for (const auto& f : plan.fetches) {
    if (f.spatial == SpatialClass::kFov) {
      planned_fov.insert(f.address.key.tile);
      EXPECT_EQ(f.address.level, plan.fov_quality);
    }
  }
  for (geo::TileId tile : fov) EXPECT_TRUE(planned_fov.contains(tile));
}

TEST_F(SperkeVraTest, SvcModeEmitsLayersZeroThroughQ) {
  auto vra = make(EncodingMode::kSvc);
  const std::vector<geo::TileId> fov{7, 8};
  const auto plan =
      vra.plan_chunk(0, fov, probs_for(fov), 50'000.0, sim::seconds(5.0), 0);
  ASSERT_GT(plan.fov_quality, 0);
  std::map<geo::TileId, std::set<media::LayerIndex>> layers;
  for (const auto& f : plan.fetches) {
    if (f.spatial == SpatialClass::kFov) {
      EXPECT_EQ(f.address.encoding, media::Encoding::kSvc);
      layers[f.address.key.tile].insert(f.address.level);
    }
  }
  for (geo::TileId tile : fov) {
    EXPECT_EQ(static_cast<int>(layers[tile].size()), plan.fov_quality + 1);
    EXPECT_TRUE(layers[tile].contains(0));
  }
}

TEST_F(SperkeVraTest, HigherBandwidthRaisesQuality) {
  auto vra = make(EncodingMode::kSvc);
  const std::vector<geo::TileId> fov{7, 8, 9};
  const auto slow =
      vra.plan_chunk(0, fov, probs_for(fov), 2'000.0, sim::seconds(3.0), 0);
  const auto fast =
      vra.plan_chunk(0, fov, probs_for(fov), 60'000.0, sim::seconds(3.0), 0);
  EXPECT_GT(fast.fov_quality, slow.fov_quality);
}

TEST_F(SperkeVraTest, HybridFovIsAvcOosIsSvc) {
  // §3.1.2 hybrid: FoV tiles are unlikely to upgrade -> AVC (no layering
  // overhead); OOS tiles are the upgrade candidates -> SVC.
  SperkeVraConfig cfg;
  cfg.mode = EncodingMode::kHybrid;
  cfg.oos.budget_fraction = 1.0;
  SperkeVra vra(video, cfg);
  const std::vector<geo::TileId> fov{7, 8};
  const auto plan =
      vra.plan_chunk(0, fov, probs_for(fov), 30'000.0, sim::seconds(3.0), 0);
  bool saw_oos = false;
  for (const auto& f : plan.fetches) {
    if (f.spatial == SpatialClass::kFov) {
      EXPECT_EQ(f.address.encoding, media::Encoding::kAvc);
    } else {
      EXPECT_EQ(f.address.encoding, media::Encoding::kSvc);
      saw_oos = true;
    }
  }
  EXPECT_TRUE(saw_oos);
}

TEST_F(SperkeVraTest, HybridUpgradePicksCheaperPath) {
  SperkeVraConfig cfg;
  cfg.mode = EncodingMode::kHybrid;
  SperkeVra vra(video, cfg);
  const media::ChunkKey key{7, 3};
  // Cell holds only an AVC copy (svc base -1): a full delta stack costs
  // more than the AVC refetch, so refetch wins.
  auto d = vra.consider_upgrade(key, 0, -1, 2, 0.9, sim::seconds(2.0), 50'000.0);
  ASSERT_TRUE(d.upgrade);
  ASSERT_EQ(d.fetches.size(), 1u);
  EXPECT_EQ(d.fetches[0].encoding, media::Encoding::kAvc);
  // Cell holds SVC layers 0..1: the single remaining delta is cheaper.
  d = vra.consider_upgrade(key, 1, 1, 2, 0.9, sim::seconds(2.0), 50'000.0);
  ASSERT_TRUE(d.upgrade);
  ASSERT_EQ(d.fetches.size(), 1u);
  EXPECT_EQ(d.fetches[0].encoding, media::Encoding::kSvc);
  EXPECT_EQ(d.fetches[0].level, 2);
}

TEST_F(SperkeVraTest, UpgradeDecisionsPerModeAndIntoAReusedDecision) {
  // (current, svc base, target) per encoding mode, as "none", "avc <q>" or
  // "svc <first>-<last>". Case (0, 2, 2) is contrived: a base at the target
  // leaves no delta, which hybrid also finds cheapest.
  struct Case {
    media::QualityLevel current, base, target;
    const char* no_upgrade;
    const char* refetch;
    const char* svc;
    const char* hybrid;
  };
  const std::vector<Case> cases = {
      {0, 0, 2, "none", "avc 2", "svc 1-2", "svc 1-2"},
      {0, -1, 2, "none", "avc 2", "svc 0-2", "avc 2"},
      {1, 1, 2, "none", "avc 2", "svc 2-2", "svc 2-2"},
      {-1, -1, 1, "none", "avc 1", "svc 0-1", "avc 1"},
      {2, 2, 2, "none", "none", "none", "none"},
      {0, 2, 2, "none", "avc 2", "none", "none"},
      {2, -1, 3, "none", "avc 3", "svc 0-3", "avc 3"},
      {3, 3, 4, "none", "avc 4", "svc 4-4", "svc 4-4"},
  };
  const media::ChunkKey key{7, 3};
  const auto describe = [&](const TileAbrPolicy::UpgradeDecision& d) {
    if (!d.upgrade) return std::string("none");
    std::int64_t bytes = 0;
    for (const auto& a : d.fetches) bytes += video->size_bytes(a);
    EXPECT_EQ(d.bytes, bytes);
    const auto& first = d.fetches.front();
    if (first.encoding == media::Encoding::kAvc) {
      EXPECT_EQ(d.fetches.size(), 1U);
      return "avc " + std::to_string(first.level);
    }
    for (std::size_t i = 0; i < d.fetches.size(); ++i) {
      EXPECT_EQ(d.fetches[i].encoding, media::Encoding::kSvc);
      EXPECT_EQ(d.fetches[i].level, first.level + static_cast<int>(i));
    }
    return "svc " + std::to_string(first.level) + "-" +
           std::to_string(d.fetches.back().level);
  };
  // One decision serves every call: each answer replaces the last, and the
  // fetch list never reallocates once it holds a full stack.
  TileAbrPolicy::UpgradeDecision reused;
  reused.fetches.reserve(8);
  const auto* storage = reused.fetches.data();
  for (const EncodingMode mode :
       {EncodingMode::kAvcNoUpgrade, EncodingMode::kAvcRefetch, EncodingMode::kSvc,
        EncodingMode::kHybrid}) {
    const auto vra = make(mode);
    for (const Case& c : cases) {
      SCOPED_TRACE(to_string(mode) + " " + std::to_string(c.current) + "/" +
                   std::to_string(c.base) + "/" + std::to_string(c.target));
      const char* want = mode == EncodingMode::kAvcNoUpgrade ? c.no_upgrade
                         : mode == EncodingMode::kAvcRefetch ? c.refetch
                         : mode == EncodingMode::kSvc        ? c.svc
                                                             : c.hybrid;
      const auto fresh = vra.consider_upgrade(key, c.current, c.base, c.target, 0.9,
                                              sim::seconds(2.0), 50'000.0);
      EXPECT_EQ(describe(fresh), want);
      vra.consider_upgrade_into(key, c.current, c.base, c.target, 0.9,
                                sim::seconds(2.0), 50'000.0, reused);
      EXPECT_EQ(reused.upgrade, fresh.upgrade);
      EXPECT_EQ(reused.fetches, fresh.fetches);
      EXPECT_EQ(reused.bytes, fresh.bytes);
      EXPECT_EQ(reused.fetches.data(), storage);
    }
  }
}

TEST_F(SperkeVraTest, UpgradeRequiresWindowAndProbability) {
  auto vra = make(EncodingMode::kSvc);
  const media::ChunkKey key{7, 3};
  // Too early (outside the upgrade window): refuse.
  auto d = vra.consider_upgrade(key, 0, 0, 2, 0.9, sim::seconds(10.0), 50'000.0);
  EXPECT_FALSE(d.upgrade);
  // Inside the window with good probability: upgrade with the deltas only.
  d = vra.consider_upgrade(key, 0, 0, 2, 0.9, sim::seconds(2.0), 50'000.0);
  EXPECT_TRUE(d.upgrade);
  ASSERT_EQ(d.fetches.size(), 2u);
  EXPECT_EQ(d.fetches[0].level, 1);
  EXPECT_EQ(d.fetches[1].level, 2);
  EXPECT_EQ(d.bytes, video->svc_layer_size_bytes(1, key) +
                         video->svc_layer_size_bytes(2, key));
  // Low probability: refuse.
  d = vra.consider_upgrade(key, 0, 0, 2, 0.05, sim::seconds(2.0), 50'000.0);
  EXPECT_FALSE(d.upgrade);
}

TEST_F(SperkeVraTest, UpgradeRespectsDeadlineFeasibility) {
  auto vra = make(EncodingMode::kSvc);
  const media::ChunkKey key{7, 3};
  // Bandwidth far too low to ship the delta in time.
  const auto d = vra.consider_upgrade(key, 0, 0, 4, 0.9, sim::milliseconds(200), 50.0);
  EXPECT_FALSE(d.upgrade);
}

TEST_F(SperkeVraTest, UpgradeGatesSitAtThePublishedValues) {
  auto vra = make(EncodingMode::kSvc);
  const media::ChunkKey key{7, 3};
  const double tiles = video->tile_count();
  const auto upgrades = [&](media::QualityLevel current,
                            media::QualityLevel target, double prob,
                            sim::Duration slack, double kbps) {
    return vra.consider_upgrade(key, current, current, target, prob, slack, kbps)
        .upgrade;
  };
  // Window: from 4 s before the deadline, not a microsecond earlier.
  EXPECT_TRUE(upgrades(0, 2, 0.9, sim::seconds(4.0), 50'000.0));
  EXPECT_FALSE(upgrades(0, 2, 0.9, sim::seconds(4.0) + sim::microseconds(1),
                        50'000.0));
  // Probability: at least 1.5x uniform (the whole-ladder gain keeps the
  // benefit gate open).
  EXPECT_TRUE(upgrades(0, 4, 1.5 / tiles, sim::seconds(2.0), 50'000.0));
  EXPECT_FALSE(upgrades(0, 4, 1.49 / tiles, sim::seconds(2.0), 50'000.0));
  // Benefit: lift x utility gain of at least 0.35, on the 1 -> 2 step,
  // with the lift above 1.5 on both sides.
  const double du = video->ladder().utility(2) - video->ladder().utility(1);
  EXPECT_TRUE(upgrades(1, 2, 0.35 / du * 1.005 / tiles, sim::seconds(2.0),
                       50'000.0));
  EXPECT_FALSE(upgrades(1, 2, 0.35 / du * 0.995 / tiles, sim::seconds(2.0),
                        50'000.0));
  // Feasibility: the layer-2 delta must download within 80 % of the slack.
  const double fit_kbps =
      static_cast<double>(video->svc_layer_size_bytes(2, key)) * 8.0 /
      1000.0 / (0.8 * 2.0);
  EXPECT_TRUE(upgrades(1, 2, 0.9, sim::seconds(2.0), fit_kbps * 1.01));
  EXPECT_FALSE(upgrades(1, 2, 0.9, sim::seconds(2.0), fit_kbps * 0.99));
}

TEST_F(SperkeVraTest, AvcRefetchRedownloadsWholeChunk) {
  auto vra = make(EncodingMode::kAvcRefetch);
  const media::ChunkKey key{7, 3};
  const auto d = vra.consider_upgrade(key, 0, 0, 2, 0.9, sim::seconds(2.0), 50'000.0);
  ASSERT_TRUE(d.upgrade);
  ASSERT_EQ(d.fetches.size(), 1u);
  EXPECT_EQ(d.fetches[0].encoding, media::Encoding::kAvc);
  EXPECT_EQ(d.bytes, video->avc_size_bytes(2, key));
  // The refetch is strictly bigger than the SVC delta would have been.
  EXPECT_GT(d.bytes, video->svc_layer_size_bytes(1, key) +
                         video->svc_layer_size_bytes(2, key));
}

TEST_F(SperkeVraTest, NoUpgradeModeNeverUpgrades) {
  auto vra = make(EncodingMode::kAvcNoUpgrade);
  const auto d =
      vra.consider_upgrade({7, 3}, 0, 0, 2, 0.9, sim::seconds(2.0), 50'000.0);
  EXPECT_FALSE(d.upgrade);
}

TEST_F(SperkeVraTest, LateFetchFromNothingUsesFullStack) {
  auto vra = make(EncodingMode::kSvc);
  const media::ChunkKey key{7, 3};
  const auto d = vra.consider_upgrade(key, -1, -1, 1, 0.9, sim::seconds(2.0), 50'000.0);
  ASSERT_TRUE(d.upgrade);
  ASSERT_EQ(d.fetches.size(), 2u);  // layers 0 and 1
  EXPECT_EQ(d.fetches[0].level, 0);
}

TEST_F(SperkeVraTest, EmptyFovThrows) {
  auto vra = make(EncodingMode::kSvc);
  EXPECT_THROW(
      (void)vra.plan_chunk(0, {}, {}, 10'000.0, sim::seconds(1.0), 0),
      std::invalid_argument);
}

TEST(EncodingModeNames, AllDistinct) {
  EXPECT_EQ(to_string(EncodingMode::kSvc), "svc");
  EXPECT_EQ(to_string(EncodingMode::kHybrid), "hybrid");
  EXPECT_EQ(to_string(EncodingMode::kAvcRefetch), "avc-refetch");
  EXPECT_EQ(to_string(EncodingMode::kAvcNoUpgrade), "avc-no-upgrade");
}

}  // namespace
}  // namespace sperke::abr
