#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "hmp/accuracy.h"
#include "hmp/fusion.h"
#include "hmp/head_trace.h"
#include "hmp/heatmap.h"
#include "hmp/predictor.h"

namespace sperke::hmp {
namespace {

HeadTraceConfig trace_config(std::uint64_t seed = 1, double duration_s = 30.0) {
  HeadTraceConfig cfg;
  cfg.duration_s = duration_s;
  cfg.sample_rate_hz = 25.0;
  cfg.profile = UserProfile::adult();
  cfg.attractors = default_attractors(duration_s, 42);
  cfg.seed = seed;
  return cfg;
}

geo::TileGeometry test_geometry() {
  return geo::TileGeometry(geo::TileGrid(4, 6));
}

TEST(HeadTrace, GeneratorProducesOrderedSamples) {
  const HeadTrace trace = generate_head_trace(trace_config());
  ASSERT_GT(trace.samples().size(), 100u);
  for (std::size_t i = 1; i < trace.samples().size(); ++i) {
    EXPECT_GT(trace.samples()[i].t, trace.samples()[i - 1].t);
  }
  EXPECT_NEAR(sim::to_seconds(trace.duration()), 30.0, 0.2);
}

TEST(HeadTrace, DeterministicPerSeed) {
  const HeadTrace a = generate_head_trace(trace_config(5));
  const HeadTrace b = generate_head_trace(trace_config(5));
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); i += 50) {
    EXPECT_DOUBLE_EQ(a.samples()[i].orientation.yaw_deg,
                     b.samples()[i].orientation.yaw_deg);
  }
}

TEST(HeadTrace, DifferentSeedsDiverge) {
  const HeadTrace a = generate_head_trace(trace_config(5));
  const HeadTrace b = generate_head_trace(trace_config(6));
  double total_diff = 0.0;
  for (std::size_t i = 0; i < a.samples().size(); i += 25) {
    total_diff += geo::angular_distance_deg(a.samples()[i].orientation,
                                            b.samples()[i].orientation);
  }
  EXPECT_GT(total_diff, 10.0);
}

TEST(HeadTrace, SpeedRespectsProfileBound) {
  auto cfg = trace_config();
  cfg.profile = UserProfile::elderly();  // 60 deg/s bound
  const HeadTrace trace = generate_head_trace(cfg);
  const auto& samples = trace.samples();
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const double dt = sim::to_seconds(samples[i].t - samples[i - 1].t);
    const double speed = geo::angular_distance_deg(samples[i - 1].orientation,
                                                   samples[i].orientation) / dt;
    EXPECT_LT(speed, cfg.profile.max_speed_dps * 1.5)  // + jitter margin
        << "at sample " << i;
  }
}

TEST(HeadTrace, ElderlySlowerThanTeenager) {
  auto eld = trace_config(9);
  eld.profile = UserProfile::elderly();
  auto teen = trace_config(9);
  teen.profile = UserProfile::teenager();
  EXPECT_LT(generate_head_trace(eld).mean_speed_dps(),
            generate_head_trace(teen).mean_speed_dps());
}

TEST(HeadTrace, LyingPoseStaysInYawBand) {
  auto cfg = trace_config(11, 60.0);
  cfg.profile = UserProfile::lying();
  cfg.start = geo::Orientation{0.0, 0.0, 0.0};
  const HeadTrace trace = generate_head_trace(cfg);
  const double band = pose_yaw_half_range_deg(Pose::kLying);
  for (const auto& sample : trace.samples()) {
    EXPECT_LE(std::abs(sample.orientation.yaw_deg), band + 5.0);
  }
}

TEST(HeadTrace, InterpolationIsContinuous) {
  const HeadTrace trace = generate_head_trace(trace_config());
  const auto t1 = sim::seconds(5.00);
  const auto t2 = sim::seconds(5.02);  // half a sample apart
  EXPECT_LT(geo::angular_distance_deg(trace.orientation_at(t1),
                                      trace.orientation_at(t2)),
            10.0);
}

TEST(HeadTrace, OrientationClampsAtEnds) {
  const HeadTrace trace = generate_head_trace(trace_config());
  const auto before = trace.orientation_at(sim::Duration{-100});
  const auto at0 = trace.orientation_at(sim::kTimeZero);
  EXPECT_DOUBLE_EQ(before.yaw_deg, at0.yaw_deg);
  const auto after = trace.orientation_at(sim::seconds(1e6));
  EXPECT_DOUBLE_EQ(after.yaw_deg, trace.samples().back().orientation.yaw_deg);
}

TEST(HeadTrace, RejectsBadInput) {
  EXPECT_THROW(HeadTrace({}, 25.0), std::invalid_argument);
  std::vector<HeadSample> bad{{sim::seconds(1.0), {}}, {sim::seconds(1.0), {}}};
  EXPECT_THROW(HeadTrace(std::move(bad), 25.0), std::invalid_argument);
  auto cfg = trace_config();
  cfg.duration_s = -1.0;
  EXPECT_THROW((void)generate_head_trace(cfg), std::invalid_argument);
}

// NaN and infinity must fail before the sample-count cast.
TEST(HeadTrace, GeneratorRejectsNonFiniteDuration) {
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                           0.0, 1e300}) {
    auto cfg = trace_config();
    cfg.duration_s = bad;
    EXPECT_THROW((void)generate_head_trace(cfg), std::invalid_argument) << bad;
  }
}

TEST(HeadTrace, GeneratorRejectsNonFiniteSampleRate) {
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                           0.0, -25.0}) {
    auto cfg = trace_config();
    cfg.sample_rate_hz = bad;
    EXPECT_THROW((void)generate_head_trace(cfg), std::invalid_argument) << bad;
  }
  EXPECT_THROW(HeadTrace({{sim::seconds(0.0), {}}}, std::nan("")),
               std::invalid_argument);
}

TEST(Predictors, StaticReturnsLastObservation) {
  StaticPredictor p;
  p.observe({sim::seconds(1.0), {10.0, 5.0, 0.0}});
  p.observe({sim::seconds(2.0), {20.0, -5.0, 0.0}});
  const auto out = p.predict(sim::seconds(1.0));
  EXPECT_DOUBLE_EQ(out.yaw_deg, 20.0);
  EXPECT_DOUBLE_EQ(out.pitch_deg, -5.0);
}

TEST(Predictors, DeadReckoningExtrapolatesVelocity) {
  DeadReckoningPredictor p(sim::milliseconds(500), /*damping_tau_s=*/100.0);
  // 10 deg/s yaw motion.
  for (int i = 0; i <= 10; ++i) {
    p.observe({sim::milliseconds(100 * i), {i * 1.0, 0.0, 0.0}});
  }
  const auto out = p.predict(sim::seconds(1.0));
  EXPECT_NEAR(out.yaw_deg, 10.0 + 10.0, 0.6);  // ~linear for huge tau
}

TEST(Predictors, DeadReckoningDampsLongHorizons) {
  DeadReckoningPredictor p(sim::milliseconds(500), /*damping_tau_s=*/0.5);
  for (int i = 0; i <= 10; ++i) {
    p.observe({sim::milliseconds(100 * i), {i * 10.0, 0.0, 0.0}});
  }
  // 100 deg/s velocity, but damping means travel << 100 deg over 1 s.
  const auto out = p.predict(sim::seconds(1.0));
  const double travel = angle_diff_deg(out.yaw_deg, 100.0);
  EXPECT_LT(std::abs(travel), 60.0);
  EXPECT_GT(std::abs(travel), 20.0);
}

TEST(Predictors, LinearRegressionTracksLinearMotion) {
  LinearRegressionPredictor p(sim::seconds(1.0));
  for (int i = 0; i <= 25; ++i) {
    p.observe({sim::milliseconds(40 * i), {i * 0.8, i * 0.2, 0.0}});
  }
  // Motion: 20 deg/s yaw, 5 deg/s pitch; last sample at yaw=20, pitch=5.
  // The slope is trusted for a damped travel time
  // h_eff = 0.8 * (1 - exp(-0.5/0.8)) = 0.3718 s.
  const auto out = p.predict(sim::milliseconds(500));
  EXPECT_NEAR(out.yaw_deg, 20.0 + 20.0 * 0.3718, 0.5);
  EXPECT_NEAR(out.pitch_deg, 5.0 + 5.0 * 0.3718, 0.5);
}

TEST(Predictors, LinearRegressionHandlesYawWrap) {
  LinearRegressionPredictor p(sim::seconds(1.0));
  // Crossing the 180/-180 seam at 40 deg/s.
  for (int i = 0; i <= 25; ++i) {
    const double yaw = wrap_deg180(170.0 + i * 1.6);
    p.observe({sim::milliseconds(40 * i), {yaw, 0.0, 0.0}});
  }
  const auto out = p.predict(sim::milliseconds(250));
  // Last yaw = 170+40 = 210 -> -150; plus 40 deg/s for the damped
  // h_eff = 0.8 * (1 - exp(-0.25/0.8)) = 0.2147 s -> -141.4.
  EXPECT_NEAR(out.yaw_deg, -150.0 + 40.0 * 0.2147, 1.0);
}

TEST(Predictors, PredictWithoutHistoryIsSafe) {
  for (const char* name : {"static", "dead-reckoning", "linear-regression"}) {
    auto p = make_orientation_predictor(name);
    const auto out = p->predict(sim::seconds(1.0));
    EXPECT_DOUBLE_EQ(out.yaw_deg, 0.0) << name;
  }
}

TEST(Predictors, ResetClearsState) {
  LinearRegressionPredictor p;
  for (int i = 0; i <= 10; ++i) {
    p.observe({sim::milliseconds(40 * i), {i * 2.0, 0.0, 0.0}});
  }
  p.reset();
  EXPECT_DOUBLE_EQ(p.predict(sim::seconds(1.0)).yaw_deg, 0.0);
}

TEST(Predictors, FactoryRejectsUnknown) {
  EXPECT_THROW((void)make_orientation_predictor("oracle"), std::invalid_argument);
}

TEST(PredictorAccuracy, ShortHorizonBeatsLongHorizon) {
  const HeadTrace trace = generate_head_trace(trace_config(21, 60.0));
  const auto geometry = test_geometry();
  const geo::Viewport vp{100.0, 90.0};
  LinearRegressionPredictor p;
  const auto short_h = evaluate_predictor(p, trace, sim::milliseconds(200), geometry, vp);
  const auto long_h = evaluate_predictor(p, trace, sim::seconds(3.0), geometry, vp);
  EXPECT_LT(short_h.mean_error_deg, long_h.mean_error_deg);
  EXPECT_GT(short_h.tile_recall, long_h.tile_recall);
}

TEST(PredictorAccuracy, MotionPredictorBeatsNothingAtShortHorizon) {
  const HeadTrace trace = generate_head_trace(trace_config(23, 60.0));
  const auto geometry = test_geometry();
  const geo::Viewport vp{100.0, 90.0};
  LinearRegressionPredictor lr;
  StaticPredictor st;
  const auto r_lr = evaluate_predictor(lr, trace, sim::milliseconds(500), geometry, vp);
  const auto r_st = evaluate_predictor(st, trace, sim::milliseconds(500), geometry, vp);
  EXPECT_GT(r_lr.evaluations, 100);
  // LR must stay in the same ballpark as static (saccades can make either
  // win on a given trace; a blowup would signal a regression).
  EXPECT_LT(r_lr.mean_error_deg, r_st.mean_error_deg * 1.6);
}

TEST(Heatmap, AccumulatesAndNormalizes) {
  ViewingHeatmap map(6, 4);
  const std::vector<geo::TileId> view{1, 2};
  map.add_view(0, view);
  map.add_view(0, view);
  const auto probs = map.probabilities(0);
  double sum = 0.0;
  for (double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_GT(probs[1], probs[0]);
  EXPECT_DOUBLE_EQ(map.count(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(map.total(0), 4.0);
}

TEST(Heatmap, EmptyChunkIsUniform) {
  ViewingHeatmap map(4, 2);
  const auto probs = map.probabilities(1);
  for (double p : probs) EXPECT_NEAR(p, 0.25, 1e-9);
}

TEST(Heatmap, AddTraceMatchesPerSampleVisibleTiles) {
  // add_trace reuses one tile vector and one Scratch across samples; the
  // counts must equal folding in a fresh visible_tiles() set per sample.
  auto geometry = test_geometry();
  const HeadTrace trace = generate_head_trace(trace_config(17, 6.0));
  const geo::Viewport viewport{100.0, 90.0};
  const sim::Duration chunk = sim::seconds(1.0);
  constexpr int kSamples = 5;
  ViewingHeatmap map(geometry.grid().tile_count(), 8);
  map.add_trace(trace, geometry, viewport, chunk, kSamples);
  ViewingHeatmap reference(geometry.grid().tile_count(), 8);
  for (media::ChunkIndex c = 0; c < 8; ++c) {
    const sim::Time start = chunk * c;
    if (start > trace.duration()) break;
    for (int s = 0; s < kSamples; ++s) {
      const sim::Time t = start + chunk * s / kSamples;
      reference.add_view(c, geometry.visible_tiles(trace.orientation_at(t), viewport));
    }
  }
  for (media::ChunkIndex c = 0; c < 8; ++c) {
    EXPECT_EQ(map.total(c), reference.total(c)) << "chunk " << c;
    for (geo::TileId tile = 0; tile < geometry.grid().tile_count(); ++tile) {
      EXPECT_EQ(map.count(c, tile), reference.count(c, tile))
          << "chunk " << c << " tile " << tile;
    }
  }
  EXPECT_GT(map.total(0), 0.0);
  EXPECT_EQ(map.total(7), 0.0);  // past the 6 s trace
}

TEST(Heatmap, AddTraceCoversWatchedTiles) {
  auto geometry = test_geometry();
  const HeadTrace trace = generate_head_trace(trace_config(31, 10.0));
  ViewingHeatmap map(geometry.grid().tile_count(), 10);
  map.add_trace(trace, geometry, {100.0, 90.0}, sim::seconds(1.0));
  // Every chunk should have nonzero observations.
  for (media::ChunkIndex c = 0; c < 10; ++c) {
    EXPECT_GT(map.total(c), 0.0) << "chunk " << c;
  }
}

TEST(Heatmap, OutOfRangeThrows) {
  ViewingHeatmap map(4, 2);
  const std::vector<geo::TileId> bad{7};
  EXPECT_THROW(map.add_view(0, bad), std::out_of_range);
  EXPECT_THROW((void)map.probabilities(9), std::out_of_range);
}

class FusionTest : public ::testing::Test {
 protected:
  std::shared_ptr<geo::TileGeometry> geometry =
      std::make_shared<geo::TileGeometry>(geo::TileGrid(4, 6));
  geo::Viewport viewport{100.0, 90.0};

  FusionPredictor make_fusion(const ViewingHeatmap* crowd = nullptr,
                              ViewingContext context = {}) {
    return FusionPredictor(geometry, viewport,
                           std::make_unique<LinearRegressionPredictor>(), crowd,
                           context);
  }
};

TEST_F(FusionTest, ProbabilitiesSumToOne) {
  auto fusion = make_fusion();
  fusion.observe({sim::kTimeZero, {0.0, 0.0, 0.0}});
  const auto probs = fusion.tile_probabilities(sim::seconds(1.0), 0);
  double sum = 0.0;
  for (double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(FusionTest, MassConcentratesNearPredictedCenter) {
  auto fusion = make_fusion();
  for (int i = 0; i <= 10; ++i) {
    fusion.observe({sim::milliseconds(100 * i), {0.0, 0.0, 0.0}});
  }
  const auto probs = fusion.tile_probabilities(sim::milliseconds(200), 0);
  const geo::TileId center = geometry->grid().tile_at(
      geo::uv_from_direction(geo::Orientation{}.direction()));
  // The tile under the (static) gaze should be among the most probable.
  double max_prob = 0.0;
  for (double p : probs) max_prob = std::max(max_prob, p);
  EXPECT_GT(probs[static_cast<std::size_t>(center)], 0.6 * max_prob);
}

TEST_F(FusionTest, CrowdPriorShiftsLongHorizonMass) {
  ViewingHeatmap crowd(geometry->grid().tile_count(), 10);
  // The crowd overwhelmingly watches tile 9 during chunk 5.
  const std::vector<geo::TileId> popular{9};
  for (int i = 0; i < 200; ++i) crowd.add_view(5, popular);
  auto fusion = make_fusion(&crowd);
  fusion.observe({sim::kTimeZero, {0.0, 0.0, 0.0}});
  const auto with_crowd = fusion.tile_probabilities(sim::seconds(5.0), 5);

  auto fusion_plain = make_fusion();
  fusion_plain.observe({sim::kTimeZero, {0.0, 0.0, 0.0}});
  const auto without = fusion_plain.tile_probabilities(sim::seconds(5.0), 5);
  EXPECT_GT(with_crowd[9], without[9] * 1.5);
}

TEST_F(FusionTest, MotionDominatesShortHorizons) {
  // The crowd stares at a tile far behind the user; at a 100 ms horizon
  // the user's own gaze direction must still dominate the blend.
  const geo::TileId behind = geometry->grid().tile_at(
      geo::uv_from_direction(geo::Orientation{180.0, 0.0, 0.0}.direction()));
  ViewingHeatmap crowd(geometry->grid().tile_count(), 10);
  const std::vector<geo::TileId> popular{behind};
  for (int i = 0; i < 200; ++i) crowd.add_view(0, popular);
  auto fusion = make_fusion(&crowd);
  fusion.observe({sim::kTimeZero, {0.0, 0.0, 0.0}});
  const geo::TileId gaze = geometry->grid().tile_at(
      geo::uv_from_direction(geo::Orientation{}.direction()));
  const auto probs = fusion.tile_probabilities(sim::milliseconds(100), 0);
  EXPECT_GT(probs[static_cast<std::size_t>(gaze)],
            probs[static_cast<std::size_t>(behind)]);
}

TEST_F(FusionTest, SpeedBoundPrunesFarTiles) {
  ViewingContext context;
  context.max_speed_dps = 30.0;  // slow user
  auto fusion = make_fusion(nullptr, context);
  fusion.observe({sim::kTimeZero, {0.0, 0.0, 0.0}});
  const auto probs = fusion.tile_probabilities(sim::milliseconds(500), 0);
  // A tile ~180 deg away cannot be reached in 0.5 s at 30 deg/s.
  const geo::TileId behind = geometry->grid().tile_at(
      geo::uv_from_direction(geo::Orientation{180.0, 0.0, 0.0}.direction()));
  EXPECT_DOUBLE_EQ(probs[static_cast<std::size_t>(behind)], 0.0);
}

TEST_F(FusionTest, LyingPosePrunesRearTiles) {
  ViewingContext context;
  context.pose = Pose::kLying;
  context.home_yaw_deg = 0.0;
  auto fusion = make_fusion(nullptr, context);
  fusion.observe({sim::kTimeZero, {0.0, 0.0, 0.0}});
  const auto probs = fusion.tile_probabilities(sim::seconds(2.0), 0);
  const geo::TileId behind = geometry->grid().tile_at(
      geo::uv_from_direction(geo::Orientation{180.0, 0.0, 0.0}.direction()));
  EXPECT_DOUBLE_EQ(probs[static_cast<std::size_t>(behind)], 0.0);
}

TEST_F(FusionTest, EngagementConcentratesPrediction) {
  // A fully engaged viewer's probability map at a given horizon is more
  // concentrated (higher max, lower entropy) than a disengaged one's.
  auto run = [&](double engagement) {
    ViewingContext context;
    context.engagement = engagement;
    auto fusion = make_fusion(nullptr, context);
    for (int i = 0; i <= 10; ++i) {
      fusion.observe({sim::milliseconds(100 * i), {i * 3.0, 0.0, 0.0}});
    }
    return fusion.tile_probabilities(sim::seconds(2.0), 0);
  };
  const auto focused = run(1.0);
  const auto scanning = run(0.0);
  const double focused_max = *std::max_element(focused.begin(), focused.end());
  const double scanning_max = *std::max_element(scanning.begin(), scanning.end());
  EXPECT_GT(focused_max, scanning_max);
}

TEST_F(FusionTest, MismatchedHeatmapThrows) {
  ViewingHeatmap wrong(99, 10);
  EXPECT_THROW(make_fusion(&wrong), std::invalid_argument);
}

TEST(TileHitRate, PerfectWhenBudgetCoversAll) {
  const std::vector<double> probs{0.5, 0.3, 0.1, 0.1};
  const std::vector<geo::TileId> actual{0, 1};
  EXPECT_DOUBLE_EQ(tile_hit_rate(probs, actual, 2), 1.0);
}

TEST(TileHitRate, PartialWhenBudgetTooSmall) {
  const std::vector<double> probs{0.5, 0.1, 0.3, 0.1};
  const std::vector<geo::TileId> actual{0, 1};  // tile 1 ranked last-ish
  EXPECT_DOUBLE_EQ(tile_hit_rate(probs, actual, 2), 0.5);
}

TEST(TileHitRate, EmptyActualIsPerfect) {
  const std::vector<double> probs{1.0};
  EXPECT_DOUBLE_EQ(tile_hit_rate(probs, {}, 1), 1.0);
}

}  // namespace
}  // namespace sperke::hmp
