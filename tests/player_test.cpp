#include <gtest/gtest.h>

#include <memory>

#include "hmp/head_trace.h"
#include "player/decoder_model.h"
#include "player/pipeline.h"
#include "sim/simulator.h"

namespace sperke::player {
namespace {

DecoderModelConfig default_model() { return DecoderModelConfig{}; }

TEST(DecoderModel, EffectiveDecodeGrowsWithContention) {
  const auto cfg = default_model();
  EXPECT_LT(effective_decode_ms(cfg, 1), effective_decode_ms(cfg, 4));
  EXPECT_LT(effective_decode_ms(cfg, 4), effective_decode_ms(cfg, 8));
  EXPECT_THROW((void)effective_decode_ms(cfg, 0), std::invalid_argument);
}

TEST(DecoderModel, Figure5ConfigurationOrdering) {
  const auto cfg = default_model();
  const double fps1 = analytic_fps(cfg, {.parallel_decoders = false,
                                         .frame_cache = false,
                                         .fov_only = false},
                                   8);
  const double fps2 = analytic_fps(cfg, {.parallel_decoders = true,
                                         .frame_cache = true,
                                         .fov_only = false},
                                   8);
  const double fps3 = analytic_fps(cfg, {.parallel_decoders = true,
                                         .frame_cache = true,
                                         .fov_only = true},
                                   4);
  EXPECT_LT(fps1, fps2);
  EXPECT_LT(fps2, fps3);
  // Rough calibration against the paper's 11 / 53 / 120 FPS.
  EXPECT_NEAR(fps1, 11.0, 3.0);
  EXPECT_NEAR(fps2, 53.0, 6.0);
  EXPECT_GT(fps3, 95.0);
}

TEST(DecoderModel, DisplayCapBinds) {
  auto cfg = default_model();
  cfg.base_decode_ms_per_tile = 0.1;
  cfg.render_ms_per_tile = 0.01;
  cfg.compose_ms = 0.1;
  const double fps = analytic_fps(cfg, {true, true, true}, 1);
  EXPECT_DOUBLE_EQ(fps, cfg.display_cap_fps);
}

TEST(DecoderModel, ParallelWithoutCacheIsIntermediate) {
  const auto cfg = default_model();
  const double fps_neither = analytic_fps(cfg, {false, false, false}, 8);
  const double fps_parallel_only = analytic_fps(cfg, {true, false, false}, 8);
  const double fps_both = analytic_fps(cfg, {true, true, false}, 8);
  EXPECT_GT(fps_parallel_only, fps_neither);
  EXPECT_GT(fps_both, fps_parallel_only);
}

TEST(DecoderModel, RejectsZeroTiles) {
  EXPECT_THROW((void)analytic_fps(default_model(), {true, true, false}, 0),
               std::invalid_argument);
}

TEST(FrameCache, StoresAndEvicts) {
  FrameCache cache(4);
  EXPECT_TRUE(cache.put(0, 1));
  EXPECT_TRUE(cache.put(0, 2));
  EXPECT_TRUE(cache.contains(0, 1));
  EXPECT_FALSE(cache.contains(1, 1));
  cache.evict_before(1);
  EXPECT_FALSE(cache.contains(0, 1));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(FrameCache, CapacityBounds) {
  FrameCache cache(2);
  EXPECT_TRUE(cache.put(0, 0));
  EXPECT_TRUE(cache.put(0, 1));
  EXPECT_FALSE(cache.put(0, 2));        // full
  EXPECT_TRUE(cache.put(0, 1));         // duplicate is fine
  EXPECT_THROW(FrameCache(0), std::invalid_argument);
}

TEST(DecoderPool, RespectsCapacity) {
  sim::Simulator simulator;
  DecoderPool pool(simulator, default_model());
  EXPECT_EQ(pool.capacity(), 8);
  int done = 0;
  for (int i = 0; i < 8; ++i) pool.decode([&] { ++done; });
  EXPECT_FALSE(pool.has_free());
  EXPECT_THROW(pool.decode([] {}), std::logic_error);
  simulator.run();
  EXPECT_EQ(done, 8);
  EXPECT_EQ(pool.tiles_decoded(), 8);
  EXPECT_TRUE(pool.has_free());
}

TEST(DecoderPool, ContentionSlowsSimultaneousJobs) {
  sim::Simulator simulator;
  DecoderPool pool(simulator, default_model());
  sim::Time first_done{}, last_done{};
  pool.decode([&] { first_done = simulator.now(); });
  simulator.run();
  const sim::Duration solo = first_done - sim::kTimeZero;
  sim::Simulator sim2;
  DecoderPool pool2(sim2, default_model());
  for (int i = 0; i < 8; ++i) {
    pool2.decode([&] { last_done = sim2.now(); });
  }
  sim2.run();
  EXPECT_GT(last_done - sim::kTimeZero, solo);
}

class PlayerSimTest : public ::testing::Test {
 protected:
  std::shared_ptr<geo::TileGeometry> geometry =
      std::make_shared<geo::TileGeometry>(geo::TileGrid(2, 4));

  hmp::HeadTrace trace = [] {
    hmp::HeadTraceConfig cfg;
    cfg.duration_s = 20.0;
    cfg.sample_rate_hz = 25.0;
    cfg.profile = hmp::UserProfile::adult();
    cfg.seed = 77;
    return hmp::generate_head_trace(cfg);
  }();

  double run_fps(PipelineConfig pipeline) {
    sim::Simulator simulator;
    PlayerSimulation::Config cfg;
    cfg.pipeline = pipeline;
    PlayerSimulation player(simulator, geometry, trace, cfg);
    player.start();
    simulator.run_until(sim::seconds(10.0));
    return player.measured_fps();
  }
};

TEST_F(PlayerSimTest, MeasuredFpsMatchesFigure5Ordering) {
  const double fps1 = run_fps({false, false, false});
  const double fps2 = run_fps({true, true, false});
  const double fps3 = run_fps({true, true, true});
  EXPECT_LT(fps1, fps2);
  EXPECT_LT(fps2, fps3);
  EXPECT_GT(fps1, 5.0);
  EXPECT_LT(fps3, 121.0);
}

TEST_F(PlayerSimTest, MeasuredCloseToAnalytic) {
  const double measured = run_fps({true, true, false});
  const double analytic = analytic_fps(default_model(), {true, true, false}, 8);
  EXPECT_NEAR(measured, analytic, analytic * 0.25);
}

TEST_F(PlayerSimTest, FovOnlyDecodesFewerTiles) {
  sim::Simulator s1, s2;
  PlayerSimulation::Config all_cfg;
  all_cfg.pipeline = {true, true, false};
  PlayerSimulation all_tiles(s1, geometry, trace, all_cfg);
  all_tiles.start();
  s1.run_until(sim::seconds(5.0));
  PlayerSimulation::Config fov_cfg;
  fov_cfg.pipeline = {true, true, true};
  PlayerSimulation fov_only(s2, geometry, trace, fov_cfg);
  fov_only.start();
  s2.run_until(sim::seconds(5.0));
  // FoV-only renders more frames from fewer decoded tiles per frame.
  EXPECT_GT(fov_only.frames_rendered(), all_tiles.frames_rendered());
}

TEST_F(PlayerSimTest, RejectsBadConfig) {
  sim::Simulator simulator;
  PlayerSimulation::Config cfg;
  cfg.prefetch_frames = 0;
  EXPECT_THROW(PlayerSimulation(simulator, geometry, trace, cfg),
               std::invalid_argument);
  PlayerSimulation::Config ok;
  PlayerSimulation player(simulator, geometry, trace, ok);
  player.start();
  EXPECT_THROW(player.start(), std::logic_error);
}

}  // namespace
}  // namespace sperke::player
