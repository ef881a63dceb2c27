#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "core/transport.h"
#include "live/tiled_viewer.h"
#include "net/link.h"
#include "sim/simulator.h"

namespace sperke::live {
namespace {

std::shared_ptr<media::VideoModel> live_video(double duration_s = 30.0) {
  media::VideoModelConfig cfg;
  cfg.duration_s = duration_s;
  cfg.chunk_duration_s = 1.0;
  cfg.tile_rows = 4;
  cfg.tile_cols = 6;
  cfg.seed = 13;
  return std::make_shared<media::VideoModel>(cfg);
}

hmp::HeadTrace viewer_trace(std::uint64_t seed, double duration_s = 60.0) {
  hmp::HeadTraceConfig cfg;
  cfg.duration_s = duration_s;
  cfg.attractors = hmp::default_attractors(duration_s, 77);
  cfg.seed = seed;
  return hmp::generate_head_trace(cfg);
}

TiledLiveReport run_viewer(double link_kbps, TiledLiveConfig config,
                           std::uint64_t trace_seed = 5,
                           LiveCrowdHmp* crowd = nullptr) {
  sim::Simulator simulator;
  net::Link link(simulator,
                 net::LinkConfig{.name = "dl",
                                 .bandwidth = net::BandwidthTrace::constant(link_kbps),
                                 .rtt = sim::milliseconds(30), .faults = {}});
  net::LinkSource source(link);
  core::SingleLinkTransport transport(source, {.max_concurrent = 12, .recovery = {}});
  auto video = live_video();
  const auto trace = viewer_trace(trace_seed);
  TiledLiveSession session(simulator, video, transport, trace, config, crowd);
  session.start();
  simulator.run_until(sim::seconds(120.0));
  return session.report();
}

TEST(TiledLive, FastLinkPlaysEverything) {
  const auto report = run_viewer(50'000.0, TiledLiveConfig{});
  EXPECT_TRUE(report.finished);
  EXPECT_EQ(report.chunks_played, 30);
  EXPECT_EQ(report.chunks_skipped, 0);
  EXPECT_LT(report.mean_blank_fraction, 0.05);
  EXPECT_GT(report.qoe.mean_viewport_utility, 0.4);
}

TEST(TiledLive, ZeroBandwidthSkipsEverything) {
  const auto report = run_viewer(0.001, TiledLiveConfig{});
  EXPECT_TRUE(report.finished);
  EXPECT_EQ(report.chunks_played, 0);
  EXPECT_EQ(report.chunks_skipped, 30);
  EXPECT_EQ(report.qoe.skipped_chunks, 30);
}

TEST(TiledLive, ConstrainedLinkDegradesGracefully) {
  const auto fast = run_viewer(50'000.0, TiledLiveConfig{});
  const auto slow = run_viewer(4'000.0, TiledLiveConfig{});
  EXPECT_TRUE(slow.finished);
  // Live never rebuffers: degradations appear as quality/blank/skips.
  EXPECT_EQ(slow.qoe.stall_events, 0);
  EXPECT_LE(slow.qoe.mean_viewport_utility, fast.qoe.mean_viewport_utility);
  EXPECT_EQ(slow.chunks_played + slow.chunks_skipped, 30);
}

TEST(TiledLive, RejectsInfeasibleLatencyTarget) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  net::LinkSource source(link);
  core::SingleLinkTransport transport(source);
  auto video = live_video();
  const auto trace = viewer_trace(1);
  TiledLiveConfig config;
  config.e2e_target_s = 1.0;  // below ingest (3 s) + one chunk
  EXPECT_THROW(
      TiledLiveSession(simulator, video, transport, trace, config),
      std::invalid_argument);
}

TEST(TiledLive, RejectsBadConfig) {
  // Each row breaks one field; the constructor must throw before start()
  // schedules anything (a non-finite period or latency would be an
  // undefined cast there, a non-positive scan period a throw inside the
  // event loop).
  const std::vector<std::pair<const char*, void (*)(TiledLiveConfig&)>> rows{
      {"e2e target NaN",
       [](TiledLiveConfig& c) {
         c.e2e_target_s = std::numeric_limits<double>::quiet_NaN();
       }},
      {"e2e target inf",
       [](TiledLiveConfig& c) {
         c.e2e_target_s = std::numeric_limits<double>::infinity();
       }},
      {"head rate 0", [](TiledLiveConfig& c) { c.head_sample_hz = 0.0; }},
      {"head rate NaN",
       [](TiledLiveConfig& c) {
         c.head_sample_hz = std::numeric_limits<double>::quiet_NaN();
       }},
      {"head rate inf",
       [](TiledLiveConfig& c) {
         c.head_sample_hz = std::numeric_limits<double>::infinity();
       }},
      {"scan period 0",
       [](TiledLiveConfig& c) { c.upgrade_scan_period = sim::Duration{0}; }},
  };
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  net::LinkSource source(link);
  core::SingleLinkTransport transport(source);
  auto video = live_video();
  const auto trace = viewer_trace(1);
  for (const auto& [what, breaks] : rows) {
    TiledLiveConfig bad;
    breaks(bad);
    EXPECT_THROW(TiledLiveSession(simulator, video, transport, trace, bad),
                 std::invalid_argument)
        << what;
  }
}

TEST(TiledLive, DoubleStartThrows) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  net::LinkSource source(link);
  core::SingleLinkTransport transport(source);
  auto video = live_video();
  const auto trace = viewer_trace(1);
  TiledLiveSession session(simulator, video, transport, trace, TiledLiveConfig{});
  session.start();
  EXPECT_THROW(session.start(), std::logic_error);
}

TEST(TiledLive, ViewerPopulatesCrowdMap) {
  auto video = live_video();
  LiveCrowdHmp crowd(video->tile_count(), video->chunk_count());
  (void)run_viewer(50'000.0, TiledLiveConfig{}, 5, &crowd);
  // A ~8 s latency viewer's views become knowable shortly after display.
  int total = 0;
  for (media::ChunkIndex c = 0; c < video->chunk_count(); ++c) {
    total += crowd.observations(c, sim::seconds(1e6));
  }
  EXPECT_EQ(total, 30);
  // Observation for chunk 0 is stamped at ~ 8 s + report delay.
  EXPECT_EQ(crowd.observations(0, sim::seconds(7.0)), 0);
  EXPECT_EQ(crowd.observations(0, sim::seconds(9.0)), 1);
}

TEST(TiledLive, CrowdMismatchThrows) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  net::LinkSource source(link);
  core::SingleLinkTransport transport(source);
  auto video = live_video();
  const auto trace = viewer_trace(1);
  LiveCrowdHmp wrong(99, 10);
  EXPECT_THROW(TiledLiveSession(simulator, video, transport, trace,
                                TiledLiveConfig{}, &wrong),
               std::invalid_argument);
}

TEST(TiledLive, SvcUpgradesHappenOnGoodLinks) {
  TiledLiveConfig config;
  config.abr.sperke.mode = abr::EncodingMode::kSvc;
  const auto report = run_viewer(40'000.0, config);
  EXPECT_TRUE(report.finished);
  EXPECT_GT(report.upgrades, 0);
}

TEST(TiledLive, EndToEndCrowdHelpsLaggard) {
  // Shared world: 6 low-latency viewers feed the crowd map while one
  // laggard (25 s behind) watches with / without the crowd prior.
  auto run_population = [&](bool laggard_uses_crowd) {
    sim::Simulator simulator;
    auto video = live_video();
    LiveCrowdHmp crowd(video->tile_count(), video->chunk_count());

    std::vector<std::unique_ptr<net::Link>> links;
    std::vector<std::unique_ptr<net::LinkSource>> sources;
    std::vector<std::unique_ptr<core::SingleLinkTransport>> transports;
    std::vector<std::unique_ptr<hmp::HeadTrace>> traces;
    std::vector<std::unique_ptr<TiledLiveSession>> sessions;
    for (int v = 0; v < 6; ++v) {
      links.push_back(std::make_unique<net::Link>(
          simulator,
          net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(30'000.0),
                          .rtt = sim::milliseconds(25), .faults = {}}));
      sources.push_back(std::make_unique<net::LinkSource>(*links.back()));
      transports.push_back(
          std::make_unique<core::SingleLinkTransport>(*sources.back(),
                                                      core::TransportOptions{.max_concurrent = 12, .recovery = {}}));
      traces.push_back(
          std::make_unique<hmp::HeadTrace>(viewer_trace(100 + v)));
      TiledLiveConfig cfg;
      cfg.e2e_target_s = 5.0 + v;  // 5..10 s: the low-latency crowd
      sessions.push_back(std::make_unique<TiledLiveSession>(
          simulator, video, *transports.back(), *traces.back(), cfg, &crowd));
      sessions.back()->start();
    }
    // The laggard: 25 s behind, on a tight link where FoV accuracy counts.
    links.push_back(std::make_unique<net::Link>(
        simulator,
        net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(5'000.0),
                        .rtt = sim::milliseconds(40), .faults = {}}));
    sources.push_back(std::make_unique<net::LinkSource>(*links.back()));
    transports.push_back(
        std::make_unique<core::SingleLinkTransport>(*sources.back(),
                                                      core::TransportOptions{.max_concurrent = 12, .recovery = {}}));
    traces.push_back(std::make_unique<hmp::HeadTrace>(viewer_trace(200)));
    TiledLiveConfig laggard_cfg;
    laggard_cfg.e2e_target_s = 25.0;
    sessions.push_back(std::make_unique<TiledLiveSession>(
        simulator, video, *transports.back(), *traces.back(), laggard_cfg,
        laggard_uses_crowd ? &crowd : nullptr));
    sessions.back()->start();

    simulator.run_until(sim::seconds(180.0));
    return sessions.back()->report();
  };

  const auto with_crowd = run_population(true);
  const auto without = run_population(false);
  ASSERT_TRUE(with_crowd.finished);
  ASSERT_TRUE(without.finished);
  // The crowd prior should not hurt, and typically reduces blanks/skips.
  EXPECT_LE(with_crowd.chunks_skipped, without.chunks_skipped + 1);
  EXPECT_GE(with_crowd.qoe.score, without.qoe.score - 2.0);
}

}  // namespace
}  // namespace sperke::live
