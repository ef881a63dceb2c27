#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/transport.h"
#include "live/tiled_viewer.h"
#include "net/link.h"
#include "obs/telemetry.h"
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

// A seeded fault storm: a hard outage plus per-transfer failures.
net::FaultPlan stormy_plan() {
  net::FaultPlan plan;
  plan.outages.push_back({.start_s = 12.0, .duration_s = 2.0});
  plan.transfer_failure_prob = 0.15;
  plan.seed = 7;
  return plan;
}

// One viewer on its own link. The transport retries iff the viewer
// recovers (config.fetch_recovery).
TiledLiveReport run_viewer(double link_kbps, TiledLiveConfig config,
                           std::uint64_t trace_seed = 5,
                           LiveCrowdHmp* crowd = nullptr,
                           net::FaultPlan faults = {}) {
  sim::Simulator simulator;
  net::Link link(simulator,
                 net::LinkConfig{.name = "dl",
                                 .bandwidth = net::BandwidthTrace::constant(link_kbps),
                                 .rtt = sim::milliseconds(30),
                                 .faults = std::move(faults)});
  core::TransportOptions options{.max_concurrent = 12, .recovery = {}};
  options.recovery.enabled = config.fetch_recovery;
  core::SingleLinkTransport transport(link, options);
  auto video = live_video();
  const auto trace = viewer_trace(trace_seed);
  TiledLiveSession session(simulator, video, transport, trace, config, crowd);
  session.start();
  simulator.run_until(sim::seconds(120.0));
  return session.report();
}

// Shared world: 6 low-latency viewers feed the crowd map while one laggard
// (25 s behind) watches with or without the crowd prior. Returns the
// laggard's report.
TiledLiveReport run_crowd_population(bool laggard_uses_crowd) {
  sim::Simulator simulator;
  auto video = live_video();
  LiveCrowdHmp crowd(video->tile_count(), video->chunk_count());

  std::vector<std::unique_ptr<net::Link>> links;
  std::vector<std::unique_ptr<core::SingleLinkTransport>> transports;
  std::vector<std::unique_ptr<hmp::HeadTrace>> traces;
  std::vector<std::unique_ptr<TiledLiveSession>> sessions;
  for (int v = 0; v < 6; ++v) {
    links.push_back(std::make_unique<net::Link>(
        simulator,
        net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(30'000.0),
                        .rtt = sim::milliseconds(25), .faults = {}}));
    transports.push_back(
        std::make_unique<core::SingleLinkTransport>(*links.back(),
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
  transports.push_back(
      std::make_unique<core::SingleLinkTransport>(*links.back(),
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
}

// Every field of `got` equals `want`, doubles included (seeded runs are
// bit-reproducible).
void expect_pinned(const TiledLiveReport& got, const TiledLiveReport& want) {
  EXPECT_EQ(got.qoe.chunks_played, want.qoe.chunks_played);
  EXPECT_EQ(got.qoe.mean_viewport_utility, want.qoe.mean_viewport_utility);
  EXPECT_EQ(got.qoe.stall_seconds, want.qoe.stall_seconds);
  EXPECT_EQ(got.qoe.stall_events, want.qoe.stall_events);
  EXPECT_EQ(got.qoe.skipped_chunks, want.qoe.skipped_chunks);
  EXPECT_EQ(got.qoe.switch_magnitude, want.qoe.switch_magnitude);
  EXPECT_EQ(got.qoe.blank_fraction_mean, want.qoe.blank_fraction_mean);
  EXPECT_EQ(got.qoe.bytes_downloaded, want.qoe.bytes_downloaded);
  EXPECT_EQ(got.qoe.bytes_wasted, want.qoe.bytes_wasted);
  EXPECT_EQ(got.qoe.score, want.qoe.score);
  EXPECT_EQ(got.fetches, want.fetches);
  EXPECT_EQ(got.upgrades, want.upgrades);
  EXPECT_EQ(got.fetch_failures, want.fetch_failures);
  EXPECT_EQ(got.degraded_retries, want.degraded_retries);
  EXPECT_EQ(got.finished, want.finished);
}

TEST(TiledLive, FastLinkPlaysEverything) {
  const auto report = run_viewer(50'000.0, TiledLiveConfig{});
  EXPECT_TRUE(report.finished);
  EXPECT_EQ(report.qoe.chunks_played, 30);
  EXPECT_EQ(report.qoe.skipped_chunks, 0);
  EXPECT_LT(report.qoe.blank_fraction_mean, 0.05);
  EXPECT_GT(report.qoe.mean_viewport_utility, 0.4);
}

TEST(TiledLive, ZeroBandwidthSkipsEverything) {
  const auto report = run_viewer(0.001, TiledLiveConfig{});
  EXPECT_TRUE(report.finished);
  EXPECT_EQ(report.qoe.chunks_played, 0);
  EXPECT_EQ(report.qoe.skipped_chunks, 30);
}

TEST(TiledLive, ConstrainedLinkDegradesGracefully) {
  const auto fast = run_viewer(50'000.0, TiledLiveConfig{});
  const auto slow = run_viewer(4'000.0, TiledLiveConfig{});
  EXPECT_TRUE(slow.finished);
  // Live never rebuffers: degradations appear as quality/blank/skips.
  EXPECT_EQ(slow.qoe.stall_events, 0);
  EXPECT_LE(slow.qoe.mean_viewport_utility, fast.qoe.mean_viewport_utility);
  EXPECT_EQ(slow.qoe.chunks_played + slow.qoe.skipped_chunks, 30);
}

TEST(TiledLive, RejectsInfeasibleLatencyTarget) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  core::SingleLinkTransport transport(link);
  auto video = live_video();
  const auto trace = viewer_trace(1);
  TiledLiveConfig config;
  config.e2e_target_s = 1.0;  // below ingest (3 s) + one chunk
  EXPECT_THROW(
      TiledLiveSession(simulator, video, transport, trace, config),
      std::invalid_argument);
  // The floor is exactly the 3 s ingest delay plus the 1 s chunk.
  config.e2e_target_s = 3.99;
  EXPECT_THROW(
      TiledLiveSession(simulator, video, transport, trace, config),
      std::invalid_argument);
  config.e2e_target_s = 4.0;
  EXPECT_NO_THROW(TiledLiveSession(simulator, video, transport, trace, config));
}

TEST(TiledLive, RejectsBadConfig) {
  // Each row breaks one field; the constructor must throw before start()
  // schedules anything (a non-finite latency would be an undefined cast
  // there).
  const std::vector<std::pair<const char*, void (*)(TiledLiveConfig&)>> rows{
      {"e2e target NaN",
       [](TiledLiveConfig& c) {
         c.e2e_target_s = std::numeric_limits<double>::quiet_NaN();
       }},
      {"e2e target inf",
       [](TiledLiveConfig& c) {
         c.e2e_target_s = std::numeric_limits<double>::infinity();
       }},
      {"e2e target 0", [](TiledLiveConfig& c) { c.e2e_target_s = 0.0; }},
      {"e2e target < 0", [](TiledLiveConfig& c) { c.e2e_target_s = -8.0; }},
  };
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  core::SingleLinkTransport transport(link);
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
  core::SingleLinkTransport transport(link);
  auto video = live_video();
  const auto trace = viewer_trace(1);
  TiledLiveSession session(simulator, video, transport, trace, TiledLiveConfig{});
  session.start();
  EXPECT_THROW(session.start(), std::logic_error);
}

// A viewer destroyed mid-run while its transport still holds its
// requests: they settle after the viewer is gone and must not touch it.
// The simulator keeps running, so under ASan a settle that reaches the
// freed viewer is a heap-use-after-free.
TEST(TiledLive, DestroyedWhileFetchingIgnoresLateSettles) {
  sim::Simulator simulator;
  net::Link link(simulator,
                 net::LinkConfig{.name = "dl",
                                 .bandwidth = net::BandwidthTrace::constant(2'000.0),
                                 .rtt = sim::milliseconds(30),
                                 .faults = {}});
  core::SingleLinkTransport transport(link);
  auto video = live_video();
  const auto trace = viewer_trace(1);
  LiveCrowdHmp crowd(video->tile_count(), video->chunk_count());
  {
    TiledLiveSession session(simulator, video, transport, trace,
                             TiledLiveConfig{}, &crowd);
    session.start();
    // Chunk 1 is ingested at 5 s; its fetches are on the wire at 5.5 s.
    simulator.run_until(sim::seconds(5.5));
    ASSERT_GT(transport.in_flight(), 0);
  }
  simulator.run_until(sim::seconds(120.0));
  EXPECT_EQ(transport.in_flight(), 0);
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
  core::SingleLinkTransport transport(link);
  auto video = live_video();
  const auto trace = viewer_trace(1);
  LiveCrowdHmp wrong(99, 10);
  EXPECT_THROW(TiledLiveSession(simulator, video, transport, trace,
                                TiledLiveConfig{}, &wrong),
               std::invalid_argument);
}

// The viewer reads and writes the crowd for every chunk, so a crowd shorter
// than the video is rejected at construction instead of failing mid-run.
TEST(TiledLive, CrowdShorterThanTheVideoThrows) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  core::SingleLinkTransport transport(link);
  auto video = live_video();
  const auto trace = viewer_trace(1);
  LiveCrowdHmp short_crowd(video->tile_count(), 10);
  EXPECT_THROW(TiledLiveSession(simulator, video, transport, trace,
                                TiledLiveConfig{}, &short_crowd),
               std::invalid_argument);
}

TEST(TiledLive, NullVideoThrows) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  core::SingleLinkTransport transport(link);
  const auto trace = viewer_trace(1);
  EXPECT_THROW(TiledLiveSession(simulator, nullptr, transport, trace,
                                TiledLiveConfig{}),
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
  const auto with_crowd = run_crowd_population(true);
  const auto without = run_crowd_population(false);
  ASSERT_TRUE(with_crowd.finished);
  ASSERT_TRUE(without.finished);
  // The crowd prior should not hurt, and typically reduces blanks/skips.
  EXPECT_LE(with_crowd.qoe.skipped_chunks, without.qoe.skipped_chunks + 1);
  EXPECT_GE(with_crowd.qoe.score, without.qoe.score - 2.0);
}

// The other tests here bound inequalities; this one pins every report
// field of three seeded live worlds: an SVC viewer that upgrades, a faulted
// viewer that re-requests failed FoV tiles at the base tier, and the
// crowd-fed laggard of EndToEndCrowdHelpsLaggard.
TEST(TiledLive, ReportsArePinned) {
  TiledLiveConfig svc;
  svc.abr.sperke.mode = abr::EncodingMode::kSvc;
  expect_pinned(run_viewer(8'000.0, svc),
                {.qoe = {.chunks_played = 30,
                         .mean_viewport_utility = 0.58045135776819479,
                         .stall_seconds = 0.0,
                         .stall_events = 0,
                         .skipped_chunks = 0,
                         .switch_magnitude = 6.1418293438274931,
                         .blank_fraction_mean = 0.0,
                         .bytes_downloaded = 17'072'374,
                         .bytes_wasted = 6'912'981,
                         .score = 11.27171138921835},
                 .fetches = 1'509,
                 .upgrades = 160,
                 .fetch_failures = 0,
                 .degraded_retries = 0,
                 .finished = true});

  TiledLiveConfig recover;
  recover.fetch_recovery = true;
  expect_pinned(run_viewer(20'000.0, recover, 5, nullptr, stormy_plan()),
                {.qoe = {.chunks_played = 30,
                         .mean_viewport_utility = 0.8747350410522412,
                         .stall_seconds = 0.0,
                         .stall_events = 0,
                         .skipped_chunks = 0,
                         .switch_magnitude = 4.2545238691867793,
                         .blank_fraction_mean = 0.01785714285714286,
                         .bytes_downloaded = 39'639'504,
                         .bytes_wasted = 14'193'514,
                         .score = 19.844670219523312},
                 .fetches = 2'333,
                 .upgrades = 227,
                 .fetch_failures = 330,
                 .degraded_retries = 43,
                 .finished = true});

  expect_pinned(run_crowd_population(true),
                {.qoe = {.chunks_played = 30,
                         .mean_viewport_utility = 0.57906638169995839,
                         .stall_seconds = 0.0,
                         .stall_events = 0,
                         .skipped_chunks = 0,
                         .switch_magnitude = 3.6763197939234997,
                         .blank_fraction_mean = 0.0070370370370370378,
                         .bytes_downloaded = 14'253'322,
                         .bytes_wasted = 4'840'748,
                         .score = 12.851227212630807},
                 .fetches = 1'346,
                 .upgrades = 223,
                 .fetch_failures = 0,
                 .degraded_retries = 0,
                 .finished = true});
}

// Every tile-ABR policy drives the live viewer, including those without an
// upgrade window (no upgrade scan is scheduled for them). Each row pins
// every report field of one fault-free 20 Mbps run.
TEST(TiledLive, EveryPolicyIsPinned) {
  const std::vector<std::pair<const char*, TiledLiveReport>> rows{
      {"sperke",
       {.qoe = {.chunks_played = 30,
                .mean_viewport_utility = 0.89965107824054769,
                .stall_seconds = 0.0,
                .stall_events = 0,
                .skipped_chunks = 0,
                .switch_magnitude = 3.7814091636398688,
                .blank_fraction_mean = 0.0,
                .bytes_downloaded = 41'351'635,
                .bytes_wasted = 15'392'331,
                .score = 23.208123183576564},
        .fetches = 2'184,
        .upgrades = 214,
        .fetch_failures = 0,
        .degraded_retries = 0,
        .finished = true}},
      {"knapsack",
       {.qoe = {.chunks_played = 30,
                .mean_viewport_utility = 0.7744608183827647,
                .stall_seconds = 0.0,
                .stall_events = 0,
                .skipped_chunks = 0,
                .switch_magnitude = 3.3532633346367549,
                .blank_fraction_mean = 0.0,
                .bytes_downloaded = 42'046'702,
                .bytes_wasted = 27'532'122,
                .score = 19.880561216846186},
        .fetches = 696,
        .upgrades = 0,
        .fetch_failures = 0,
        .degraded_retries = 0,
        .finished = true}},
      {"consistency",
       {.qoe = {.chunks_played = 30,
                .mean_viewport_utility = 0.74232367123451648,
                .stall_seconds = 0.0,
                .stall_events = 0,
                .skipped_chunks = 0,
                .switch_magnitude = 3.8151015934437327,
                .blank_fraction_mean = 0.0,
                .bytes_downloaded = 30'744'538,
                .bytes_wasted = 14'550'506,
                .score = 18.454608543591764},
        .fetches = 655,
        .upgrades = 0,
        .fetch_failures = 0,
        .degraded_retries = 0,
        .finished = true}},
      {"fullpano",
       {.qoe = {.chunks_played = 30,
                .mean_viewport_utility = 0.58874891850572719,
                .stall_seconds = 0.0,
                .stall_events = 0,
                .skipped_chunks = 0,
                .switch_magnitude = 3.7765385579171129,
                .blank_fraction_mean = 0.0,
                .bytes_downloaded = 25'122'875,
                .bytes_wasted = 16'248'683,
                .score = 13.885928997254702},
        .fetches = 720,
        .upgrades = 0,
        .fetch_failures = 0,
        .degraded_retries = 0,
        .finished = true}},
  };
  for (const auto& [policy, want] : rows) {
    SCOPED_TRACE(policy);
    TiledLiveConfig config;
    config.abr.policy = policy;
    expect_pinned(run_viewer(20'000.0, config), want);
  }
}

// With telemetry on, every degraded retry is traced as a dispatch whose
// parent is a request already dropped on a fault, so exporters nest the
// blank re-request under the fetch it replaces. Tracing changes nothing.
TEST(TiledLive, DegradedRetriesNestUnderTheFailedFetch) {
  obs::Telemetry telemetry;
  TiledLiveConfig config;
  config.fetch_recovery = true;
  const TiledLiveReport untraced =
      run_viewer(20'000.0, config, 5, nullptr, stormy_plan());
  config.telemetry = &telemetry;
  const TiledLiveReport report =
      run_viewer(20'000.0, config, 5, nullptr, stormy_plan());
  expect_pinned(report, untraced);
  ASSERT_GT(report.degraded_retries, 0);

  using T = obs::TraceEventType;
  std::map<std::int64_t, double> faulted;  // request id -> outcome
  int retries = 0;
  for (const obs::TraceEvent& event : telemetry.trace().events()) {
    if (event.type == T::kFetchDropped && event.value != 0.0) {
      faulted[event.request] = event.value;
    }
    if (event.type != T::kFetchDispatched || event.parent == 0) continue;
    ++retries;
    const auto parent = faulted.find(event.parent);
    ASSERT_NE(parent, faulted.end()) << "retry " << event.request;
    EXPECT_TRUE(
        parent->second == static_cast<double>(core::FetchOutcome::kTimedOut) ||
        parent->second == static_cast<double>(core::FetchOutcome::kFailed));
  }
  EXPECT_EQ(retries, report.degraded_retries);
}

}  // namespace
}  // namespace sperke::live

