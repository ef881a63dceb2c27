#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "mp/multipath.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace sperke::mp {
namespace {

core::ChunkRequest request_of(abr::SpatialClass spatial, bool urgent,
                              std::int64_t bytes = 100'000,
                              sim::Time deadline = sim::seconds(100.0)) {
  core::ChunkRequest req;
  req.id = {{0, 0}, media::Encoding::kAvc, 0};
  req.bytes = bytes;
  req.spatial = spatial;
  req.urgent = urgent;
  req.deadline = deadline;
  return req;
}

TEST(Priority, RankOrdersTable1) {
  const int fov_urgent = rank(request_of(abr::SpatialClass::kFov, true));
  const int oos_urgent = rank(request_of(abr::SpatialClass::kOos, true));
  const int fov_regular = rank(request_of(abr::SpatialClass::kFov, false));
  const int oos_regular = rank(request_of(abr::SpatialClass::kOos, false));
  EXPECT_LT(fov_urgent, oos_urgent);
  EXPECT_LT(oos_urgent, fov_regular);
  EXPECT_LT(fov_regular, oos_regular);
  EXPECT_EQ(fov_urgent, 0);
  EXPECT_EQ(oos_regular, 3);
}

// Hand-built path views: schedulers read numbers, never a net::Link.
// Path 0 has the best score but a long queue, path 1 the worst score and
// an empty queue, path 2 sits between them.
std::vector<PathState> three_paths() {
  return {
      {.usable_kbps = 20'000.0, .rtt = sim::milliseconds(20),
       .estimated_kbps = 0.0, .queued_bytes = 5'000'000, .quality_score = 15'000.0},
      {.usable_kbps = 4'000.0, .rtt = sim::milliseconds(80),
       .estimated_kbps = 0.0, .queued_bytes = 0, .quality_score = 2'000.0},
      {.usable_kbps = 10'000.0, .rtt = sim::milliseconds(30),
       .estimated_kbps = 0.0, .queued_bytes = 0, .quality_score = 8'000.0},
  };
}

TEST(PathSchedulerPick, MinRttTakesEarliestDrainFromNumbers) {
  MinRttScheduler scheduler;
  std::vector<PathState> paths = three_paths();
  const auto request = request_of(abr::SpatialClass::kFov, true);
  // Path 0 drains 5 MB at 20 Mbps for 2 s; of the empty paths, path 2's
  // 30 ms RTT beats path 1's 80 ms.
  EXPECT_EQ(scheduler.pick(request, paths), 2u);
  // An estimate above the usable rate counts: 5 MB at 1 Gbps is 40 ms.
  paths[0].estimated_kbps = 1'000'000.0;
  EXPECT_EQ(scheduler.pick(request, paths), 2u);  // 60 ms > 30 ms
  paths[0].queued_bytes = 0;
  EXPECT_EQ(scheduler.pick(request, paths), 0u);  // 20 ms RTT
  // A path with no rate never drains.
  paths[0].usable_kbps = 0.0;
  paths[0].estimated_kbps = 0.0;
  EXPECT_EQ(scheduler.pick(request, paths), 2u);
}

TEST(PathSchedulerPick, ContentAwareUrgentTakesBestScore) {
  ContentAwareScheduler scheduler;
  const std::vector<PathState> paths = three_paths();
  // Urgent work rides the best-scored path despite its queue.
  for (const auto spatial : {abr::SpatialClass::kFov, abr::SpatialClass::kOos}) {
    const auto request = request_of(spatial, true);
    EXPECT_EQ(scheduler.pick(request, paths), 0u);
    EXPECT_FALSE(scheduler.best_effort(request));
  }
}

TEST(PathSchedulerPick, ContentAwareRegularFovTakesEarliestDrain) {
  ContentAwareScheduler scheduler;
  std::vector<PathState> paths = three_paths();
  const auto request = request_of(abr::SpatialClass::kFov, false);
  // Drain at max(estimate, score): path 0 needs 5 MB / 15 Mbps = 2.7 s,
  // path 2 only its RTT.
  EXPECT_EQ(scheduler.pick(request, paths), 2u);
  paths[0].queued_bytes = 0;
  EXPECT_EQ(scheduler.pick(request, paths), 0u);
  EXPECT_FALSE(scheduler.best_effort(request));
}

TEST(PathSchedulerPick, ContentAwareRegularOosTakesWorstScore) {
  ContentAwareScheduler scheduler;
  std::vector<PathState> paths = three_paths();
  const auto request = request_of(abr::SpatialClass::kOos, false);
  EXPECT_EQ(scheduler.pick(request, paths), 1u);
  EXPECT_TRUE(scheduler.best_effort(request));
  // The worst score wins even with the longest queue.
  paths[1].queued_bytes = 50'000'000;
  EXPECT_EQ(scheduler.pick(request, paths), 1u);
}

class MultipathTest : public ::testing::Test {
 protected:
  MultipathTest() {
    // "WiFi": fast, clean. "LTE": slower, lossy, higher RTT.
    wifi = std::make_unique<net::Link>(
        simulator, net::LinkConfig{.name = "wifi",
                                   .bandwidth = net::BandwidthTrace::constant(20'000.0),
                                   .rtt = sim::milliseconds(20),
                                   .loss_rate = 0.0, .faults = {}});
    lte = std::make_unique<net::Link>(
        simulator, net::LinkConfig{.name = "lte",
                                   .bandwidth = net::BandwidthTrace::constant(8'000.0),
                                   .rtt = sim::milliseconds(60),
                                   .loss_rate = 0.0, .faults = {}});
  }

  MultipathTransport make(std::unique_ptr<PathScheduler> scheduler) {
    return MultipathTransport(simulator, {wifi.get(), lte.get()},
                              std::move(scheduler));
  }

  sim::Simulator simulator;
  std::unique_ptr<net::Link> wifi;
  std::unique_ptr<net::Link> lte;
};

TEST_F(MultipathTest, ContentAwareSendsFovToBestPath) {
  auto transport = make(std::make_unique<ContentAwareScheduler>());
  transport.fetch(request_of(abr::SpatialClass::kFov, false));
  transport.fetch(request_of(abr::SpatialClass::kOos, false));
  simulator.run();
  const auto& stats = transport.stats();
  // Path 0 = wifi (best), path 1 = lte (worst).
  EXPECT_EQ(stats.requests_per_path[0], 1);
  EXPECT_EQ(stats.requests_per_path[1], 1);
  EXPECT_EQ(stats.bytes_per_path[0], 100'000);
  EXPECT_EQ(stats.bytes_per_path[1], 100'000);
}

TEST_F(MultipathTest, ContentAwareUrgentAlwaysBestPath) {
  auto transport = make(std::make_unique<ContentAwareScheduler>());
  transport.fetch(request_of(abr::SpatialClass::kOos, /*urgent=*/true));
  simulator.run();
  EXPECT_EQ(transport.stats().requests_per_path[0], 1);
  EXPECT_EQ(transport.stats().requests_per_path[1], 0);
}

TEST_F(MultipathTest, ContentAwareDropsExpiredBestEffort) {
  auto transport = make(std::make_unique<ContentAwareScheduler>());
  // Saturate the LTE path so the next OOS request queues.
  for (int i = 0; i < 3; ++i) {
    transport.fetch(request_of(abr::SpatialClass::kOos, false, 2'000'000));
  }
  // This OOS fetch has a deadline that will pass while queued.
  std::optional<core::FetchOutcome> outcome;
  auto req = request_of(abr::SpatialClass::kOos, false, 100'000,
                        sim::milliseconds(500));
  req.on_done = [&](sim::Time, core::FetchOutcome o) { outcome = o; };
  transport.fetch(std::move(req));
  simulator.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, core::FetchOutcome::kDropped);
  EXPECT_GE(transport.stats().dropped_best_effort, 1);
}

TEST_F(MultipathTest, MinRttUsesBothPaths) {
  auto transport = make(std::make_unique<MinRttScheduler>());
  for (int i = 0; i < 8; ++i) {
    transport.fetch(request_of(abr::SpatialClass::kFov, false, 1'000'000));
  }
  simulator.run();
  const auto& stats = transport.stats();
  EXPECT_GT(stats.requests_per_path[0], 0);
  EXPECT_GT(stats.requests_per_path[1], 0);
  EXPECT_EQ(stats.requests_per_path[0] + stats.requests_per_path[1], 8);
}

TEST_F(MultipathTest, RoundRobinAlternates) {
  auto transport = make(std::make_unique<RoundRobinScheduler>());
  for (int i = 0; i < 4; ++i) {
    transport.fetch(request_of(abr::SpatialClass::kFov, false));
  }
  simulator.run();
  EXPECT_EQ(transport.stats().requests_per_path[0], 2);
  EXPECT_EQ(transport.stats().requests_per_path[1], 2);
}

TEST_F(MultipathTest, SinglePathPinsEverything) {
  auto transport = make(std::make_unique<SinglePathScheduler>(1));
  for (int i = 0; i < 3; ++i) {
    transport.fetch(request_of(abr::SpatialClass::kFov, false));
  }
  simulator.run();
  EXPECT_EQ(transport.stats().requests_per_path[0], 0);
  EXPECT_EQ(transport.stats().requests_per_path[1], 3);
}

TEST_F(MultipathTest, AggregateEstimateSumsPaths) {
  auto transport = make(std::make_unique<MinRttScheduler>());
  // Before traffic: falls back to capacities (20 + 8 Mbps).
  EXPECT_NEAR(transport.estimated_kbps(), 28'000.0, 100.0);
}

TEST_F(MultipathTest, ClassCountsTrackTable1) {
  auto transport = make(std::make_unique<ContentAwareScheduler>());
  transport.fetch(request_of(abr::SpatialClass::kFov, true));
  transport.fetch(request_of(abr::SpatialClass::kFov, false));
  transport.fetch(request_of(abr::SpatialClass::kOos, false));
  transport.fetch(request_of(abr::SpatialClass::kOos, false));
  simulator.run();
  const auto& counts = transport.stats().class_counts;
  EXPECT_EQ(counts[0], 1);  // FoV urgent
  EXPECT_EQ(counts[2], 1);  // FoV regular
  EXPECT_EQ(counts[3], 2);  // OOS regular
}

TEST_F(MultipathTest, UrgentJumpsPathQueue) {
  auto transport = MultipathTransport(simulator, {wifi.get()},
                                      std::make_unique<SinglePathScheduler>(0),
                                      {.max_concurrent = 1, .recovery = {}});
  std::vector<int> order;
  auto submit = [&](int id, bool urgent) {
    auto req = request_of(abr::SpatialClass::kFov, urgent, 200'000);
    req.on_done = [&order, id](sim::Time, core::FetchOutcome) {
      order.push_back(id);
    };
    transport.fetch(std::move(req));
  };
  submit(0, false);
  submit(1, false);
  submit(2, true);
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST_F(MultipathTest, CompletionsAggregateBytes) {
  auto transport = make(std::make_unique<MinRttScheduler>());
  int done = 0;
  for (int i = 0; i < 4; ++i) {
    auto req = request_of(abr::SpatialClass::kFov, false, 250'000);
    req.on_done = [&](sim::Time, core::FetchOutcome o) {
      done += core::delivered(o) ? 1 : 0;
    };
    transport.fetch(std::move(req));
  }
  simulator.run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(transport.bytes_fetched(), 1'000'000);
  EXPECT_EQ(transport.in_flight(), 0);
}

TEST_F(MultipathTest, RejectsBadConstruction) {
  EXPECT_THROW(MultipathTransport(simulator, {},
                                  std::make_unique<MinRttScheduler>()),
               std::invalid_argument);
  EXPECT_THROW(MultipathTransport(simulator, {wifi.get()}, nullptr),
               std::invalid_argument);
  EXPECT_THROW(MultipathTransport(simulator, {wifi.get()},
                                  std::make_unique<MinRttScheduler>(),
                                  {.max_concurrent = 0, .recovery = {}}),
               std::invalid_argument);
}

class MultipathFailoverTest : public ::testing::Test {
 protected:
  // Wifi goes dark at t=0.5s; LTE stays clean throughout.
  MultipathFailoverTest() { rebuild(/*wifi_outage_s=*/60.0); }

  void rebuild(double wifi_outage_s) {
    net::FaultPlan faults;
    faults.outages.push_back({.start_s = 0.5, .duration_s = wifi_outage_s});
    wifi = std::make_unique<net::Link>(
        simulator, net::LinkConfig{.name = "wifi",
                                   .bandwidth = net::BandwidthTrace::constant(20'000.0),
                                   .rtt = sim::milliseconds(20),
                                   .loss_rate = 0.0,
                                   .faults = std::move(faults)});
    lte = std::make_unique<net::Link>(
        simulator, net::LinkConfig{.name = "lte",
                                   .bandwidth = net::BandwidthTrace::constant(8'000.0),
                                   .rtt = sim::milliseconds(60),
                                   .loss_rate = 0.0, .faults = {}});
  }

  MultipathTransport make_recovering() {
    core::TransportOptions options;
    options.recovery.enabled = true;
    return MultipathTransport(simulator, {wifi.get(), lte.get()},
                              std::make_unique<ContentAwareScheduler>(),
                              options);
  }

  sim::Simulator simulator;
  std::unique_ptr<net::Link> wifi;
  std::unique_ptr<net::Link> lte;
};

TEST_F(MultipathFailoverTest, OutageFailsOverInFlightFovToSurvivingPath) {
  auto transport = make_recovering();
  int delivered_count = 0;
  // 2 MB at 2.5 MB/s: still in flight on wifi when the outage hits.
  for (int i = 0; i < 2; ++i) {
    auto req = request_of(abr::SpatialClass::kFov, false, 2'000'000,
                          sim::seconds(100.0));
    req.on_done = [&](sim::Time, core::FetchOutcome o) {
      delivered_count += core::delivered(o) ? 1 : 0;
    };
    transport.fetch(std::move(req));
  }
  simulator.run_until(sim::seconds(30.0));
  const auto& stats = transport.stats();
  EXPECT_EQ(delivered_count, 2);
  EXPECT_GE(stats.path_down_events, 1);
  EXPECT_GE(stats.failovers, 1);
  EXPECT_TRUE(transport.path_down(0));
  EXPECT_FALSE(transport.path_down(1));
}

TEST_F(MultipathFailoverTest, DownPathRecoversViaProbing) {
  rebuild(/*wifi_outage_s=*/1.2);  // outage [0.5, 1.7)
  auto transport = make_recovering();
  auto req = request_of(abr::SpatialClass::kFov, false, 2'000'000,
                        sim::seconds(100.0));
  std::optional<core::FetchOutcome> outcome;
  req.on_done = [&](sim::Time, core::FetchOutcome o) { outcome = o; };
  transport.fetch(std::move(req));
  simulator.run_until(sim::seconds(30.0));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, core::FetchOutcome::kDelivered);
  // Down at 0.5 s, probed every second: 1.5 s (still dark), 2.5 s (clear).
  EXPECT_FALSE(transport.path_down(0));
  EXPECT_EQ(transport.stats().path_down_events, 1);
  EXPECT_DOUBLE_EQ(transport.stats().path_downtime_s, 2.0);
}

TEST_F(MultipathFailoverTest, ThirdConsecutiveFailureMarksThePathDown) {
  // Wifi transfers fail part-way (with this seed, the first three all do),
  // with no outage signal; regular OOS requests are abandoned on their
  // first failure, so each settles after exactly one failed attempt, one
  // at a time.
  net::FaultPlan faults;
  faults.transfer_failure_prob = 0.99;
  faults.seed = 3;
  wifi = std::make_unique<net::Link>(
      simulator, net::LinkConfig{.name = "wifi",
                                 .bandwidth = net::BandwidthTrace::constant(20'000.0),
                                 .rtt = sim::milliseconds(20),
                                 .loss_rate = 0.0,
                                 .faults = std::move(faults)});
  core::TransportOptions options;
  options.max_concurrent = 1;
  options.recovery.enabled = true;
  MultipathTransport transport(simulator, {wifi.get(), lte.get()},
                               std::make_unique<SinglePathScheduler>(0), options);
  std::vector<bool> down_when_settled;
  for (int i = 0; i < 3; ++i) {
    auto req = request_of(abr::SpatialClass::kOos, false, 200'000,
                          sim::seconds(100.0));
    req.on_done = [&](sim::Time, core::FetchOutcome o) {
      EXPECT_EQ(o, core::FetchOutcome::kFailed);
      down_when_settled.push_back(transport.path_down(0));
    };
    transport.fetch(std::move(req));
  }
  simulator.run_until(sim::seconds(0.9));  // before the first probe
  EXPECT_EQ(down_when_settled, (std::vector<bool>{false, false, true}));
  EXPECT_EQ(transport.stats().path_down_events, 1);
}

TEST_F(MultipathFailoverTest, NewFetchesRouteAroundDownPath) {
  auto transport = make_recovering();
  // Trip the wifi path with one in-flight casualty.
  auto tripwire = request_of(abr::SpatialClass::kFov, false, 2'000'000,
                             sim::seconds(100.0));
  transport.fetch(std::move(tripwire));
  simulator.run_until(sim::seconds(2.0));
  ASSERT_TRUE(transport.path_down(0));
  const int lte_before = transport.stats().requests_per_path[1];
  // Content-aware would pick wifi for FoV; the down path forces LTE.
  std::optional<core::FetchOutcome> outcome;
  auto req = request_of(abr::SpatialClass::kFov, false, 100'000,
                        sim::seconds(100.0));
  req.on_done = [&](sim::Time, core::FetchOutcome o) { outcome = o; };
  transport.fetch(std::move(req));
  simulator.run_until(sim::seconds(10.0));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, core::FetchOutcome::kDelivered);
  EXPECT_EQ(transport.stats().requests_per_path[1], lte_before + 1);
}

TEST_F(MultipathFailoverTest, DispatchOrderPinsClassesAcrossFailoverAndRetry) {
  // Every Table 1 class queues on wifi behind request 1. The outage edge at
  // 50 ms kills request 1 and marks wifi down: the queued critical classes
  // (urgent FoV, urgent OOS, FoV) fail over to LTE, regular OOS waits for
  // the probe at 1.05 s. Request 1's retry is routed to LTE with its
  // original seq, so it leads the FoV class there.
  net::FaultPlan faults;
  faults.outages.push_back({.start_s = 0.05, .duration_s = 0.7});
  wifi = std::make_unique<net::Link>(
      simulator, net::LinkConfig{.name = "wifi",
                                 .bandwidth = net::BandwidthTrace::constant(20'000.0),
                                 .rtt = sim::milliseconds(20),
                                 .loss_rate = 0.0,
                                 .faults = std::move(faults)});
  obs::Telemetry telemetry;
  core::TransportOptions options;
  options.max_concurrent = 1;
  options.telemetry = &telemetry;
  options.recovery.enabled = true;
  MultipathTransport transport(simulator, {wifi.get(), lte.get()},
                               std::make_unique<SinglePathScheduler>(0), options);
  const auto submit = [&](std::int64_t id, abr::SpatialClass spatial, bool urgent) {
    auto req = request_of(spatial, urgent, 200'000);
    req.request_id = id;
    transport.fetch(std::move(req));
  };
  submit(1, abr::SpatialClass::kFov, false);
  submit(2, abr::SpatialClass::kOos, false);
  submit(3, abr::SpatialClass::kFov, false);
  submit(4, abr::SpatialClass::kOos, true);
  submit(5, abr::SpatialClass::kFov, true);
  submit(6, abr::SpatialClass::kOos, false);
  submit(7, abr::SpatialClass::kFov, false);
  simulator.run_until(sim::seconds(10.0));
  using Attempt = std::tuple<std::int64_t, std::int32_t, int>;
  std::vector<Attempt> attempts;
  for (const obs::TraceEvent& e : telemetry.trace().events()) {
    if (e.type == obs::TraceEventType::kFetchAttemptStart) {
      attempts.emplace_back(e.request, e.path, static_cast<int>(e.value));
    }
  }
  EXPECT_EQ(attempts, (std::vector<Attempt>{{1, 0, 0},
                                            {5, 1, 0},
                                            {4, 1, 0},
                                            {1, 1, 1},
                                            {3, 1, 0},
                                            {2, 0, 0},
                                            {7, 1, 0},
                                            {6, 0, 0}}));
  const MultipathStats stats = transport.stats();
  EXPECT_EQ(stats.failovers, 5);  // four queued + one routed retry
  EXPECT_EQ(stats.bytes_per_path[0], 400'000);
  EXPECT_EQ(stats.bytes_per_path[1], 1'000'000);
  EXPECT_EQ(transport.in_flight(), 0);
}

TEST(PathSchedulerFactory, MakesKnownKinds) {
  EXPECT_EQ(make_path_scheduler("minrtt")->name(), "minrtt");
  EXPECT_EQ(make_path_scheduler("round-robin")->name(), "round-robin");
  EXPECT_EQ(make_path_scheduler("content-aware")->name(), "content-aware");
  EXPECT_THROW((void)make_path_scheduler("ecf"), std::invalid_argument);
}

}  // namespace
}  // namespace sperke::mp
