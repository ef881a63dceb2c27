#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "mp/multipath.h"
#include "mp/priority.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace sperke::mp {
namespace {

core::ChunkRequest request_of(abr::SpatialClass spatial, bool urgent,
                              std::int64_t bytes = 100'000,
                              sim::Time deadline = sim::seconds(100.0)) {
  core::ChunkRequest req;
  req.id = net::to_chunk_id({{0, 0}, media::Encoding::kAvc, 0});
  req.bytes = bytes;
  req.spatial = spatial;
  req.urgent = urgent;
  req.deadline = deadline;
  return req;
}

TEST(Priority, ClassifiesFromRequest) {
  const auto fov_urgent = classify(request_of(abr::SpatialClass::kFov, true));
  EXPECT_EQ(fov_urgent.spatial, abr::SpatialClass::kFov);
  EXPECT_EQ(fov_urgent.temporal, TemporalClass::kUrgent);
  const auto oos_regular = classify(request_of(abr::SpatialClass::kOos, false));
  EXPECT_EQ(oos_regular.spatial, abr::SpatialClass::kOos);
  EXPECT_EQ(oos_regular.temporal, TemporalClass::kRegular);
}

TEST(Priority, RankOrdersTable1) {
  const int fov_urgent = rank({abr::SpatialClass::kFov, TemporalClass::kUrgent});
  const int oos_urgent = rank({abr::SpatialClass::kOos, TemporalClass::kUrgent});
  const int fov_regular = rank({abr::SpatialClass::kFov, TemporalClass::kRegular});
  const int oos_regular = rank({abr::SpatialClass::kOos, TemporalClass::kRegular});
  EXPECT_LT(fov_urgent, oos_urgent);
  EXPECT_LT(oos_urgent, fov_regular);
  EXPECT_LT(fov_regular, oos_regular);
  EXPECT_EQ(fov_urgent, 0);
  EXPECT_EQ(oos_regular, 3);
}

TEST(Priority, ToStringReadable) {
  EXPECT_EQ(to_string({abr::SpatialClass::kFov, TemporalClass::kUrgent}),
            "FoV/urgent");
  EXPECT_EQ(to_string({abr::SpatialClass::kOos, TemporalClass::kRegular}),
            "OOS/regular");
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

  MultipathTransport make_recovering(sim::Duration probe_interval =
                                         sim::seconds(0.5)) {
    core::TransportOptions options;
    options.recovery.enabled = true;
    options.recovery.max_retries = 3;
    options.recovery.base_backoff = sim::milliseconds(100);
    options.recovery.probe_interval = probe_interval;
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
  rebuild(/*wifi_outage_s=*/1.0);  // outage [0.5, 1.5)
  auto transport = make_recovering(sim::seconds(0.5));
  auto req = request_of(abr::SpatialClass::kFov, false, 2'000'000,
                        sim::seconds(100.0));
  std::optional<core::FetchOutcome> outcome;
  req.on_done = [&](sim::Time, core::FetchOutcome o) { outcome = o; };
  transport.fetch(std::move(req));
  simulator.run_until(sim::seconds(30.0));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, core::FetchOutcome::kDelivered);
  EXPECT_GE(transport.stats().path_down_events, 1);
  // Probes at 1.0s (still dark) and 1.5s (clear): ~1s of downtime.
  EXPECT_FALSE(transport.path_down(0));
  EXPECT_NEAR(transport.stats().path_downtime_s, 1.0, 0.1);
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
  options.recovery.max_retries = 3;
  options.recovery.base_backoff = sim::milliseconds(100);
  options.recovery.probe_interval = sim::seconds(0.5);
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
