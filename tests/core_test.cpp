#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "abr/factory.h"
#include "core/buffer.h"
#include "core/session.h"
#include "core/transport.h"
#include "hmp/head_trace.h"
#include "hmp/heatmap.h"
#include "net/link.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace sperke::core {
namespace {

using media::ChunkAddress;
using media::ChunkKey;
using media::Encoding;

std::shared_ptr<media::VideoModel> make_video(double duration_s = 20.0) {
  media::VideoModelConfig cfg;
  cfg.duration_s = duration_s;
  cfg.chunk_duration_s = 1.0;
  cfg.tile_rows = 2;
  cfg.tile_cols = 4;
  cfg.seed = 7;
  return std::make_shared<media::VideoModel>(cfg);
}

TEST(PlaybackBuffer, EmptyHasNothing) {
  PlaybackBuffer buffer(make_video());
  EXPECT_EQ(buffer.displayable_quality({0, 0}), -1);
  EXPECT_FALSE(buffer.has_displayable({0, 0}));
  EXPECT_EQ(buffer.total_bytes(), 0);
}

TEST(PlaybackBuffer, AvcBestCopyWins) {
  PlaybackBuffer buffer(make_video());
  buffer.add({{1, 2}, Encoding::kAvc, 1});
  buffer.add({{1, 2}, Encoding::kAvc, 3});
  buffer.add({{1, 2}, Encoding::kAvc, 0});
  EXPECT_EQ(buffer.displayable_quality({1, 2}), 3);
}

TEST(PlaybackBuffer, SvcNeedsContiguousLayers) {
  PlaybackBuffer buffer(make_video());
  buffer.add({{0, 0}, Encoding::kSvc, 0});
  buffer.add({{0, 0}, Encoding::kSvc, 2});  // layer 1 missing
  EXPECT_EQ(buffer.displayable_quality({0, 0}), 0);
  buffer.add({{0, 0}, Encoding::kSvc, 1});
  EXPECT_EQ(buffer.displayable_quality({0, 0}), 2);
}

TEST(PlaybackBuffer, SvcEnhancementAloneNotPlayable) {
  PlaybackBuffer buffer(make_video());
  buffer.add({{0, 0}, Encoding::kSvc, 1});
  EXPECT_EQ(buffer.displayable_quality({0, 0}), -1);
}

TEST(PlaybackBuffer, DuplicateAddsCountOnce) {
  auto video = make_video();
  PlaybackBuffer buffer(video);
  const ChunkAddress addr{{0, 0}, Encoding::kAvc, 2};
  buffer.add(addr);
  const auto once = buffer.total_bytes();
  buffer.add(addr);
  EXPECT_EQ(buffer.total_bytes(), once);
}

TEST(PlaybackBuffer, MixedEncodingsTakeMax) {
  PlaybackBuffer buffer(make_video());
  buffer.add({{0, 0}, Encoding::kAvc, 1});
  buffer.add({{0, 0}, Encoding::kSvc, 0});
  buffer.add({{0, 0}, Encoding::kSvc, 1});
  buffer.add({{0, 0}, Encoding::kSvc, 2});
  EXPECT_EQ(buffer.displayable_quality({0, 0}), 2);
}

TEST(PlaybackBuffer, CellBytesTracksDownloads) {
  auto video = make_video();
  PlaybackBuffer buffer(video);
  const ChunkAddress a{{0, 0}, Encoding::kSvc, 0};
  const ChunkAddress b{{0, 0}, Encoding::kSvc, 1};
  buffer.add(a);
  buffer.add(b);
  EXPECT_EQ(buffer.cell_bytes({0, 0}),
            video->size_bytes(a) + video->size_bytes(b));
}

TEST(PlaybackBuffer, CellBytesUsedSvcLayers) {
  auto video = make_video();
  PlaybackBuffer buffer(video);
  for (media::LayerIndex l = 0; l <= 2; ++l) {
    buffer.add({{0, 0}, Encoding::kSvc, l});
  }
  // Displaying at quality 1 uses layers 0..1 only.
  const auto used = buffer.cell_bytes_used({0, 0}, 1);
  EXPECT_EQ(used, video->svc_layer_size_bytes(0, {0, 0}) +
                      video->svc_layer_size_bytes(1, {0, 0}));
  EXPECT_LT(used, buffer.cell_bytes({0, 0}));
}

TEST(PlaybackBuffer, EvictBeforeDropsOldChunks) {
  PlaybackBuffer buffer(make_video());
  buffer.add({{0, 0}, Encoding::kAvc, 1});
  buffer.add({{0, 3}, Encoding::kAvc, 1});
  buffer.evict_before(2);
  EXPECT_FALSE(buffer.has_displayable({0, 0}));
  EXPECT_TRUE(buffer.has_displayable({0, 3}));
}

TEST(PlaybackBuffer, ContiguousChunksCountsRun) {
  PlaybackBuffer buffer(make_video());
  const std::vector<geo::TileId> tiles{0, 1};
  for (media::ChunkIndex i = 0; i < 3; ++i) {
    buffer.add({{0, i}, Encoding::kAvc, 0});
    buffer.add({{1, i}, Encoding::kAvc, 0});
  }
  buffer.add({{0, 4}, Encoding::kAvc, 0});  // gap at 3
  EXPECT_EQ(buffer.contiguous_chunks(0, tiles), 3);
  EXPECT_EQ(buffer.contiguous_chunks(1, tiles), 2);
  EXPECT_EQ(buffer.contiguous_chunks(3, tiles), 0);
}

TEST(PlaybackBuffer, CoveredMeansHeldOrInFlight) {
  PlaybackBuffer buffer(make_video());
  const ChunkAddress held{{3, 0}, Encoding::kSvc, 0};
  const ChunkAddress flying{{3, 0}, Encoding::kSvc, 1};
  const ChunkAddress missing{{3, 0}, Encoding::kSvc, 2};
  buffer.add(held);
  buffer.set_in_flight(flying, true);
  EXPECT_TRUE(buffer.covered(held));
  EXPECT_TRUE(buffer.covered(flying));
  EXPECT_FALSE(buffer.covered(missing));
  EXPECT_FALSE(buffer.contains(flying));  // requested is not held
  EXPECT_TRUE(buffer.in_flight(held.key));
  EXPECT_FALSE(buffer.in_flight({2, 0}));
  EXPECT_FALSE(buffer.covered({{3, 999}, Encoding::kSvc, 0}));
  // A settle clears the request; the delivered layer is then held.
  buffer.set_in_flight(flying, false);
  EXPECT_FALSE(buffer.covered(flying));
  EXPECT_FALSE(buffer.in_flight(held.key));
  buffer.add(flying);
  EXPECT_TRUE(buffer.covered(flying));
}

TEST(PlaybackBuffer, InFlightAvcAndSvcHalvesAreIndependent) {
  PlaybackBuffer buffer(make_video());
  const ChunkAddress avc{{1, 2}, Encoding::kAvc, 3};
  const ChunkAddress svc{{1, 2}, Encoding::kSvc, 3};
  buffer.set_in_flight(avc, true);
  EXPECT_TRUE(buffer.covered(avc));
  EXPECT_FALSE(buffer.covered(svc));
  EXPECT_FALSE(buffer.covered({{1, 2}, Encoding::kAvc, 2}));
  buffer.set_in_flight(svc, true);
  buffer.set_in_flight(avc, false);
  EXPECT_FALSE(buffer.covered(avc));
  EXPECT_TRUE(buffer.covered(svc));
  EXPECT_TRUE(buffer.in_flight(svc.key));
  buffer.set_in_flight(svc, false);
  EXPECT_FALSE(buffer.in_flight(svc.key));
}

TEST(PlaybackBuffer, InFlightLevel31HasItsOwnBit) {
  media::VideoModelConfig cfg;
  cfg.duration_s = 4.0;
  cfg.tile_rows = 2;
  cfg.tile_cols = 4;
  std::vector<double> kbps;
  for (int q = 0; q < media::kMaxLevels; ++q) kbps.push_back(100.0 * (q + 1));
  cfg.ladder = media::QualityLadder(kbps);
  PlaybackBuffer buffer(std::make_shared<media::VideoModel>(cfg));
  const media::QualityLevel top = media::kMaxLevels - 1;
  const ChunkAddress avc_top{{0, 0}, Encoding::kAvc, top};
  const ChunkAddress svc_top{{0, 0}, Encoding::kSvc, top};
  buffer.set_in_flight(avc_top, true);
  EXPECT_TRUE(buffer.covered(avc_top));
  EXPECT_FALSE(buffer.covered(svc_top));
  EXPECT_FALSE(buffer.covered({{0, 0}, Encoding::kSvc, 0}));  // the next bit
  buffer.set_in_flight(svc_top, true);
  buffer.set_in_flight(avc_top, false);
  EXPECT_FALSE(buffer.covered(avc_top));
  EXPECT_TRUE(buffer.covered(svc_top));
  EXPECT_FALSE(buffer.covered({{0, 0}, Encoding::kAvc, top - 1}));
}

TEST(PlaybackBuffer, InFlightClearBelowTheEvictFloorChangesNothing) {
  const auto video = make_video();
  std::vector<PlaybackBuffer::Cell> cells(
      static_cast<std::size_t>(video->chunk_count() * video->tile_count()));
  PlaybackBuffer buffer(video, cells);
  const ChunkAddress played{{0, 1}, Encoding::kAvc, 2};
  const ChunkAddress next{{0, 2}, Encoding::kAvc, 2};
  buffer.set_in_flight(played, true);
  buffer.set_in_flight(next, true);
  buffer.evict_before(2);
  EXPECT_FALSE(buffer.in_flight(played.key));
  EXPECT_FALSE(buffer.covered(played));
  // The played chunk's request settles late: its cell stays empty and the
  // live one keeps its request.
  buffer.set_in_flight(played, false);
  const auto evicted = static_cast<std::size_t>(video->tile_count());  // (0, 1)
  EXPECT_EQ(cells[evicted].in_flight, 0U);
  EXPECT_TRUE(buffer.in_flight(next.key));
  EXPECT_TRUE(buffer.covered(next));
}

TEST(PlaybackBuffer, UnusedBytesCountsOffViewportAndUnshownBytes) {
  auto video = make_video();
  PlaybackBuffer buffer(video);
  // Tile 0: SVC layers 0..2 shown at quality 2, plus an AVC q0 copy that
  // playback never uses.
  for (media::LayerIndex l = 0; l <= 2; ++l) {
    buffer.add({{0, 1}, Encoding::kSvc, l});
  }
  const ChunkAddress spare_avc{{0, 1}, Encoding::kAvc, 0};
  buffer.add(spare_avc);
  // Tile 1: a full AVC copy outside the viewport.
  const ChunkAddress off_view{{1, 1}, Encoding::kAvc, 1};
  buffer.add(off_view);
  // Tile 2: a visible SVC enhancement layer without its base: not shown.
  const ChunkAddress orphan{{2, 1}, Encoding::kSvc, 1};
  buffer.add(orphan);
  // Another chunk's cell never counts towards chunk 1.
  buffer.add({{1, 2}, Encoding::kAvc, 3});

  const std::vector<geo::TileId> visible{0, 2, 3};
  EXPECT_EQ(buffer.unused_bytes(1, visible),
            video->size_bytes(spare_avc) + video->size_bytes(off_view) +
                video->size_bytes(orphan));
  // With tile 1 in view, its AVC copy is what playback shows.
  const std::vector<geo::TileId> all_four{0, 1, 2, 3};
  EXPECT_EQ(buffer.unused_bytes(1, all_four),
            video->size_bytes(spare_avc) + video->size_bytes(orphan));
  EXPECT_EQ(buffer.unused_bytes(3, visible), 0);
}

class TransportTest : public ::testing::Test {
 protected:
  sim::Simulator simulator;
  net::Link link{simulator,
                 net::LinkConfig{.name = "test",
                                 .bandwidth = net::BandwidthTrace::constant(8000.0),
                                 .rtt = sim::Duration{0},
                                 .loss_rate = 0.0, .faults = {}}};
};

TEST_F(TransportTest, DeliversAndEstimates) {
  SingleLinkTransport transport(link);
  bool done = false;
  ChunkRequest req;
  req.id = {{0, 0}, Encoding::kAvc, 0};
  req.bytes = 1'000'000;
  req.on_done = [&](sim::Time, FetchOutcome outcome) {
    done = delivered(outcome);
  };
  transport.fetch(std::move(req));
  EXPECT_EQ(transport.in_flight(), 1);
  simulator.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(transport.in_flight(), 0);
  EXPECT_EQ(transport.bytes_fetched(), 1'000'000);
  EXPECT_NEAR(transport.estimated_kbps(), 8000.0, 100.0);
}

TEST_F(TransportTest, ConcurrencyLimitQueues) {
  SingleLinkTransport transport(link, {.max_concurrent = 1, .recovery = {}});
  std::vector<int> order;
  auto submit = [&](int id, bool urgent) {
    ChunkRequest req;
    req.id = {{id, 0}, Encoding::kAvc, 0};
    req.bytes = 100'000;
    req.urgent = urgent;
    req.on_done = [&order, id](sim::Time, FetchOutcome) { order.push_back(id); };
    transport.fetch(std::move(req));
  };
  submit(0, false);  // starts immediately
  submit(1, false);
  submit(2, true);  // urgent: should overtake request 1
  simulator.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST_F(TransportTest, RejectsBadRequests) {
  SingleLinkTransport transport(link);
  ChunkRequest req;
  req.bytes = 0;
  EXPECT_THROW(transport.fetch(std::move(req)), std::invalid_argument);
  EXPECT_THROW(SingleLinkTransport(link, {.max_concurrent = 0, .recovery = {}}),
               std::invalid_argument);
  TransportOptions bad_timeout;
  bad_timeout.recovery.enabled = true;
  bad_timeout.recovery.min_timeout = sim::milliseconds(-1);
  EXPECT_THROW(SingleLinkTransport(link, bad_timeout), std::invalid_argument);
}

TEST(FetchQueueAdmit, RejectsNonPositiveBytes) {
  // The one admission check behind both transports' fetch().
  obs::Telemetry telemetry;
  for (const std::int64_t bytes : {std::int64_t{0}, std::int64_t{-1}}) {
    ChunkRequest req;
    req.bytes = bytes;
    EXPECT_THROW(FetchQueue::admit(req, nullptr), std::invalid_argument) << bytes;
    EXPECT_THROW(FetchQueue::admit(req, &telemetry), std::invalid_argument) << bytes;
  }
  // A rejected request draws no id.
  EXPECT_EQ(telemetry.next_request_id(), 1);
}

TEST(FetchQueueAdmit, NumbersOnlyUntracedRequestsWithTelemetry) {
  ChunkRequest req;
  req.bytes = 1;
  FetchQueue::admit(req, nullptr);
  EXPECT_EQ(req.request_id, 0);  // no telemetry: stays untraced
  obs::Telemetry telemetry;
  FetchQueue::admit(req, &telemetry);
  EXPECT_EQ(req.request_id, 1);
  FetchQueue::admit(req, &telemetry);
  EXPECT_EQ(req.request_id, 1);  // already traced: keeps its id
  ChunkRequest next;
  next.bytes = 1;
  FetchQueue::admit(next, &telemetry);
  EXPECT_EQ(next.request_id, 2);
}

TEST(TransportAdapter, LinkIsItsOwnChunkSource) {
  // A Link is the direct ChunkSource: fetching through that interface with
  // a chunk address and a deadline, and cancelling through it, must match
  // a bare {bytes, weight} fetch on the link itself. A mixed-weight
  // workload with a mid-flight cancel settles with the same results, in
  // the same order, at the same instants.
  struct Settled {
    int index = 0;
    net::TransferStatus status = net::TransferStatus::kCompleted;
    sim::Time time{sim::kTimeZero};
    std::int64_t bytes = 0;
    bool operator==(const Settled&) const = default;
  };
  const auto run_workload = [](bool through_fetch) {
    sim::Simulator simulator;
    net::Link link{simulator,
                   net::LinkConfig{.name = "adapter",
                                   .bandwidth = net::BandwidthTrace::constant(6000.0),
                                   .rtt = sim::milliseconds(40),
                                   .loss_rate = 0.0,
                                   .faults = {}}};
    net::ChunkSource& source = link;
    std::vector<Settled> settled;
    std::vector<std::uint64_t> ids;
    for (int i = 0; i < 6; ++i) {
      const std::int64_t bytes = 40'000 + 15'000 * i;
      const double weight = i % 2 == 0 ? 2.0 : 1.0;
      net::TransferCallback on_done = [&settled, i](const net::TransferResult& r) {
        settled.push_back({i, r.status, r.time, r.bytes_delivered});
      };
      ids.push_back(through_fetch
                        ? source.fetch({.id = {{i, 0}, Encoding::kAvc, 1},
                                        .bytes = bytes,
                                        .weight = weight,
                                        .deadline = sim::milliseconds(500)},
                                       std::move(on_done))
                        : link.fetch({.id = {}, .bytes = bytes, .weight = weight},
                                     std::move(on_done)));
    }
    bool cancelled = false;
    simulator.schedule_after(sim::milliseconds(60), [&] {
      cancelled = through_fetch ? source.cancel(ids[3]) : link.cancel(ids[3]);
    });
    simulator.run();
    const bool cancel_after_settle =
        through_fetch ? source.cancel(ids[0]) : link.cancel(ids[0]);
    EXPECT_TRUE(cancelled);
    EXPECT_FALSE(cancel_after_settle);
    EXPECT_EQ(source.rtt(), sim::milliseconds(40));
    EXPECT_EQ(&source.simulator(), &simulator);
    return settled;
  };
  const auto direct = run_workload(false);
  const auto via_fetch = run_workload(true);
  ASSERT_EQ(direct.size(), 6u);
  EXPECT_EQ(direct, via_fetch);
  EXPECT_EQ(std::count_if(direct.begin(), direct.end(),
                          [](const Settled& s) {
                            return s.status == net::TransferStatus::kCancelled;
                          }),
            1);
}

TEST(TransportRecovery, BackoffGrowsGeometrically) {
  EXPECT_EQ(retry_backoff(1), sim::milliseconds(100));
  EXPECT_EQ(retry_backoff(2), sim::milliseconds(200));
  EXPECT_EQ(retry_backoff(3), sim::milliseconds(400));
}

TEST(TransportRecovery, RetryAllowedHonoursBudgetAndOosRule) {
  RecoveryPolicy policy;
  policy.enabled = true;
  ChunkRequest fov;
  fov.spatial = abr::SpatialClass::kFov;
  EXPECT_TRUE(retry_allowed(policy, fov, 0));
  EXPECT_TRUE(retry_allowed(policy, fov, 1));
  EXPECT_FALSE(retry_allowed(policy, fov, 2));  // budget fully consumed
  ChunkRequest oos;
  oos.spatial = abr::SpatialClass::kOos;
  EXPECT_FALSE(retry_allowed(policy, oos, 0));
  oos.urgent = true;  // urgent corrections keep their retry budget
  EXPECT_TRUE(retry_allowed(policy, oos, 0));
  policy.enabled = false;
  EXPECT_FALSE(retry_allowed(policy, fov, 0));
}

class TransportRecoveryTest : public ::testing::Test {
 protected:
  net::Link make_faulty_link(net::FaultPlan faults, double kbps = 8000.0) {
    return net::Link(simulator,
                     net::LinkConfig{.name = "chaos",
                                     .bandwidth = net::BandwidthTrace::constant(kbps),
                                     .rtt = sim::Duration{0},
                                     .loss_rate = 0.0,
                                     .faults = std::move(faults)});
  }

  static TransportOptions recovery_options() {
    TransportOptions options;
    options.recovery.enabled = true;
    return options;
  }

  sim::Simulator simulator;
};

TEST_F(TransportRecoveryTest, RetriesThroughOutageAndDelivers) {
  net::FaultPlan faults;
  faults.outages.push_back({.start_s = 0.2, .duration_s = 0.3});
  auto link = make_faulty_link(std::move(faults));
  SingleLinkTransport transport(link, recovery_options());
  std::optional<FetchOutcome> outcome;
  ChunkRequest req;
  req.id = {{0, 0}, Encoding::kAvc, 0};
  req.bytes = 1'000'000;
  req.deadline = sim::seconds(30.0);
  req.on_done = [&](sim::Time, FetchOutcome o) { outcome = o; };
  transport.fetch(std::move(req));
  simulator.run();
  // Attempt 0 dies when the outage starts; retries back off until the link
  // returns, then the request completes in full.
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, FetchOutcome::kDelivered);
  EXPECT_EQ(transport.bytes_fetched(), 1'000'000);
  EXPECT_EQ(transport.in_flight(), 0);
}

TEST_F(TransportRecoveryTest, StaleAttemptTimeoutNeverCancelsItsRetry) {
  // 1 MB/s, RTT 0. The outage at 0.05 s kills attempt 0 after 50 kB; the
  // retry starts after the 100 ms backoff at 0.15 s and needs 0.15 s for
  // the 150 kB. Attempt 0's timeout, max(deadline 0.2, 0 + 0.25), fires at
  // 0.25 s while the retry is on the wire: it must cancel nothing.
  net::FaultPlan faults;
  faults.outages.push_back({.start_s = 0.05, .duration_s = 0.03});
  auto link = make_faulty_link(std::move(faults));
  obs::Telemetry telemetry;
  TransportOptions options = recovery_options();
  options.telemetry = &telemetry;
  SingleLinkTransport transport(link, options);
  std::optional<FetchOutcome> outcome;
  sim::Time settled{sim::kTimeZero};
  ChunkRequest req;
  req.id = {{0, 0}, Encoding::kAvc, 0};
  req.bytes = 150'000;
  req.deadline = sim::seconds(0.2);
  req.on_done = [&](sim::Time t, FetchOutcome o) {
    outcome = o;
    settled = t;
  };
  transport.fetch(std::move(req));
  simulator.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, FetchOutcome::kDelivered);
  EXPECT_EQ(settled, sim::seconds(0.3));
  std::vector<sim::Time> starts;
  for (const obs::TraceEvent& e : telemetry.trace().events()) {
    if (e.type == obs::TraceEventType::kFetchAttemptStart) starts.push_back(e.ts);
  }
  EXPECT_EQ(starts, (std::vector<sim::Time>{sim::kTimeZero, sim::seconds(0.15)}));
  EXPECT_EQ(telemetry.metrics().counter("transport.retries").value(), 1);
  EXPECT_EQ(telemetry.metrics().counter("transport.timeouts").value(), 0);
  EXPECT_EQ(transport.bytes_fetched(), 150'000);
  EXPECT_EQ(transport.in_flight(), 0);
}

TEST_F(TransportRecoveryTest, BudgetExhaustionReportsFailed) {
  net::FaultPlan faults;
  faults.outages.push_back({.start_s = 0.2, .duration_s = 60.0});
  auto link = make_faulty_link(std::move(faults));
  obs::Telemetry telemetry;
  TransportOptions options = recovery_options();
  options.telemetry = &telemetry;
  SingleLinkTransport transport(link, options);
  std::optional<FetchOutcome> outcome;
  sim::Time settled{sim::kTimeZero};
  ChunkRequest req;
  req.id = {{0, 0}, Encoding::kAvc, 0};
  req.bytes = 1'000'000;
  req.deadline = sim::seconds(30.0);
  req.on_done = [&](sim::Time t, FetchOutcome o) {
    outcome = o;
    settled = t;
  };
  transport.fetch(std::move(req));
  simulator.run_until(sim::seconds(5.0));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, FetchOutcome::kFailed);
  // The outage kills the original attempt at 0.2 s; two retries follow
  // after 100 ms and 200 ms of backoff, both inside the outage, and the
  // second one's failure is final.
  std::vector<sim::Time> starts;
  for (const obs::TraceEvent& e : telemetry.trace().events()) {
    if (e.type == obs::TraceEventType::kFetchAttemptStart) {
      starts.push_back(e.ts);
    }
  }
  EXPECT_EQ(starts, (std::vector<sim::Time>{sim::kTimeZero, sim::seconds(0.3),
                                            sim::seconds(0.5)}));
  EXPECT_EQ(settled, sim::seconds(0.5));
  EXPECT_EQ(telemetry.metrics().counter("transport.retries").value(), 2);
  EXPECT_EQ(transport.in_flight(), 0);
}

TEST_F(TransportRecoveryTest, DeadlineDerivedTimeoutCancelsSlowTransfer) {
  // 800 kbps = 100 kB/s: a 1 MB chunk needs 10 s, far past its deadline.
  auto link = make_faulty_link({}, /*kbps=*/800.0);
  SingleLinkTransport transport(link, recovery_options());
  std::optional<FetchOutcome> outcome;
  sim::Time settled{sim::kTimeZero};
  ChunkRequest req;
  req.id = {{0, 0}, Encoding::kAvc, 0};
  req.bytes = 1'000'000;
  req.deadline = sim::seconds(0.5);
  req.on_done = [&](sim::Time t, FetchOutcome o) {
    outcome = o;
    settled = t;
  };
  transport.fetch(std::move(req));
  simulator.run_until(sim::seconds(5.0));
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, FetchOutcome::kTimedOut);
  EXPECT_NEAR(sim::to_seconds(settled), 0.5, 0.01);
  EXPECT_EQ(link.active_transfers(), 0);
  EXPECT_EQ(transport.in_flight(), 0);
}

TEST_F(TransportRecoveryTest, OosPrefetchAbandonedOnFirstFailure) {
  net::FaultPlan faults;
  faults.outages.push_back({.start_s = 0.2, .duration_s = 0.3});
  auto link = make_faulty_link(std::move(faults));
  SingleLinkTransport transport(link, recovery_options());
  std::optional<FetchOutcome> outcome;
  ChunkRequest req;
  req.id = {{0, 0}, Encoding::kAvc, 0};
  req.bytes = 1'000'000;
  req.spatial = abr::SpatialClass::kOos;
  req.deadline = sim::seconds(30.0);
  req.on_done = [&](sim::Time, FetchOutcome o) { outcome = o; };
  transport.fetch(std::move(req));
  simulator.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, FetchOutcome::kFailed);
}

TEST_F(TransportRecoveryTest, DispatchOrderPinsClassesAndRetryPlacement) {
  // One transfer at a time over a 1 MB/s, 20 ms link. The outage edge at
  // 50 ms kills request 1 mid-flight; its retry returns 100 ms later with
  // its original submission seq, so it re-enters the regular class ahead
  // of every regular request submitted after it. Urgent requests of
  // either spatial class share one class and keep submission order.
  net::FaultPlan faults;
  faults.outages.push_back({.start_s = 0.05, .duration_s = 0.01});
  net::Link link(simulator,
                 net::LinkConfig{.name = "order",
                                 .bandwidth = net::BandwidthTrace::constant(8000.0),
                                 .rtt = sim::milliseconds(20),
                                 .loss_rate = 0.0,
                                 .faults = std::move(faults)});
  obs::Telemetry telemetry;
  TransportOptions options = recovery_options();
  options.max_concurrent = 1;
  options.telemetry = &telemetry;
  SingleLinkTransport transport(link, options);
  const auto submit = [&](std::int64_t id, abr::SpatialClass spatial, bool urgent) {
    ChunkRequest req;
    req.id = {{static_cast<int>(id), 0}, Encoding::kAvc, 0};
    req.bytes = 100'000;
    req.spatial = spatial;
    req.urgent = urgent;
    req.deadline = sim::seconds(30.0);
    req.request_id = id;
    transport.fetch(std::move(req));
  };
  submit(1, abr::SpatialClass::kFov, false);
  submit(2, abr::SpatialClass::kOos, false);
  submit(3, abr::SpatialClass::kFov, false);
  submit(4, abr::SpatialClass::kOos, true);
  submit(5, abr::SpatialClass::kFov, true);
  submit(6, abr::SpatialClass::kFov, false);
  simulator.run();
  using Attempt = std::tuple<std::int64_t, std::int32_t, int>;
  std::vector<Attempt> attempts;
  for (const obs::TraceEvent& e : telemetry.trace().events()) {
    if (e.type == obs::TraceEventType::kFetchAttemptStart) {
      attempts.emplace_back(e.request, e.path, static_cast<int>(e.value));
    }
  }
  EXPECT_EQ(attempts, (std::vector<Attempt>{{1, -1, 0},
                                            {4, -1, 0},
                                            {5, -1, 0},
                                            {1, -1, 1},
                                            {2, -1, 0},
                                            {3, -1, 0},
                                            {6, -1, 0}}));
  EXPECT_EQ(transport.bytes_fetched(), 600'000);
}

TEST_F(TransportRecoveryTest, RecoveryDisabledKeepsLegacySemantics) {
  net::FaultPlan faults;
  faults.outages.push_back({.start_s = 0.2, .duration_s = 60.0});
  auto link = make_faulty_link(std::move(faults));
  SingleLinkTransport transport(link);  // recovery off
  std::optional<FetchOutcome> outcome;
  ChunkRequest req;
  req.id = {{0, 0}, Encoding::kAvc, 0};
  req.bytes = 1'000'000;
  req.deadline = sim::seconds(30.0);
  req.on_done = [&](sim::Time, FetchOutcome o) { outcome = o; };
  transport.fetch(std::move(req));
  simulator.run_until(sim::seconds(5.0));
  // No retries, no timeout: the link failure surfaces directly.
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(*outcome, FetchOutcome::kFailed);
  EXPECT_EQ(transport.in_flight(), 0);
}

// A ChunkSource that settles most fetches inside fetch() itself, as an
// in-memory source may. A tile that is a multiple of 5 settles 10 ms later
// instead; a tile that is 3 mod 7 fails its first attempt inline.
class InlineSource final : public net::ChunkSource {
 public:
  explicit InlineSource(sim::Simulator& simulator) : simulator_(simulator) {}

  net::FetchId fetch(const net::FetchSpec& spec,
                     net::TransferCallback on_done) override {
    const net::FetchId id = next_id_++;
    ++depth_;
    max_depth = std::max(max_depth, depth_);
    const geo::TileId tile = spec.id.key.tile;
    const bool fail = tile % 7 == 3 && failed_tiles_.insert(tile).second;
    if (fail) {
      on_done({.status = net::TransferStatus::kFailed,
               .time = simulator_.now(),
               .bytes_delivered = 0});
    } else if (tile % 5 == 0) {
      deferred_.emplace(id, std::make_pair(spec.bytes, std::move(on_done)));
      simulator_.schedule_after(sim::milliseconds(10), [this, id] {
        const auto it = deferred_.find(id);
        if (it == deferred_.end()) return;
        auto [bytes, callback] = std::move(it->second);
        deferred_.erase(it);
        callback({.status = net::TransferStatus::kCompleted,
                  .time = simulator_.now(),
                  .bytes_delivered = bytes});
      });
    } else {
      on_done({.status = net::TransferStatus::kCompleted,
               .time = simulator_.now(),
               .bytes_delivered = spec.bytes});
    }
    --depth_;
    return id;
  }

  bool cancel(net::FetchId id) override {
    const auto it = deferred_.find(id);
    if (it == deferred_.end()) return false;
    net::TransferCallback callback = std::move(it->second.second);
    deferred_.erase(it);
    callback({.status = net::TransferStatus::kCancelled,
              .time = simulator_.now(),
              .bytes_delivered = 0});
    return true;
  }

  [[nodiscard]] sim::Duration rtt() const override { return sim::Duration{0}; }
  [[nodiscard]] sim::Simulator& simulator() override { return simulator_; }

  int max_depth = 0;  // deepest nesting of fetch() calls seen

 private:
  sim::Simulator& simulator_;
  net::FetchId next_id_ = 1;
  int depth_ = 0;
  std::set<std::int32_t> failed_tiles_;
  // Deferred fetches: their bytes and callback.
  std::map<net::FetchId, std::pair<std::int64_t, net::TransferCallback>>
      deferred_;
};

TEST(FetchQueueSlab, InlineSettlesAndNestedDispatchesSettleEachRequestOnce) {
  // Every settled attempt submits the next request while its own slot is
  // still taken, and most of those settle inside fetch(): the attempt slab
  // grows under nested dispatches. The inline failures wait out their
  // backoff and retry on a second queue through route_retry.
  sim::Simulator simulator;
  InlineSource source(simulator);
  TransportOptions options;
  options.max_concurrent = 3;
  options.recovery.enabled = true;
  FetchQueue queue(source, options, /*trace_path=*/-1);
  FetchQueue retries(source, options, /*trace_path=*/-1);
  queue.route_retry = [&retries]() -> FetchQueue& { return retries; };

  constexpr int kRequests = 80;
  std::vector<int> settles(kRequests, 0);
  std::vector<std::optional<FetchOutcome>> outcomes(kRequests);
  int submitted = 0;
  std::int64_t retried_bytes = 0;
  std::int64_t total_bytes = 0;
  const auto submit = [&] {
    const int tile = submitted++;
    ChunkRequest req;
    req.id = {{tile, 0}, Encoding::kAvc, 0};
    req.bytes = 1'000 + tile;
    req.deadline = sim::seconds(30.0);
    req.on_done = [&settles, &outcomes, tile](sim::Time, FetchOutcome o) {
      ++settles[static_cast<std::size_t>(tile)];
      outcomes[static_cast<std::size_t>(tile)] = o;
    };
    total_bytes += req.bytes;
    if (tile % 7 == 3) retried_bytes += req.bytes;
    queue.submit(std::move(req), static_cast<std::size_t>(tile % 2),
                 static_cast<std::uint64_t>(tile), /*best_effort=*/false);
  };
  queue.on_attempt_settled = [&](const net::TransferResult&) {
    if (submitted < kRequests) submit();
  };
  for (int i = 0; i < 3; ++i) submit();
  simulator.run();

  EXPECT_EQ(submitted, kRequests);
  for (int tile = 0; tile < kRequests; ++tile) {
    EXPECT_EQ(settles[static_cast<std::size_t>(tile)], 1) << "tile " << tile;
    EXPECT_EQ(outcomes[static_cast<std::size_t>(tile)],
              FetchOutcome::kDelivered)
        << "tile " << tile;
  }
  EXPECT_GE(source.max_depth, 3);
  EXPECT_EQ(retries.bytes_fetched(), retried_bytes);
  EXPECT_EQ(queue.bytes_fetched() + retries.bytes_fetched(), total_bytes);
  EXPECT_EQ(queue.in_flight(), 0);
  EXPECT_EQ(retries.in_flight(), 0);
}

// A transport that only records: each test settles the recorded requests
// by hand, in whatever order it needs.
class RecordingTransport : public ChunkTransport {
 public:
  void fetch(ChunkRequest request) override { requests.push_back(std::move(request)); }
  [[nodiscard]] double estimated_kbps() const override { return 0.0; }
  [[nodiscard]] int in_flight() const override {
    return static_cast<int>(requests.size());
  }
  [[nodiscard]] std::int64_t bytes_fetched() const override { return 0; }

  std::vector<ChunkRequest> requests;
};

// A Viewer with its clock stopped at zero and its fetch path opened up: it
// is never started, so only what a test calls runs, and each settle it
// sees is appended to `settled` (when given).
class FetchViewer : public Viewer {
 public:
  using Viewer::buffer_;
  using Viewer::dispatch;
  using Viewer::Fetch;
  using Viewer::fetch_counters_;
  using Viewer::recover;
  using Viewer::upgrade;

  FetchViewer(sim::Simulator& simulator, std::shared_ptr<const media::VideoModel> video,
              ChunkTransport& transport, const hmp::HeadTrace& head,
              SessionConfig config,
              std::vector<std::pair<Fetch, FetchOutcome>>* settled = nullptr)
      : Viewer(simulator, std::move(video), transport, head, std::move(config),
               /*crowd=*/nullptr, /*batch=*/nullptr, sim::seconds(1.0)),
        settled_(settled) {}

 private:
  [[nodiscard]] sim::Time content_now() const override { return sim::kTimeZero; }
  [[nodiscard]] sim::Time deadline_of(media::ChunkIndex /*index*/) const override {
    return sim::kTimeZero;
  }
  [[nodiscard]] media::ChunkIndex first_unplayed() const override { return 0; }
  void on_settle(const Fetch& fetch, FetchOutcome outcome) override {
    if (settled_ != nullptr) settled_->emplace_back(fetch, outcome);
  }

  std::vector<std::pair<Fetch, FetchOutcome>>* settled_;
};

// A viewer that never turns its head.
hmp::HeadTrace still_head() { return hmp::HeadTrace({{sim::kTimeZero, {}}}, 25.0); }

class ViewerFetchTest : public ::testing::Test {
 protected:
  std::unique_ptr<FetchViewer> make_viewer(bool recovery) {
    SessionConfig config;
    config.abr.sperke.mode = abr::EncodingMode::kSvc;
    config.telemetry = &telemetry;
    config.fetch_recovery = recovery;
    return std::make_unique<FetchViewer>(simulator, video, transport, head,
                                         std::move(config), &settled);
  }

  sim::Simulator simulator;
  std::shared_ptr<media::VideoModel> video = make_video();
  hmp::HeadTrace head = still_head();
  obs::Telemetry telemetry;
  RecordingTransport transport;
  std::vector<std::pair<FetchViewer::Fetch, FetchOutcome>> settled;
};

TEST_F(ViewerFetchTest, DispatchSkipsCoveredAddressesAndMarksUrgency) {
  auto viewer = make_viewer(false);
  const PlaybackBuffer& buffer = viewer->buffer();
  const ChunkAddress soon{{2, 0}, Encoding::kSvc, 0};
  const ChunkAddress later{{3, 4}, Encoding::kSvc, 1};
  const ChunkAddress buffered{{5, 0}, Encoding::kSvc, 0};
  viewer->buffer_.add(buffered);

  viewer->dispatch(soon, abr::SpatialClass::kFov, sim::seconds(0.5));
  viewer->dispatch(soon, abr::SpatialClass::kFov, sim::seconds(0.5));
  viewer->dispatch(buffered, abr::SpatialClass::kFov, sim::seconds(0.5));
  viewer->dispatch(later, abr::SpatialClass::kOos, sim::seconds(4.0));
  // Another level of an in-flight cell is a different request.
  viewer->dispatch({{2, 0}, Encoding::kSvc, 1}, abr::SpatialClass::kFov,
                   sim::seconds(0.5));

  ASSERT_EQ(transport.requests.size(), 3U);
  EXPECT_EQ(viewer->fetch_counters_.fetches, 3);
  EXPECT_EQ(viewer->fetch_counters_.urgent_fetches, 2);
  EXPECT_TRUE(transport.requests[0].urgent);
  EXPECT_FALSE(transport.requests[1].urgent);
  EXPECT_EQ(transport.requests[1].spatial, abr::SpatialClass::kOos);
  EXPECT_EQ(transport.requests[1].bytes, video->size_bytes(later));
  EXPECT_EQ(transport.requests[0].request_id, 1);
  EXPECT_EQ(transport.requests[1].request_id, 2);
  EXPECT_TRUE(buffer.in_flight(soon.key));
  EXPECT_TRUE(buffer.in_flight(later.key));

  // A settle clears only its own level's bit and reaches on_settle once.
  transport.requests[0].on_done(sim::milliseconds(80), FetchOutcome::kDelivered);
  ASSERT_EQ(settled.size(), 1U);
  EXPECT_EQ(settled[0].first.address, soon);
  EXPECT_EQ(settled[0].first.request_id, 1);
  EXPECT_EQ(settled[0].second, FetchOutcome::kDelivered);
  EXPECT_TRUE(buffer.in_flight(soon.key));
  transport.requests[2].on_done(sim::milliseconds(90), FetchOutcome::kDropped);
  EXPECT_FALSE(buffer.in_flight(soon.key));

  // The fetch path does not fill the buffer (on_settle does), so a settled
  // address that is still missing can be fetched again.
  viewer->dispatch(soon, abr::SpatialClass::kFov, sim::seconds(0.5));
  EXPECT_EQ(transport.requests.size(), 4U);

  // Requests settling after the viewer is gone are ignored.
  viewer.reset();
  transport.requests[1].on_done(sim::seconds(1.0), FetchOutcome::kDelivered);
  EXPECT_EQ(settled.size(), 2U);
}

TEST_F(ViewerFetchTest, RecoverRetriesFailedFovFetchesAtTheBaseTier) {
  auto viewer = make_viewer(true);
  const ChunkAddress fov{{1, 3}, Encoding::kSvc, 2};
  const ChunkAddress oos{{6, 3}, Encoding::kSvc, 1};
  const ChunkAddress behind{{4, 1}, Encoding::kSvc, 1};
  viewer->dispatch(fov, abr::SpatialClass::kFov, sim::seconds(3.0));
  viewer->dispatch(oos, abr::SpatialClass::kOos, sim::seconds(3.0));
  viewer->dispatch(behind, abr::SpatialClass::kFov, sim::seconds(3.0));
  for (std::size_t i = 0; i < 3; ++i) {
    transport.requests[i].on_done(sim::milliseconds(200), FetchOutcome::kFailed);
  }
  ASSERT_EQ(settled.size(), 3U);

  // The failed FoV fetch comes back as its cell's base layer, due at the
  // same deadline and citing the failed request as its parent.
  viewer->recover(settled[0].first, 2);
  ASSERT_EQ(transport.requests.size(), 4U);
  const ChunkRequest& retry = transport.requests[3];
  EXPECT_EQ(retry.id, (ChunkAddress{fov.key, Encoding::kSvc, 0}));
  EXPECT_EQ(retry.spatial, abr::SpatialClass::kFov);
  EXPECT_EQ(retry.deadline, sim::seconds(3.0));
  EXPECT_EQ(retry.parent_id, settled[0].first.request_id);
  EXPECT_NE(retry.request_id, 0);
  // A second failure of the same cell finds the base layer in flight.
  viewer->recover(settled[0].first, 2);
  // OOS fetches and chunks the playhead has passed are not retried.
  viewer->recover(settled[1].first, 2);
  viewer->recover(settled[2].first, 2);
  EXPECT_EQ(transport.requests.size(), 4U);
  EXPECT_EQ(viewer->fetch_counters_.fetch_failures, 4);
  EXPECT_EQ(viewer->fetch_counters_.degraded_retries, 1);

  // Nor is a fetch whose deadline has already passed.
  simulator.run_until(sim::seconds(3.5));
  transport.requests[3].on_done(sim::seconds(3.5), FetchOutcome::kTimedOut);
  viewer->recover(settled.back().first, 2);
  EXPECT_EQ(transport.requests.size(), 4U);
  EXPECT_EQ(viewer->fetch_counters_.degraded_retries, 1);

  // With recovery off, failures are only counted.
  auto plain = make_viewer(false);
  plain->recover(settled[0].first, 0);
  EXPECT_EQ(transport.requests.size(), 4U);
  EXPECT_EQ(plain->fetch_counters_.fetch_failures, 1);
  EXPECT_EQ(plain->fetch_counters_.degraded_retries, 0);
}

// The visible-first upgrade pass that Viewer::upgrade replaced, over the
// public fetch path: each visible tile displayed below `target` is offered
// to the policy, a decision with a layer neither buffered nor in flight is
// traced, and its fetches are dispatched.
void visible_first_upgrade(FetchViewer& viewer, const abr::TileAbrPolicy& policy,
                           obs::Telemetry& telemetry, sim::Time now,
                           media::ChunkIndex index,
                           std::span<const geo::TileId> visible,
                           std::span<const double> probs,
                           media::QualityLevel target, sim::Time deadline,
                           double estimated_kbps) {
  const PlaybackBuffer& buffer = viewer.buffer();
  for (geo::TileId tile : visible) {
    const ChunkKey key{tile, index};
    const media::QualityLevel current = buffer.displayable_quality(key);
    if (current >= target) continue;
    const auto decision = policy.consider_upgrade(
        key, current, buffer.svc_contiguous_quality(key), target,
        probs[static_cast<std::size_t>(tile)], deadline - now, estimated_kbps);
    if (!decision.upgrade) continue;
    if (!std::all_of(decision.fetches.begin(), decision.fetches.end(),
                     [&](const ChunkAddress& a) { return buffer.covered(a); })) {
      telemetry.trace().record({.type = obs::TraceEventType::kUpgradeDecided,
                                .ts = now,
                                .tile = tile,
                                .chunk = index,
                                .quality = target,
                                .value = static_cast<double>(current)});
    }
    for (const auto& address : decision.fetches) {
      viewer.dispatch(address, abr::SpatialClass::kFov, deadline);
    }
  }
}

TEST_F(ViewerFetchTest, UpgradeMatchesTheVisibleFirstLoopAndAsksForVisibilityLazily) {
  // Random buffer states, in-flight levels, probability maps, targets,
  // slacks and estimates on 4x6 and 8x12 grids, in every encoding mode. The
  // clock stays at zero, so a chunk's slack is its deadline.
  std::vector<std::shared_ptr<media::VideoModel>> videos;
  for (const auto& [rows, cols] : {std::pair{4, 6}, std::pair{8, 12}}) {
    media::VideoModelConfig cfg;
    cfg.duration_s = 4.0;
    cfg.tile_rows = rows;
    cfg.tile_cols = cols;
    cfg.seed = 11;
    videos.push_back(std::make_shared<media::VideoModel>(cfg));
  }
  constexpr std::array kModes{abr::EncodingMode::kAvcNoUpgrade,
                              abr::EncodingMode::kAvcRefetch,
                              abr::EncodingMode::kSvc, abr::EncodingMode::kHybrid};
  const auto event_fields = [](const obs::TraceEvent& e) {
    return std::tuple(e.type, e.ts, e.tile, e.chunk, e.quality, e.bytes, e.urgent,
                      e.value, e.request, e.parent);
  };

  Rng rng(2024);
  int sending_cases = 0;
  int covered_only_cases = 0;  // some decision to upgrade, all of it covered
  constexpr int kCases = 3000;
  for (int c = 0; c < kCases; ++c) {
    const auto& model = videos[static_cast<std::size_t>(rng.uniform_int(0, 1))];
    abr::TileAbrConfig config;
    config.sperke.mode = kModes[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    const auto upgrade_policy = abr::make_policy(model, config);
    const int tiles = model->tile_count();
    const int levels = model->ladder().levels();
    const auto index = static_cast<media::ChunkIndex>(
        rng.uniform_int(0, model->chunk_count() - 1));

    // Buffer contents: nothing, an AVC copy, contiguous SVC layers, or SVC
    // layers with a gap over an AVC copy.
    std::vector<ChunkAddress> held;
    for (geo::TileId tile = 0; tile < tiles; ++tile) {
      const ChunkKey key{tile, index};
      const auto level = [&] {
        return static_cast<media::QualityLevel>(rng.uniform_int(0, levels - 1));
      };
      const double kind = rng.uniform(0.0, 1.0);
      if (kind < 0.3) continue;
      if (kind < 0.55 || kind >= 0.9) held.push_back({key, Encoding::kAvc, level()});
      if (kind >= 0.55) {
        const media::QualityLevel top = level();
        for (media::LayerIndex l = kind < 0.9 ? 0 : 1; l <= top; ++l) {
          held.push_back({key, Encoding::kSvc, l});
        }
      }
    }
    // In-flight levels of both encodings.
    std::vector<ChunkAddress> flying;
    const double in_flight_p = std::array{0.0, 0.15, 0.5, 0.9}[static_cast<std::size_t>(
        rng.uniform_int(0, 3))];
    for (geo::TileId tile = 0; tile < tiles; ++tile) {
      for (media::QualityLevel b = 0; b < levels; ++b) {
        for (const Encoding encoding : {Encoding::kAvc, Encoding::kSvc}) {
          if (rng.bernoulli(in_flight_p)) flying.push_back({{tile, index}, encoding, b});
        }
      }
    }
    // A peaked probability map, so the policy's lift gate passes some tiles.
    std::vector<double> probs(static_cast<std::size_t>(tiles));
    double sum = 0.0;
    for (double& p : probs) {
      p = std::exp(rng.normal(0.0, 1.5));
      sum += p;
    }
    for (double& p : probs) p /= sum;
    std::vector<geo::TileId> visible;
    const double visible_p = rng.uniform(0.05, 0.6);
    for (geo::TileId tile = 0; tile < tiles; ++tile) {
      if (rng.bernoulli(visible_p)) visible.push_back(tile);
    }
    const auto target =
        static_cast<media::QualityLevel>(rng.uniform_int(0, levels - 1));
    const sim::Time deadline = sim::milliseconds(rng.uniform_int(-200, 4'500));
    const double kbps = std::exp(rng.uniform(std::log(50.0), std::log(200'000.0)));

    struct World {
      World(sim::Simulator& simulator, const std::shared_ptr<media::VideoModel>& v,
            const hmp::HeadTrace& head, const abr::TileAbrConfig& abr,
            const std::vector<ChunkAddress>& held,
            const std::vector<ChunkAddress>& flying)
          : viewer(simulator, v, transport, head, [&] {
              SessionConfig session;
              session.abr = abr;
              session.telemetry = &telemetry;
              return session;
            }()) {
        for (const ChunkAddress& a : held) viewer.buffer_.add(a);
        for (const ChunkAddress& a : flying) viewer.buffer_.set_in_flight(a, true);
      }
      obs::Telemetry telemetry;
      RecordingTransport transport;
      FetchViewer viewer;
    };
    World lazy(simulator, model, head, config, held, flying);
    World reference(simulator, model, head, config, held, flying);
    const PlaybackBuffer& start = lazy.viewer.buffer();

    // Whether any tile, visible or not, has a decision that would send.
    bool would_send = false;
    bool would_upgrade = false;
    for (geo::TileId tile = 0; tile < tiles; ++tile) {
      const ChunkKey key{tile, index};
      const media::QualityLevel current = start.displayable_quality(key);
      if (current >= target) continue;
      const auto decision = upgrade_policy->consider_upgrade(
          key, current, start.svc_contiguous_quality(key), target,
          probs[static_cast<std::size_t>(tile)], deadline - simulator.now(), kbps);
      would_upgrade |= decision.upgrade;
      for (const ChunkAddress& a : decision.fetches) would_send |= !start.covered(a);
    }
    sending_cases += would_send ? 1 : 0;
    covered_only_cases += would_upgrade && !would_send ? 1 : 0;

    int asked = 0;
    lazy.viewer.upgrade(index, probs, target, deadline, kbps, [&] {
      ++asked;
      return std::span<const geo::TileId>(visible);
    });
    visible_first_upgrade(reference.viewer, *upgrade_policy, reference.telemetry,
                          simulator.now(), index, visible, probs, target, deadline,
                          kbps);

    SCOPED_TRACE("case " + std::to_string(c));
    EXPECT_EQ(asked, would_send ? 1 : 0);
    ASSERT_EQ(lazy.transport.requests.size(), reference.transport.requests.size());
    for (std::size_t r = 0; r < lazy.transport.requests.size(); ++r) {
      const ChunkRequest& got = lazy.transport.requests[r];
      const ChunkRequest& want = reference.transport.requests[r];
      EXPECT_EQ(got.id, want.id);
      EXPECT_EQ(got.urgent, want.urgent);
      EXPECT_EQ(got.deadline, want.deadline);
      EXPECT_EQ(got.bytes, want.bytes);
      EXPECT_EQ(got.request_id, want.request_id);
    }
    const auto& got_events = lazy.telemetry.trace().events();
    const auto& want_events = reference.telemetry.trace().events();
    ASSERT_EQ(got_events.size(), want_events.size());
    for (std::size_t e = 0; e < got_events.size(); ++e) {
      EXPECT_EQ(event_fields(got_events[e]), event_fields(want_events[e]));
    }
    EXPECT_EQ(lazy.viewer.fetch_counters_.upgrades +
                  lazy.viewer.fetch_counters_.late_corrections,
              reference.viewer.fetch_counters_.fetches);
  }
  // The draw reaches every branch: sending passes, and passes whose only
  // upgrade decisions are already covered.
  EXPECT_GT(sending_cases, kCases / 10);
  EXPECT_GT(covered_only_cases, kCases / 50);
}

class SessionTest : public ::testing::Test {
 protected:
  static hmp::HeadTrace steady_trace(double duration_s, std::uint64_t seed = 3) {
    hmp::HeadTraceConfig cfg;
    cfg.duration_s = duration_s;
    cfg.sample_rate_hz = 25.0;
    cfg.profile = hmp::UserProfile::adult();
    cfg.seed = seed;
    return hmp::generate_head_trace(cfg);
  }

  SessionReport run_session(double link_kbps, SessionConfig config,
                            double video_s = 15.0) {
    sim::Simulator simulator;
    net::Link link(
        simulator,
        net::LinkConfig{.name = "dl",
                        .bandwidth = net::BandwidthTrace::constant(link_kbps),
                        .rtt = sim::milliseconds(30),
                        .loss_rate = 0.0, .faults = {}});
    SingleLinkTransport transport(link);
    auto video = make_video(video_s);
    const auto trace = steady_trace(video_s + 40.0);
    StreamingSession session(simulator, video, transport, trace, config);
    session.start();
    simulator.run_until(sim::seconds(video_s + 120.0));
    return session.report();
  }
};

TEST_F(SessionTest, FastLinkPlaysSmoothlyAtHighQuality) {
  SessionConfig config;
  const auto report = run_session(50'000.0, config);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.qoe.chunks_played, 15);
  // HMP misses may force the occasional urgent correction, but on a fast
  // link those stalls are bounded by the RTT, not the bandwidth.
  EXPECT_LT(report.qoe.stall_seconds, 0.5);
  EXPECT_GT(report.qoe.mean_viewport_utility, 0.5);
  EXPECT_GT(report.fetches, 0);
}

TEST_F(SessionTest, SlowLinkLowersQualityButCompletes) {
  SessionConfig config;
  const auto fast = run_session(50'000.0, config);
  const auto slow = run_session(2'000.0, config);
  EXPECT_TRUE(slow.completed);
  EXPECT_EQ(slow.qoe.chunks_played, 15);
  EXPECT_LT(slow.qoe.mean_viewport_utility, fast.qoe.mean_viewport_utility);
}

TEST_F(SessionTest, FovGuidedUsesFewerBytesThanAgnostic) {
  // Equal-quality comparison: pin both to ladder level 2, then the only
  // difference is *which tiles* are fetched.
  SessionConfig guided;
  guided.abr.sperke.regular_vra = "fixed-2";
  SessionConfig agnostic;
  agnostic.abr.policy = "fullpano";
  agnostic.abr.fullpano.regular_vra = "fixed-2";
  const auto g = run_session(20'000.0, guided);
  const auto a = run_session(20'000.0, agnostic);
  EXPECT_TRUE(g.completed);
  EXPECT_TRUE(a.completed);
  EXPECT_LT(g.qoe.bytes_downloaded, a.qoe.bytes_downloaded);
}

TEST_F(SessionTest, AvcNoUpgradeModeRuns) {
  SessionConfig config;
  config.abr.sperke.mode = abr::EncodingMode::kAvcNoUpgrade;
  const auto report = run_session(20'000.0, config);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.upgrades, 0);
}

TEST_F(SessionTest, SvcModePerformsUpgradesOrCorrections) {
  SessionConfig config;
  config.abr.sperke.mode = abr::EncodingMode::kSvc;
  const auto report = run_session(20'000.0, config);
  EXPECT_TRUE(report.completed);
  // With a moving head some chunks should need upgrades or late fetches.
  EXPECT_GT(report.upgrades + report.late_corrections + report.urgent_fetches, 0);
}

TEST_F(SessionTest, ReportTracksPerChunkUtility) {
  SessionConfig config;
  const auto report = run_session(50'000.0, config);
  EXPECT_EQ(report.viewport_utility_per_chunk.size(), 15u);
  for (double u : report.viewport_utility_per_chunk) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

TEST_F(SessionTest, StartupDelayIsPositiveAndBounded) {
  SessionConfig config;
  const auto report = run_session(50'000.0, config);
  EXPECT_GT(report.startup_delay, sim::Duration{0});
  EXPECT_LT(report.startup_delay, sim::seconds(5.0));
}

TEST_F(SessionTest, DataBudgetCapsSpending) {
  SessionConfig unlimited;
  const auto free_run = run_session(50'000.0, unlimited);
  ASSERT_TRUE(free_run.completed);
  // Grant roughly half of what the unconstrained session spent.
  SessionConfig capped;
  capped.data_budget_bytes = free_run.qoe.bytes_downloaded / 2;
  const auto budgeted = run_session(50'000.0, capped);
  EXPECT_TRUE(budgeted.completed);
  EXPECT_EQ(budgeted.qoe.chunks_played, 15);
  // The budget is respected within one chunk's worth of slack (plans are
  // committed before their bytes land).
  EXPECT_LT(budgeted.qoe.bytes_downloaded,
            capped.data_budget_bytes + capped.data_budget_bytes / 4);
  EXPECT_LT(budgeted.qoe.mean_viewport_utility,
            free_run.qoe.mean_viewport_utility);
}

TEST_F(SessionTest, EngagementExtremesStillComplete) {
  for (double engagement : {0.0, 1.0}) {
    SessionConfig config;
    config.context.engagement = engagement;
    const auto report = run_session(30'000.0, config);
    EXPECT_TRUE(report.completed) << engagement;
    EXPECT_EQ(report.qoe.chunks_played, 15) << engagement;
  }
}

TEST_F(SessionTest, ZeroBandwidthNeverStarts) {
  SessionConfig config;
  sim::Simulator simulator;
  net::Link link(simulator,
                 net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(0.0), .faults = {}});
  SingleLinkTransport transport(link);
  auto video = make_video(5.0);
  const auto trace = steady_trace(60.0);
  StreamingSession session(simulator, video, transport, trace, config);
  session.start();
  simulator.run_until(sim::seconds(30.0));
  EXPECT_FALSE(session.finished());
  EXPECT_EQ(session.report().qoe.chunks_played, 0);
}

TEST_F(SessionTest, RejectsBadConfig) {
  // Each row breaks one field. Both validate() and the constructor must
  // throw, so a bad config never reaches start().
  const std::vector<std::pair<const char*, void (*)(SessionConfig&)>> rows{
      {"prefetch horizon 0", [](SessionConfig& c) { c.prefetch_horizon_chunks = 0; }},
      {"prefetch horizon < 0",
       [](SessionConfig& c) { c.prefetch_horizon_chunks = -4; }},
  };
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  SingleLinkTransport transport(link);
  auto video = make_video(5.0);
  const auto trace = steady_trace(10.0);
  EXPECT_NO_THROW(validate(SessionConfig{}));
  for (const auto& [what, breaks] : rows) {
    SessionConfig bad;
    breaks(bad);
    EXPECT_THROW(validate(bad), std::invalid_argument) << what;
    EXPECT_THROW(StreamingSession(simulator, video, transport, trace, bad),
                 std::invalid_argument)
        << what;
  }
}

// One row per SessionConfig field that validate() bounds past the prefetch
// horizon. A viewport of 180 degrees or more would mirror the frustum
// (visible_tiles takes tan(extent / 2)); NaN must fail every check.
struct SessionField {
  const char* name;
  void (*set)(SessionConfig&, double);
  std::vector<double> bad;
  double good;  // the nearest legal value, still accepted
};

void PrintTo(const SessionField& field, std::ostream* os) { *os << field.name; }

class SessionFieldValidation : public SessionTest,
                               public ::testing::WithParamInterface<SessionField> {};

TEST_P(SessionFieldValidation, ValidateAndConstructorRejectEveryBadValue) {
  const SessionField& field = GetParam();
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  SingleLinkTransport transport(link);
  auto video = make_video(5.0);
  const auto trace = steady_trace(10.0);
  for (const double value : field.bad) {
    SessionConfig bad;
    field.set(bad, value);
    EXPECT_THROW(validate(bad), std::invalid_argument) << field.name << " = " << value;
    EXPECT_THROW(StreamingSession(simulator, video, transport, trace, bad),
                 std::invalid_argument)
        << field.name << " = " << value;
  }
  SessionConfig good;
  field.set(good, field.good);
  EXPECT_NO_THROW(validate(good)) << field.name << " = " << field.good;
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

INSTANTIATE_TEST_SUITE_P(
    Fields, SessionFieldValidation,
    ::testing::Values(
        SessionField{"viewport_width",
                     [](SessionConfig& c, double v) { c.viewport.width_deg = v; },
                     {kNan, 0.0, -90.0, kInf, 180.0, 720.0}, 179.0},
        SessionField{"viewport_height",
                     [](SessionConfig& c, double v) { c.viewport.height_deg = v; },
                     {kNan, 0.0, -90.0, kInf, 180.0, 720.0}, 179.0},
        SessionField{"engagement",
                     [](SessionConfig& c, double v) { c.context.engagement = v; },
                     {kNan, -0.1, 1.5, kInf}, 1.0},
        SessionField{"max_speed_dps",
                     [](SessionConfig& c, double v) { c.context.max_speed_dps = v; },
                     {kNan, 0.0, -30.0, kInf}, 1.0},
        SessionField{"home_yaw_deg",
                     [](SessionConfig& c, double v) { c.context.home_yaw_deg = v; },
                     {kNan, kInf, -kInf}, -180.0},
        SessionField{"data_budget_bytes",
                     [](SessionConfig& c, double v) {
                       c.data_budget_bytes = static_cast<std::int64_t>(v);
                     },
                     {-1.0, -1e6}, 0.0}),
    [](const auto& info) { return std::string(info.param.name); });

// The planner reads the crowd prior of every chunk it reaches, so a
// heatmap shorter than the video is rejected at construction instead of
// failing mid-run.
TEST_F(SessionTest, RejectsCrowdShorterThanTheVideo) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  SingleLinkTransport transport(link);
  auto video = make_video(15.0);
  const auto trace = steady_trace(20.0);
  const hmp::ViewingHeatmap short_crowd(video->tile_count(), 6);
  EXPECT_THROW(StreamingSession(simulator, video, transport, trace,
                                SessionConfig{}, &short_crowd),
               std::invalid_argument);
  const hmp::ViewingHeatmap crowd(video->tile_count(), video->chunk_count());
  EXPECT_NO_THROW(StreamingSession(simulator, video, transport, trace,
                                   SessionConfig{}, &crowd));
}

TEST_F(SessionTest, NullVideoThrows) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  SingleLinkTransport transport(link);
  const auto trace = steady_trace(20.0);
  EXPECT_THROW(StreamingSession(simulator, nullptr, transport, trace,
                                SessionConfig{}),
               std::invalid_argument);
}

TEST_F(SessionTest, SessionRecoversAcrossMidStreamOutage) {
  sim::Simulator simulator;
  net::FaultPlan faults;
  faults.outages.push_back({.start_s = 4.0, .duration_s = 1.5});
  net::Link link(
      simulator,
      net::LinkConfig{.name = "dl",
                      .bandwidth = net::BandwidthTrace::constant(20'000.0),
                      .rtt = sim::milliseconds(30),
                      .loss_rate = 0.0,
                      .faults = std::move(faults)});
  TransportOptions options;
  options.recovery.enabled = true;
  SingleLinkTransport transport(link, options);
  SessionConfig config;
  config.fetch_recovery = true;
  auto video = make_video(15.0);
  const auto trace = steady_trace(60.0);
  StreamingSession session(simulator, video, transport, trace, config);
  session.start();
  simulator.run_until(sim::seconds(120.0));
  const auto report = session.report();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.qoe.chunks_played, 15);
  // The outage killed in-flight fetches; the session saw and survived them.
  EXPECT_GT(report.fetch_failures, 0);
}

// Pins one stall-heavy session end to end: every SessionReport field and
// the count of each trace event type. On a 4x6 grid at 1.9 Mbps the
// session stalls eight times with upgrades on, and with this content and
// trace the 250 ms upgrade scans land in a stall both before and after the
// stall's first head sample. That sample moves the prediction while media
// time stays frozen, so a predicted view reused on media time alone would
// pick stale tiles and change the numbers below.
TEST_F(SessionTest, StallingUpgradeSessionIsPinned) {
  media::VideoModelConfig video_config;
  video_config.duration_s = 15.0;
  video_config.chunk_duration_s = 1.0;
  video_config.tile_rows = 4;
  video_config.tile_cols = 6;
  video_config.seed = 9;
  const auto video = std::make_shared<media::VideoModel>(video_config);
  const auto trace = steady_trace(55.0, /*seed=*/15);
  sim::Simulator simulator;
  net::Link link(simulator,
                 net::LinkConfig{.name = "dl",
                                 .bandwidth = net::BandwidthTrace::constant(1'900.0),
                                 .rtt = sim::milliseconds(30),
                                 .loss_rate = 0.0,
                                 .faults = {}});
  SingleLinkTransport transport(link);
  obs::Telemetry telemetry;
  SessionConfig config;
  config.telemetry = &telemetry;
  StreamingSession session(simulator, video, transport, trace, config);
  session.start();
  simulator.run_until(sim::seconds(135.0));
  const SessionReport report = session.report();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.qoe.chunks_played, 15);
  EXPECT_EQ(report.qoe.mean_viewport_utility, 0.11718375247372771);
  EXPECT_EQ(report.qoe.stall_seconds, 2.6333839999999999);
  EXPECT_EQ(report.qoe.stall_events, 8);
  EXPECT_EQ(report.qoe.skipped_chunks, 0);
  EXPECT_EQ(report.qoe.switch_magnitude, 1.0001797893149529);
  EXPECT_EQ(report.qoe.blank_fraction_mean, 0.0);
  EXPECT_EQ(report.qoe.bytes_downloaded, 3'591'649);
  EXPECT_EQ(report.qoe.bytes_wasted, 2'402'575);
  EXPECT_EQ(report.qoe.score, -9.7759595022090373);
  EXPECT_EQ(report.startup_delay, sim::Duration{144'784});
  EXPECT_EQ(report.wall_duration, sim::Duration{17'778'168});
  EXPECT_EQ(report.fetches, 501);
  EXPECT_EQ(report.urgent_fetches, 26);
  EXPECT_EQ(report.upgrades, 68);
  EXPECT_EQ(report.late_corrections, 62);
  EXPECT_EQ(report.fetch_failures, 0);
  EXPECT_EQ(report.degraded_retries, 0);
  const std::vector<double> utility{
      0.0, 0.0, 0.0, 0.0, 0.17254406348521084, 0.0, 0.059693730408942464,
      0.18735754093360102, 0.13594016023143224, 0.2378952804050064,
      0.20391024034714833, 0.11469951019527096, 0.13594016023143224,
      0.20391024034714836, 0.3058653605207225};
  EXPECT_EQ(report.viewport_utility_per_chunk, utility);

  std::map<obs::TraceEventType, int> counts;
  for (const obs::TraceEvent& event : telemetry.trace().events()) {
    ++counts[event.type];
  }
  using T = obs::TraceEventType;
  const std::map<obs::TraceEventType, int> expected{
      {T::kSessionStart, 1},    {T::kPlanComputed, 15},  {T::kFetchDispatched, 501},
      {T::kFetchDone, 501},     {T::kStallBegin, 8},     {T::kStallEnd, 8},
      {T::kUpgradeDecided, 83}, {T::kChunkPlayed, 15},   {T::kSessionEnd, 1}};
  EXPECT_EQ(counts, expected);
}

// A session destroyed mid-run while its transport still holds its
// requests: they settle after the session is gone and must not touch it.
// The simulator keeps running, so under ASan a settle that reaches the
// freed session is a heap-use-after-free.
TEST_F(SessionTest, DestroyedWhileFetchingIgnoresLateSettles) {
  sim::Simulator simulator;
  net::Link link(simulator,
                 net::LinkConfig{.name = "dl",
                                 .bandwidth = net::BandwidthTrace::constant(2'000.0),
                                 .rtt = sim::milliseconds(30),
                                 .loss_rate = 0.0,
                                 .faults = {}});
  SingleLinkTransport transport(link);
  auto video = make_video(10.0);
  const auto trace = steady_trace(50.0);
  {
    StreamingSession session(simulator, video, transport, trace, SessionConfig{});
    session.start();
    simulator.run_until(sim::seconds(0.5));
    ASSERT_GT(transport.in_flight(), 0);
  }
  simulator.run_until(sim::seconds(60.0));
  EXPECT_EQ(transport.in_flight(), 0);
}

TEST_F(SessionTest, DoubleStartThrows) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{});
  SingleLinkTransport transport(link);
  auto video = make_video(5.0);
  const auto trace = steady_trace(10.0);
  StreamingSession session(simulator, video, transport, trace, SessionConfig{});
  session.start();
  EXPECT_THROW(session.start(), std::logic_error);
}

}  // namespace
}  // namespace sperke::core
