#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/bandwidth_trace.h"
#include "net/chunk_source.h"
#include "net/link.h"
#include "net/throughput_estimator.h"
#include "sim/simulator.h"
#include "mutation.h"
#include "util/rng.h"

namespace sperke::net {
namespace {

using sim::seconds;
using sim::Time;

TEST(BandwidthTrace, ConstantHoldsForever) {
  const auto trace = BandwidthTrace::constant(5000.0);
  EXPECT_DOUBLE_EQ(trace.kbps_at(sim::kTimeZero), 5000.0);
  EXPECT_DOUBLE_EQ(trace.kbps_at(seconds(1e6)), 5000.0);
  EXPECT_FALSE(trace.next_change_after(sim::kTimeZero).has_value());
}

TEST(BandwidthTrace, StepsSelectCorrectSegment) {
  const auto trace = BandwidthTrace::steps({{0.0, 1000.0}, {10.0, 2000.0}, {20.0, 500.0}});
  EXPECT_DOUBLE_EQ(trace.kbps_at(seconds(5.0)), 1000.0);
  EXPECT_DOUBLE_EQ(trace.kbps_at(seconds(10.0)), 2000.0);
  EXPECT_DOUBLE_EQ(trace.kbps_at(seconds(15.0)), 2000.0);
  EXPECT_DOUBLE_EQ(trace.kbps_at(seconds(25.0)), 500.0);
}

TEST(BandwidthTrace, NextChangeAfter) {
  const auto trace = BandwidthTrace::steps({{0.0, 1000.0}, {10.0, 2000.0}});
  EXPECT_EQ(trace.next_change_after(seconds(0.0)), seconds(10.0));
  EXPECT_EQ(trace.next_change_after(seconds(9.9)), seconds(10.0));
  EXPECT_FALSE(trace.next_change_after(seconds(10.0)).has_value());
}

TEST(BandwidthTrace, RejectsMalformedSegments) {
  EXPECT_THROW(BandwidthTrace({}), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace({{seconds(1.0), 100.0}}), std::invalid_argument);
  EXPECT_THROW(BandwidthTrace({{sim::kTimeZero, -5.0}}), std::invalid_argument);
  EXPECT_THROW(
      BandwidthTrace({{sim::kTimeZero, 5.0}, {sim::kTimeZero, 6.0}}),
      std::invalid_argument);
}

TEST(BandwidthTrace, RejectsNonFiniteRates) {
  // A NaN rate passes a "negative" check, and a transfer over it never
  // completes; +inf is no rate a link can drain either.
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)BandwidthTrace::constant(bad), std::invalid_argument) << bad;
    EXPECT_THROW((void)BandwidthTrace::steps({{0.0, 100.0}, {5.0, bad}}),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_NO_THROW((void)BandwidthTrace::constant(0.0));
}

TEST(BandwidthTrace, RandomWalkStaysInBounds) {
  const auto trace =
      BandwidthTrace::random_walk(5000.0, 0.3, 1.0, 120.0, 7, 1000.0, 10000.0);
  for (const auto& [t, kbps] : trace.segments()) {
    EXPECT_GE(kbps, 1000.0);
    EXPECT_LE(kbps, 10000.0);
  }
  EXPECT_GT(trace.segments().size(), 100u);
}

TEST(BandwidthTrace, RandomWalkDeterministicPerSeed) {
  const auto a = BandwidthTrace::random_walk(5000.0, 0.3, 1.0, 60.0, 7);
  const auto b = BandwidthTrace::random_walk(5000.0, 0.3, 1.0, 60.0, 7);
  ASSERT_EQ(a.segments().size(), b.segments().size());
  for (std::size_t i = 0; i < a.segments().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.segments()[i].second, b.segments()[i].second);
  }
}

TEST(BandwidthTrace, MarkovAlternatesStates) {
  const auto trace = BandwidthTrace::markov_two_state(8000.0, 500.0, 5.0, 2.0, 300.0, 3);
  bool saw_good = false, saw_bad = false;
  for (const auto& [t, kbps] : trace.segments()) {
    saw_good |= (kbps == 8000.0);
    saw_bad |= (kbps == 500.0);
  }
  EXPECT_TRUE(saw_good);
  EXPECT_TRUE(saw_bad);
}

class LinkTest : public ::testing::Test {
 protected:
  sim::Simulator simulator;
};

TEST_F(LinkTest, SingleTransferTakesBandwidthPlusRtt) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);  // 1 MB/s
  cfg.rtt = sim::milliseconds(100);
  Link link(simulator, cfg);
  std::optional<Time> done;
  link.fetch({.id = {}, .bytes = 1'000'000},
             [&](const TransferResult& r) { done = r.time; });
  simulator.run();
  ASSERT_TRUE(done.has_value());
  // 1 MB at 1 MB/s = 1 s + 0.1 s RTT warmup.
  EXPECT_NEAR(sim::to_seconds(*done), 1.1, 0.01);
  EXPECT_EQ(link.bytes_delivered(), 1'000'000);
}

TEST_F(LinkTest, TwoTransfersShareFairly) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  std::optional<Time> t1, t2;
  link.fetch({.id = {}, .bytes = 1'000'000},
             [&](const TransferResult& r) { t1 = r.time; });
  link.fetch({.id = {}, .bytes = 1'000'000},
             [&](const TransferResult& r) { t2 = r.time; });
  simulator.run();
  ASSERT_TRUE(t1 && t2);
  // Both share 1 MB/s -> each runs at 0.5 MB/s -> both done at ~2 s.
  EXPECT_NEAR(sim::to_seconds(*t1), 2.0, 0.02);
  EXPECT_NEAR(sim::to_seconds(*t2), 2.0, 0.02);
}

TEST_F(LinkTest, ShorterTransferFinishesFirstAndFreesCapacity) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  std::optional<Time> small, big;
  link.fetch({.id = {}, .bytes = 500'000},
             [&](const TransferResult& r) { small = r.time; });
  link.fetch({.id = {}, .bytes = 1'500'000},
             [&](const TransferResult& r) { big = r.time; });
  simulator.run();
  ASSERT_TRUE(small && big);
  // Shared until small is done at t=1s (0.5MB at 0.5MB/s); big then has
  // 1.0 MB left at full 1 MB/s -> finishes at 2 s.
  EXPECT_NEAR(sim::to_seconds(*small), 1.0, 0.02);
  EXPECT_NEAR(sim::to_seconds(*big), 2.0, 0.02);
}

TEST_F(LinkTest, BandwidthStepChangesRate) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::steps({{0.0, 8000.0}, {1.0, 4000.0}});
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  std::optional<Time> done;
  link.fetch({.id = {}, .bytes = 1'500'000},
             [&](const TransferResult& r) { done = r.time; });
  simulator.run();
  ASSERT_TRUE(done);
  // 1 MB in first second, remaining 0.5 MB at 0.5 MB/s -> 2 s total.
  EXPECT_NEAR(sim::to_seconds(*done), 2.0, 0.02);
}

TEST_F(LinkTest, ZeroBandwidthStallsUntilRecovery) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::steps({{0.0, 0.0}, {5.0, 8000.0}});
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  std::optional<Time> done;
  link.fetch({.id = {}, .bytes = 1'000'000},
             [&](const TransferResult& r) { done = r.time; });
  simulator.run();
  ASSERT_TRUE(done);
  EXPECT_NEAR(sim::to_seconds(*done), 6.0, 0.02);
}

TEST_F(LinkTest, CancelStopsTransfer) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  std::optional<TransferResult> result;
  const FetchId id =
      link.fetch({.id = {}, .bytes = 1'000'000},
                 [&](const TransferResult& r) { result = r; });
  simulator.schedule_at(seconds(0.5), [&] { EXPECT_TRUE(link.cancel(id)); });
  simulator.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, TransferStatus::kCancelled);
  EXPECT_FALSE(link.cancel(id));
  // Roughly half the bytes were delivered before the cancel.
  EXPECT_NEAR(static_cast<double>(link.bytes_delivered()), 500'000.0, 20'000.0);
  EXPECT_NEAR(static_cast<double>(result->bytes_delivered), 500'000.0, 20'000.0);
}

TEST_F(LinkTest, CancelAfterCompletionReturnsFalseAndDoesNotDoubleFire) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  int fires = 0;
  const FetchId id =
      link.fetch({.id = {}, .bytes = 100'000},
                 [&](const TransferResult&) { ++fires; });
  simulator.run();
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(link.cancel(id));
  EXPECT_EQ(fires, 1);
}

TEST_F(LinkTest, CancelAfterFailureReturnsFalseAndDoesNotDoubleFire) {
  // Regression: cancelling a transfer that an outage already failed must
  // return false and must not fire the callback a second time.
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::Duration{0};
  cfg.faults.outages = {{.start_s = 0.5, .duration_s = 1.0}};
  Link link(simulator, cfg);
  int fires = 0;
  std::optional<TransferResult> result;
  const FetchId id = link.fetch(
      {.id = {}, .bytes = 2'000'000}, [&](const TransferResult& r) {
        ++fires;
        result = r;
      });
  simulator.run_until(seconds(0.75));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, TransferStatus::kFailed);
  EXPECT_EQ(fires, 1);
  EXPECT_FALSE(link.cancel(id));
  EXPECT_EQ(fires, 1);
}

TEST_F(LinkTest, OutageFailsInFlightTransfersAtWindowStart) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);  // 1 MB/s
  cfg.rtt = sim::Duration{0};
  cfg.faults.outages = {{.start_s = 1.0, .duration_s = 2.0}};
  Link link(simulator, cfg);
  std::optional<TransferResult> result;
  link.fetch({.id = {}, .bytes = 2'000'000},
             [&](const TransferResult& r) { result = r; });
  simulator.run_until(seconds(2.0));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, TransferStatus::kFailed);
  EXPECT_NEAR(sim::to_seconds(result->time), 1.0, 0.01);
  // ~1 MB flowed before the lights went out; partial progress is reported.
  EXPECT_NEAR(static_cast<double>(result->bytes_delivered), 1'000'000.0, 20'000.0);
  EXPECT_TRUE(link.in_outage());
  EXPECT_EQ(link.active_transfers(), 0);
}

TEST_F(LinkTest, TransferStartedDuringOutageFailsAtActivation) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::milliseconds(100);
  cfg.faults.outages = {{.start_s = 1.0, .duration_s = 2.0}};
  Link link(simulator, cfg);
  std::optional<TransferResult> result;
  simulator.schedule_at(seconds(1.5), [&] {
    link.fetch({.id = {}, .bytes = 1'000'000},
               [&](const TransferResult& r) { result = r; });
  });
  simulator.run_until(seconds(2.0));
  // Fails one RTT after the attempt (the request times out into the void).
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, TransferStatus::kFailed);
  EXPECT_NEAR(sim::to_seconds(result->time), 1.6, 0.01);
  EXPECT_EQ(result->bytes_delivered, 0);
}

TEST_F(LinkTest, TransferCompletesAfterOutageEnds) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);  // 1 MB/s
  cfg.rtt = sim::Duration{0};
  cfg.faults.outages = {{.start_s = 0.0, .duration_s = 2.0}};
  Link link(simulator, cfg);
  std::optional<TransferResult> result;
  // Started after the outage is over: completes normally.
  simulator.schedule_at(seconds(2.5), [&] {
    link.fetch({.id = {}, .bytes = 1'000'000},
               [&](const TransferResult& r) { result = r; });
  });
  simulator.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, TransferStatus::kCompleted);
  EXPECT_NEAR(sim::to_seconds(result->time), 3.5, 0.02);
  EXPECT_NEAR(link.outage_seconds(), 2.0, 1e-9);
}

TEST_F(LinkTest, CapacityCollapseSlowsTransfer) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);  // 1 MB/s
  cfg.rtt = sim::Duration{0};
  // Half capacity in [1s, 3s): 1 MB in the first second, then 0.5 MB/s.
  cfg.faults.capacity_collapses = {{.start_s = 1.0, .duration_s = 2.0, .factor = 0.5}};
  Link link(simulator, cfg);
  std::optional<TransferResult> result;
  link.fetch({.id = {}, .bytes = 2'000'000},
             [&](const TransferResult& r) { result = r; });
  simulator.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, TransferStatus::kCompleted);
  EXPECT_NEAR(sim::to_seconds(result->time), 3.0, 0.03);
}

TEST_F(LinkTest, RttSpikeScalesEffectiveRtt) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::milliseconds(100);
  cfg.faults.rtt_spikes = {{.start_s = 0.0, .duration_s = 5.0, .factor = 4.0}};
  Link link(simulator, cfg);
  EXPECT_EQ(link.rtt(), sim::milliseconds(400));
  std::optional<TransferResult> result;
  link.fetch({.id = {}, .bytes = 1'000'000},
             [&](const TransferResult& r) { result = r; });
  simulator.run();
  ASSERT_TRUE(result.has_value());
  // 0.4 s spiked warmup + 1 s of data.
  EXPECT_NEAR(sim::to_seconds(result->time), 1.4, 0.02);
  // Outside the spike window the configured RTT is back.
  EXPECT_EQ(link.rtt(), sim::milliseconds(100));
}

TEST_F(LinkTest, PerTransferFailuresAreSeededAndDeterministic) {
  const auto run_once = [](std::uint64_t seed) {
    sim::Simulator simulator;
    LinkConfig cfg;
    cfg.bandwidth = BandwidthTrace::constant(8000.0);
    cfg.rtt = sim::Duration{0};
    cfg.faults.transfer_failure_prob = 0.5;
    cfg.faults.seed = seed;
    Link link(simulator, cfg);
    std::vector<TransferStatus> statuses;
    for (int i = 0; i < 32; ++i) {
      link.fetch({.id = {}, .bytes = 100'000},
                 [&statuses](const TransferResult& r) {
        statuses.push_back(r.status);
      });
    }
    simulator.run();
    return statuses;
  };
  const auto a = run_once(7);
  const auto b = run_once(7);
  const auto c = run_once(8);
  ASSERT_EQ(a.size(), 32u);
  EXPECT_EQ(a, b);  // same seed, same failure stream
  EXPECT_NE(a, c);  // different seed, different stream
  EXPECT_TRUE(std::count(a.begin(), a.end(), TransferStatus::kFailed) > 0);
  EXPECT_TRUE(std::count(a.begin(), a.end(), TransferStatus::kCompleted) > 0);
}

TEST_F(LinkTest, ValidateRejectsBadLossRatesAndRtt) {
  // The loss-rate check is written so that NaN fails it: a NaN rate would
  // make the Mathis cap NaN. Link's constructor runs the same validate.
  LinkConfig ok;
  ok.loss_rate = 0.02;
  EXPECT_NO_THROW(validate(ok));
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), -0.1, 1.0}) {
    LinkConfig cfg;
    cfg.loss_rate = bad;
    EXPECT_THROW(validate(cfg), std::invalid_argument) << bad;
    EXPECT_THROW(Link(simulator, cfg), std::invalid_argument) << bad;
  }
  LinkConfig negative_rtt;
  negative_rtt.rtt = sim::Duration{-1};
  EXPECT_THROW(validate(negative_rtt), std::invalid_argument);
}

TEST_F(LinkTest, FaultPlanValidation) {
  FaultPlan bad;
  bad.outages = {{.start_s = -1.0, .duration_s = 1.0}};
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = {};
  bad.capacity_collapses = {{.start_s = 0.0, .duration_s = 1.0, .factor = 0.0}};
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = {};
  bad.rtt_spikes = {{.start_s = 0.0, .duration_s = 1.0, .factor = 0.5}};
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = {};
  bad.transfer_failure_prob = 1.5;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  LinkConfig cfg;
  cfg.faults.outages = {{.start_s = 0.0, .duration_s = 0.0}};
  EXPECT_THROW(Link(simulator, cfg), std::invalid_argument);
}

// Every value below once passed validate() and reached a float-to-int64
// cast in sim::seconds: the window boundaries in Link's constructor, a NaN
// capacity factor through the wake-up timer, an infinite RTT factor
// through rtt().
TEST(FaultPlanValidate, RejectsNonFiniteAndOversizedWindows) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  for (const FaultWindow bad_window :
       {FaultWindow{.start_s = nan, .duration_s = 1.0},
        FaultWindow{.start_s = inf, .duration_s = 1.0},
        FaultWindow{.start_s = 1e300, .duration_s = 1.0},
        FaultWindow{.start_s = 0.0, .duration_s = nan},
        FaultWindow{.start_s = 0.0, .duration_s = inf},
        FaultWindow{.start_s = 1.0, .duration_s = 1e300},
        FaultWindow{.start_s = 9.1e12, .duration_s = 1e11}}) {
    FaultPlan plan;
    plan.outages = {bad_window};
    EXPECT_THROW(validate(plan), std::invalid_argument)
        << bad_window.start_s << " + " << bad_window.duration_s;
    plan = {};
    plan.rtt_spikes = {bad_window};
    EXPECT_THROW(validate(plan), std::invalid_argument);
  }
  FaultPlan plan;
  plan.capacity_collapses = {{.start_s = 0.0, .duration_s = 1.0, .factor = nan}};
  EXPECT_THROW(validate(plan), std::invalid_argument);
  for (const double factor : {nan, inf}) {
    plan = {};
    plan.rtt_spikes = {{.start_s = 0.0, .duration_s = 1.0, .factor = factor}};
    EXPECT_THROW(validate(plan), std::invalid_argument);
  }
  plan = {};
  plan.transfer_failure_prob = nan;
  EXPECT_THROW(validate(plan), std::invalid_argument);

  // The largest windows the clock holds stay legal.
  plan = {};
  plan.outages = {{.start_s = 9.0e12, .duration_s = 1.0e11}};
  plan.rtt_spikes = {{.start_s = 0.0, .duration_s = 1.0, .factor = 1e6}};
  EXPECT_NO_THROW(validate(plan));

  sim::Simulator simulator;
  LinkConfig cfg;
  cfg.faults.outages = {{.start_s = nan, .duration_s = 1.0}};
  EXPECT_THROW(Link(simulator, cfg), std::invalid_argument);
}

// The fault plan's mutation corpus. A plan is laid out as bytes: the
// failure probability, then one record per window (a list tag, start,
// duration and factor as raw doubles). Mutating that image yields the NaNs,
// infinities, denormals and huge values a corrupted plan could carry; a
// partial trailing record is dropped. Every mutant must be rejected by
// validate() or Link with std::invalid_argument, or run a link to the end
// with each transfer settled exactly once.
std::string fault_plan_bytes(const FaultPlan& plan) {
  std::string bytes;
  const auto put = [&bytes](double value) {
    char raw[sizeof value];
    std::memcpy(raw, &value, sizeof value);
    bytes.append(raw, sizeof value);
  };
  put(plan.transfer_failure_prob);
  const std::vector<FaultWindow>* lists[] = {&plan.outages, &plan.capacity_collapses,
                                             &plan.rtt_spikes};
  for (char tag = 0; tag < 3; ++tag) {
    for (const FaultWindow& w : *lists[static_cast<std::size_t>(tag)]) {
      bytes.push_back(tag);
      put(w.start_s);
      put(w.duration_s);
      put(w.factor);
    }
  }
  return bytes;
}

FaultPlan fault_plan_from_bytes(const std::string& bytes) {
  constexpr std::size_t kDouble = sizeof(double);
  constexpr std::size_t kRecord = 1 + 3 * kDouble;
  const auto get = [&bytes](std::size_t at) {
    double value = 0.0;
    std::memcpy(&value, bytes.data() + at, kDouble);
    return value;
  };
  FaultPlan plan;
  if (bytes.size() < kDouble) return plan;
  plan.transfer_failure_prob = get(0);
  std::vector<FaultWindow>* lists[] = {&plan.outages, &plan.capacity_collapses,
                                       &plan.rtt_spikes};
  for (std::size_t at = kDouble; at + kRecord <= bytes.size(); at += kRecord) {
    const auto tag = static_cast<unsigned char>(bytes[at]) % 3;
    lists[tag]->push_back({.start_s = get(at + 1),
                           .duration_s = get(at + 1 + kDouble),
                           .factor = get(at + 1 + 2 * kDouble)});
  }
  return plan;
}

class FaultPlanMutation : public ::testing::TestWithParam<fuzz::Mutation> {};

TEST_P(FaultPlanMutation, RejectedOrRunsToCompletion) {
  FaultPlan base;
  base.outages = {{.start_s = 2.0, .duration_s = 1.0}, {.start_s = 10.0, .duration_s = 2.0}};
  base.capacity_collapses = {{.start_s = 4.0, .duration_s = 3.0, .factor = 0.5},
                             {.start_s = 15.0, .duration_s = 2.0, .factor = 0.2}};
  base.rtt_spikes = {{.start_s = 6.0, .duration_s = 2.0, .factor = 3.0},
                     {.start_s = 20.0, .duration_s = 1.0, .factor = 10.0}};
  base.transfer_failure_prob = 0.1;
  ASSERT_EQ(fault_plan_from_bytes(fault_plan_bytes(base)).outages.size(), 2u);
  const std::string image = fault_plan_bytes(base);
  Rng rng(31 + static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 300; ++i) {
    LinkConfig cfg;
    cfg.bandwidth = BandwidthTrace::constant(8000.0);
    cfg.rtt = sim::milliseconds(30);
    cfg.faults = fault_plan_from_bytes(fuzz::mutate(image, GetParam(), rng));
    sim::Simulator simulator;
    try {
      Link link(simulator, cfg);
      std::vector<int> settled(8, 0);
      for (std::size_t k = 0; k < settled.size(); ++k) {
        simulator.schedule_at(seconds(3.0 * static_cast<double>(k)), [&, k] {
          link.fetch({.id = {}, .bytes = 500'000},
                     [&settled, k](const TransferResult&) {
            ++settled[k];
          });
        });
      }
      simulator.run();
      for (std::size_t k = 0; k < settled.size(); ++k) {
        EXPECT_EQ(settled[k], 1) << "mutant " << i << ", transfer " << k;
      }
    } catch (const std::invalid_argument&) {
      // Rejected before any event was scheduled.
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, FaultPlanMutation,
                         ::testing::ValuesIn(fuzz::kAllMutations),
                         [](const auto& info) {
                           return std::string(fuzz::to_string(info.param));
                         });

// A finite spike factor passes validate(), but the spiked RTT must still
// fit the microsecond clock with room for now + rtt(). The bound is on the
// product of the spikes open at one instant.
TEST_F(LinkTest, RejectsRttSpikesPastTheClockRange) {
  LinkConfig cfg;
  cfg.rtt = sim::milliseconds(30);
  cfg.faults.rtt_spikes = {
      {.start_s = 0.0, .duration_s = 1.0, .factor = 1e300}};
  EXPECT_NO_THROW(validate(cfg.faults));
  EXPECT_THROW(Link(simulator, cfg), std::invalid_argument);

  // Two 1e7 spikes on a 1 s link: 1e7 s each fits, 1e14 s where they
  // overlap does not.
  cfg.rtt = sim::seconds(1.0);
  cfg.faults.rtt_spikes = {{.start_s = 0.0, .duration_s = 2.0, .factor = 1e7},
                           {.start_s = 2.0, .duration_s = 2.0, .factor = 1e7}};
  {
    Link link(simulator, cfg);
    EXPECT_EQ(link.rtt(), sim::seconds(1e7));
  }
  cfg.faults.rtt_spikes[1].start_s = 1.5;
  EXPECT_THROW(Link(simulator, cfg), std::invalid_argument);

  // The largest legal spike still carries a transfer to completion.
  cfg.rtt = sim::milliseconds(30);
  cfg.faults.rtt_spikes = {
      {.start_s = 0.0, .duration_s = 1.0, .factor = 1e14}};
  Link link(simulator, cfg);
  std::optional<TransferResult> result;
  link.fetch({.id = {}, .bytes = 1'000},
             [&](const TransferResult& r) { result = r; });
  simulator.run();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, TransferStatus::kCompleted);
  EXPECT_GE(result->time, sim::seconds(3e12));
}

TEST_F(LinkTest, WeightedTransfersShareProportionally) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);  // 1 MB/s
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  std::optional<Time> heavy, light;
  // Weight 3:1 — the heavy transfer runs at 750 KB/s, the light at 250 KB/s.
  link.fetch({.id = {}, .bytes = 750'000, .weight = 3.0},
             [&](const TransferResult& r) { heavy = r.time; });
  link.fetch({.id = {}, .bytes = 750'000, .weight = 1.0},
             [&](const TransferResult& r) { light = r.time; });
  simulator.run();
  ASSERT_TRUE(heavy && light);
  // Heavy: 750 KB at 750 KB/s = 1 s. Light: 250 KB in the first second,
  // then the full 1 MB/s -> 1 + 0.5 = 1.5 s.
  EXPECT_NEAR(sim::to_seconds(*heavy), 1.0, 0.02);
  EXPECT_NEAR(sim::to_seconds(*light), 1.5, 0.02);
}

TEST_F(LinkTest, WeightedShareRespectsMathisCap) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::milliseconds(50);
  cfg.loss_rate = 0.01;  // Mathis cap ~2.85 Mbps per transfer
  Link link(simulator, cfg);
  std::optional<Time> heavy, light;
  // Weight 10:1 — the heavy transfer would claim ~7.3 Mbps but is capped,
  // so the light one picks up the slack.
  link.fetch({.id = {}, .bytes = 1'000'000, .weight = 10.0},
             [&](const TransferResult& r) { heavy = r.time; });
  link.fetch({.id = {}, .bytes = 1'000'000, .weight = 1.0},
             [&](const TransferResult& r) { light = r.time; });
  simulator.run();
  ASSERT_TRUE(heavy && light);
  const double cap_kbps = link.mathis_cap_kbps();
  // Both run at ~the cap (8000 > 2*cap): completion ~ 8 Mbit / cap.
  const double expect_s = 8000.0 / cap_kbps + 0.05;
  EXPECT_NEAR(sim::to_seconds(*heavy), expect_s, expect_s * 0.05);
  EXPECT_NEAR(sim::to_seconds(*light), expect_s, expect_s * 0.05);
}

TEST_F(LinkTest, RejectsNonPositiveWeight) {
  Link link(simulator, LinkConfig{});
  EXPECT_THROW((void)link.fetch({.id = {}, .bytes = 1000, .weight = 0.0}, nullptr),
               std::invalid_argument);
  EXPECT_THROW((void)link.fetch({.id = {}, .bytes = 1000, .weight = -1.0}, nullptr),
               std::invalid_argument);
}

TEST_F(LinkTest, MathisCapLimitsLossyLink) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(100'000.0);
  cfg.rtt = sim::milliseconds(50);
  cfg.loss_rate = 0.01;  // cap ~= 1.22*1460*8/(0.05*0.1) bps ~= 2.85 Mbps
  Link link(simulator, cfg);
  const double cap = link.mathis_cap_kbps();
  EXPECT_NEAR(cap, 1.22 * 1460.0 * 8.0 / (0.05 * 0.1) / 1000.0, 1.0);
  std::optional<Time> done;
  link.fetch({.id = {}, .bytes = 1'000'000},
             [&](const TransferResult& r) { done = r.time; });
  simulator.run();
  ASSERT_TRUE(done);
  const double expected_s = 1'000'000.0 * 8.0 / (cap * 1000.0) + 0.05;
  EXPECT_NEAR(sim::to_seconds(*done), expected_s, expected_s * 0.02);
}

TEST_F(LinkTest, LosslessLinkHasInfiniteCap) {
  LinkConfig cfg;
  Link link(simulator, cfg);
  EXPECT_TRUE(std::isinf(link.mathis_cap_kbps()));
}

TEST_F(LinkTest, RejectsInvalidConfigAndTransfers) {
  LinkConfig bad;
  bad.loss_rate = 1.0;
  EXPECT_THROW(Link(simulator, bad), std::invalid_argument);
  Link link(simulator, LinkConfig{});
  EXPECT_THROW((void)link.fetch({.id = {}, .bytes = 0}, nullptr), std::invalid_argument);
}

TEST_F(LinkTest, CompletionCallbackCanStartNewTransfer) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  std::optional<Time> second_done;
  link.fetch({.id = {}, .bytes = 1'000'000}, [&](const TransferResult&) {
    link.fetch({.id = {}, .bytes = 1'000'000},
                        [&](const TransferResult& r) { second_done = r.time; });
  });
  simulator.run();
  ASSERT_TRUE(second_done);
  EXPECT_NEAR(sim::to_seconds(*second_done), 2.0, 0.02);
}

TEST_F(LinkTest, ActiveTransfersCountsWarmupSeparately) {
  LinkConfig cfg;
  cfg.rtt = sim::milliseconds(100);
  Link link(simulator, cfg);
  link.fetch({.id = {}, .bytes = 1'000'000}, [](const TransferResult&) {});
  EXPECT_EQ(link.active_transfers(), 0);  // still in RTT warmup
  simulator.run_until(seconds(0.2));
  EXPECT_EQ(link.active_transfers(), 1);
}

TEST_F(LinkTest, FetchIgnoresChunkIdAndDeadline) {
  // A direct link carries bytes; what they are and when they are wanted
  // are a topology's concern, so neither may change how a fetch settles.
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::milliseconds(30);
  const auto settle = [&](const FetchSpec& first, const FetchSpec& second) {
    sim::Simulator sim;
    Link link(sim, cfg);
    ChunkSource& source = link;
    std::vector<TransferResult> results;
    const auto record = [&results](const TransferResult& r) {
      results.push_back(r);
    };
    source.fetch(first, record);
    source.fetch(second, record);
    sim.run();
    return results;
  };
  const auto a = settle({.id = {.key = {.tile = 1}}, .bytes = 300'000},
                        {.id = {.key = {.tile = 2}}, .bytes = 700'000});
  const auto b = settle({.id = {.key = {.tile = 7, .index = 9},
                                .encoding = media::Encoding::kSvc,
                                .level = 2},
                         .bytes = 300'000,
                         .deadline = seconds(0.01)},
                        {.id = {.key = {.tile = 0, .index = 3}, .level = 4},
                         .bytes = 700'000,
                         .deadline = seconds(500.0)});
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].status, b[i].status);
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].bytes_delivered, b[i].bytes_delivered);
  }
  EXPECT_EQ(a[0].bytes_delivered, 300'000);
  EXPECT_EQ(a[1].bytes_delivered, 700'000);
}

TEST_F(LinkTest, FetchCancelFiresCancelledBeforeReturning) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);  // 1 MB/s
  cfg.rtt = sim::Duration{0};
  Link link(simulator, cfg);
  ChunkSource& source = link;
  std::optional<TransferResult> result;
  const FetchId id = source.fetch({.id = {}, .bytes = 1'000'000},
                                  [&](const TransferResult& r) { result = r; });
  bool fired_inside_cancel = false;
  simulator.schedule_at(seconds(0.5), [&] {
    EXPECT_TRUE(source.cancel(id));
    fired_inside_cancel = result.has_value();
  });
  simulator.run();
  EXPECT_TRUE(fired_inside_cancel);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, TransferStatus::kCancelled);
  EXPECT_NEAR(sim::to_seconds(result->time), 0.5, 1e-9);
  EXPECT_NEAR(static_cast<double>(result->bytes_delivered), 500'000.0, 20'000.0);
  EXPECT_FALSE(source.cancel(id));
}

TEST_F(LinkTest, FetchDuringOutageSettlesFailedExactlyOnce) {
  LinkConfig cfg;
  cfg.bandwidth = BandwidthTrace::constant(8000.0);
  cfg.rtt = sim::Duration{0};
  cfg.faults.outages = {{.start_s = 1.0, .duration_s = 2.0}};
  Link link(simulator, cfg);
  ChunkSource& source = link;
  int fires = 0;
  std::optional<TransferResult> result;
  const FetchId id = source.fetch({.id = {}, .bytes = 2'000'000},
                                  [&](const TransferResult& r) {
                                    ++fires;
                                    result = r;
                                  });
  simulator.run();
  EXPECT_EQ(fires, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, TransferStatus::kFailed);
  EXPECT_NEAR(sim::to_seconds(result->time), 1.0, 0.01);
  EXPECT_NEAR(static_cast<double>(result->bytes_delivered), 1'000'000.0, 20'000.0);
  EXPECT_FALSE(source.cancel(id));
  EXPECT_EQ(fires, 1);
}

// ------------------------------------------------- AggregateWindowEstimator

// One estimator input; end < start or bytes <= 0 is ignored.
struct Sample {
  Time start{sim::kTimeZero};
  Time end{sim::kTimeZero};
  std::int64_t bytes = 0;
};

// The aggregate estimate from scratch: the bytes of the last `window`
// accepted samples over the union of their intervals, merged group by
// group.
double union_kbps_reference(const std::vector<Sample>& samples,
                            std::size_t window) {
  std::vector<Sample> kept;
  for (const Sample& s : samples) {
    if (s.end >= s.start && s.bytes > 0) kept.push_back(s);
  }
  if (kept.size() > window) {
    kept.erase(kept.begin(),
               kept.end() - static_cast<std::ptrdiff_t>(window));
  }
  if (kept.empty()) return 0.0;
  std::sort(kept.begin(), kept.end(), [](const Sample& a, const Sample& b) {
    return a.start < b.start;
  });
  std::int64_t bytes = 0;
  sim::Duration covered{0};
  Time group_start = kept.front().start;
  Time group_end = kept.front().end;
  for (const Sample& s : kept) {
    bytes += s.bytes;
    if (s.start > group_end) {
      covered += group_end - group_start;
      group_start = s.start;
    }
    group_end = std::max(group_end, s.end);
  }
  covered += group_end - group_start;
  const double secs = sim::to_seconds(covered);
  if (secs <= 0.0) return 0.0;
  return static_cast<double>(bytes) * 8.0 / secs / 1000.0;
}

TEST(AggregateEstimator, ReadsZeroUntilAnIntervalHasLength) {
  AggregateWindowEstimator estimator(4);
  EXPECT_EQ(estimator.estimate_kbps(), 0.0);
  estimator.record(seconds(1.0), seconds(2.0), 0);      // no bytes
  estimator.record(seconds(1.0), seconds(2.0), -5);     // negative bytes
  estimator.record(seconds(2.0), seconds(1.0), 1'000);  // ends before it starts
  EXPECT_EQ(estimator.estimate_kbps(), 0.0);
  estimator.record(seconds(1.0), seconds(1.0), 1'000);  // zero length
  EXPECT_EQ(estimator.estimate_kbps(), 0.0);
  // 126 kB over the one second [1 s, 2 s).
  estimator.record(seconds(1.0), seconds(2.0), 125'000);
  EXPECT_DOUBLE_EQ(estimator.estimate_kbps(), 1'008.0);
}

// The estimate is cached between records. After every record, accepted or
// ignored, it must equal the union computed from scratch, and reads in
// between must not move it.
TEST(AggregateEstimator, CachedEstimateMatchesFromScratchUnion) {
  for (const std::size_t window :
       {std::size_t{1}, std::size_t{3}, std::size_t{12}}) {
    Rng rng(17 + window);
    AggregateWindowEstimator estimator(window);
    std::vector<Sample> samples;
    Time end = seconds(1.0);
    for (int i = 0; i < 500; ++i) {
      // Ends arrive in order, with gaps; starts interleave.
      end += sim::microseconds(rng.uniform_int(0, 600'000));
      Sample s{end - sim::microseconds(rng.uniform_int(0, 2'000'000)), end,
               rng.uniform_int(1, 400'000)};
      const double kind = rng.uniform(0.0, 1.0);
      if (kind < 0.1) {
        s.start = s.end;  // zero length
      } else if (kind < 0.15) {
        s.bytes = -rng.uniform_int(0, 10);  // ignored: no bytes
      } else if (kind < 0.2) {
        s.start = s.end + sim::microseconds(1);  // ignored: negative length
      }
      samples.push_back(s);
      estimator.record(s.start, s.end, s.bytes);
      const double first = estimator.estimate_kbps();
      EXPECT_EQ(first, union_kbps_reference(samples, window))
          << "window " << window << " record " << i;
      EXPECT_EQ(estimator.estimate_kbps(), first);
    }
  }
}

}  // namespace
}  // namespace sperke::net
