// Experiment C4 — §3.3: content-aware multipath vs content-agnostic
// (MPTCP-style) splitting and single-path baselines.
//
// Scenario: WiFi (fast, clean, occasionally collapsing) + LTE (slower,
// lossy, steady). The content-aware scheduler rides FoV/urgent chunks on
// the better path with reliable delivery and sacrifices OOS prefetch on
// the weaker path (best-effort, deadline-dropped) — trading OOS quality
// for FoV protection.
#include <iostream>
#include <memory>
#include <vector>

#include "common.h"
#include "mp/multipath.h"
#include "util/stats.h"
#include "util/table.h"

namespace {

using namespace sperke;
using namespace sperke::bench;

struct Outcome {
  double utility = 0.0;
  double score = 0.0;
  double stall_s = 0.0;
  double waste_pct = 0.0;
  double dropped = 0.0;
  bool completed = true;
};

Outcome run_with(const char* scheduler_name, std::uint64_t seed) {
  sim::Simulator simulator;
  // WiFi: nominally 15 Mbps but periodically collapses (coverage holes).
  net::Link wifi(simulator,
                 net::LinkConfig{
                     .name = "wifi",
                     .bandwidth = net::BandwidthTrace::markov_two_state(
                         15'000.0, 2'500.0, 12.0, 4.0, kVideoSeconds + 600.0, seed),
                     .rtt = sim::milliseconds(20),
                     .loss_rate = 0.0, .faults = {}});
  // LTE: steady 7 Mbps, some loss, longer RTT.
  net::Link lte(simulator,
                net::LinkConfig{.name = "lte",
                                .bandwidth = net::BandwidthTrace::constant(7'000.0),
                                .rtt = sim::milliseconds(55),
                                .loss_rate = 0.002, .faults = {}});
  std::unique_ptr<mp::PathScheduler> scheduler;
  if (std::string_view(scheduler_name) == "wifi-only") {
    scheduler = std::make_unique<mp::SinglePathScheduler>(0);
  } else if (std::string_view(scheduler_name) == "lte-only") {
    scheduler = std::make_unique<mp::SinglePathScheduler>(1);
  } else {
    scheduler = mp::make_path_scheduler(scheduler_name);
  }
  mp::MultipathTransport transport(simulator, {&wifi, &lte}, std::move(scheduler));
  auto video = standard_video();
  const auto trace = standard_trace(700 + seed);
  // A named config: GCC 12 -O3 flags the temporary's string member as
  // maybe-uninitialized (-Wmaybe-uninitialized false positive).
  const core::SessionConfig config;
  core::StreamingSession session(simulator, video, transport, trace, config);
  session.start();
  simulator.run_until(sim::seconds(kVideoSeconds + 600.0));
  const auto report = session.report();
  Outcome out;
  out.utility = report.qoe.mean_viewport_utility;
  out.score = report.qoe.score;
  out.stall_s = report.qoe.stall_seconds;
  out.waste_pct = 100.0 * static_cast<double>(report.qoe.bytes_wasted) /
                  std::max<std::int64_t>(1, report.qoe.bytes_downloaded);
  out.dropped = transport.stats().dropped_best_effort;
  out.completed = report.completed;
  return out;
}

}  // namespace

int main() {
  std::cout << "C4: content-aware multipath vs MPTCP-style splitting (SS3.3)\n"
            << "(expected shape: content-aware protects FoV chunks -> fewer\n"
            << " stalls at comparable quality; single paths suffer)\n\n";
  TextTable table({"Scheduler", "Viewport utility", "Stall s", "QoE score",
                   "Waste %", "OOS drops", "Completed"});
  for (const char* name :
       {"wifi-only", "lte-only", "round-robin", "minrtt", "content-aware"}) {
    RunningStats utility, score, stall, waste, dropped;
    bool all_completed = true;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const Outcome out = run_with(name, seed);
      utility.add(out.utility);
      score.add(out.score);
      stall.add(out.stall_s);
      waste.add(out.waste_pct);
      dropped.add(out.dropped);
      all_completed = all_completed && out.completed;
    }
    table.add_row({name, TextTable::num(utility.mean(), 3),
                   TextTable::num(stall.mean(), 2), TextTable::num(score.mean(), 1),
                   TextTable::num(waste.mean(), 1), TextTable::num(dropped.mean(), 0),
                   all_completed ? "yes" : "NO"});
  }
  std::cout << table.str() << '\n';
  return 0;
}
