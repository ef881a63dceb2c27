// Multipath 360° streaming walkthrough (§3.3): one session over WiFi + LTE,
// comparing MPTCP-style content-agnostic splitting with the content-aware
// scheduler that maps Table 1's priority classes onto paths.
//
//   $ ./multipath_session [scheduler]   (minrtt | round-robin | content-aware)
#include <cstring>
#include <iostream>
#include <memory>

#include "core/session.h"
#include "hmp/head_trace.h"
#include "mp/multipath.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace sperke;
  const char* scheduler_name = argc > 1 ? argv[1] : "content-aware";

  media::VideoModelConfig video_cfg;
  video_cfg.duration_s = 60.0;
  video_cfg.seed = 3;
  auto video = std::make_shared<media::VideoModel>(video_cfg);

  hmp::HeadTraceConfig trace_cfg;
  trace_cfg.duration_s = 240.0;
  trace_cfg.attractors = hmp::default_attractors(240.0, 5);
  trace_cfg.seed = 23;
  const hmp::HeadTrace head = hmp::generate_head_trace(trace_cfg);

  sim::Simulator simulator;
  // WiFi: fast but periodically collapsing (walking between rooms).
  net::Link wifi(simulator,
                 net::LinkConfig{.name = "wifi",
                                 .bandwidth = net::BandwidthTrace::markov_two_state(
                                     16'000.0, 2'000.0, 14.0, 4.0, 400.0, 7),
                                 .rtt = sim::milliseconds(18), .faults = {}});
  // LTE: steadier but slower, lossy and with a longer RTT.
  net::Link lte(simulator,
                net::LinkConfig{.name = "lte",
                                .bandwidth = net::BandwidthTrace::constant(7'000.0),
                                .rtt = sim::milliseconds(55),
                                .loss_rate = 0.003, .faults = {}});
  mp::MultipathTransport transport(simulator, {&wifi, &lte},
                                   mp::make_path_scheduler(scheduler_name));

  // A named config: GCC 12 -O3 flags the temporary's string member as
  // maybe-uninitialized (-Wmaybe-uninitialized false positive).
  const core::SessionConfig config;
  core::StreamingSession session(simulator, video, transport, head, config);
  session.start();
  simulator.run_until(sim::seconds(900.0));

  const auto report = session.report();
  const auto& stats = transport.stats();
  std::cout << "Multipath 360 session, scheduler = " << scheduler_name << "\n\n";
  TextTable table({"Metric", "Value"});
  table.add_row({"Chunks played", std::to_string(report.qoe.chunks_played)});
  table.add_row({"Mean viewport utility",
                 TextTable::num(report.qoe.mean_viewport_utility, 3)});
  table.add_row({"Stall seconds", TextTable::num(report.qoe.stall_seconds, 2)});
  table.add_row({"QoE score", TextTable::num(report.qoe.score, 1)});
  table.add_row({"WiFi bytes (MB)",
                 TextTable::num(stats.bytes_per_path[0] / 1e6, 1)});
  table.add_row({"LTE bytes (MB)",
                 TextTable::num(stats.bytes_per_path[1] / 1e6, 1)});
  table.add_row({"Best-effort OOS drops",
                 std::to_string(stats.dropped_best_effort)});
  std::cout << table.str() << '\n';

  std::cout << "Table 1 priority classes observed:\n";
  TextTable classes({"Class", "Requests"});
  const char* names[4] = {"FoV / urgent", "OOS / urgent", "FoV / regular",
                          "OOS / regular"};
  for (int rank = 0; rank < 4; ++rank) {
    classes.add_row({names[rank],
                     std::to_string(stats.class_counts[static_cast<std::size_t>(rank)])});
  }
  std::cout << classes.str();
  return 0;
}
