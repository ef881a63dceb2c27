// Fault-recovery QoE bench (DESIGN.md §10): does the recovery layer —
// transport retries with backoff, deadline-derived timeouts, base-tier
// degradation — actually buy QoE when the last mile misbehaves?
//
// Two arms share one seeded fault schedule per sweep point (a mid-stream
// outage of D seconds plus a background per-transfer failure probability),
// each run twice, with recovery off and on:
//
//   * VOD: a StreamingSession on a faulted 12 Mbps link. Headline metric:
//     stall seconds (paper §3.1's QoE killer).
//   * Tiled live: a TiledLiveSession on a faulted 20 Mbps link. Live never
//     stalls — losses surface as blank FoV tiles, so the headline metric is
//     the mean blank-tile fraction.
//
// Everything is a deterministic simulation: the numbers are bit-stable
// across machines, which is why bench/baselines/fault_recovery.json can be
// gated by tools/bench_compare.py (a rise in stall seconds or blank
// fraction beyond threshold = the recovery layer regressed).
//
// The VOD arms additionally run the observability stack (DESIGN.md §12):
// a 0.5 s time-series sampler plus a stall-ratio SLO on the live
// session.stalled gauge. The printed breach windows should track the
// injected outage — the SLO breaches inside [6, 6+D] and clears once
// recovery catches the playhead up. Telemetry only records, so the QoE
// numbers gated by bench/baselines/fault_recovery.json are unchanged.
//
// Usage: bench_fault_recovery [--smoke] [--json PATH] [--trace PATH]
//
//   --smoke      single sweep point (outage = 2 s) for ctest
//   --json PATH  google-benchmark-compatible JSON for bench_compare.py;
//                "real_time" carries stall seconds (VOD) or blank
//                percentage (live), lower is better for both
//   --trace PATH Chrome trace of the last recovery-on VOD run (nested
//                fetch -> retry spans; open in ui.perfetto.dev)
//
// Any other argument prints the usage line and exits 2.
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/session.h"
#include "core/transport.h"
#include "hmp/head_trace.h"
#include "live/tiled_viewer.h"
#include "net/link.h"
#include "obs/export.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "sim/periodic.h"
#include "sim/simulator.h"

namespace {

using namespace sperke;

constexpr double kVodVideoSeconds = 20.0;
constexpr double kLiveVideoSeconds = 30.0;

hmp::HeadTrace make_trace(std::uint64_t seed) {
  hmp::HeadTraceConfig cfg;
  cfg.duration_s = 120.0;
  cfg.sample_rate_hz = 25.0;
  cfg.attractors = hmp::default_attractors(120.0, 77);
  cfg.seed = seed;
  return hmp::generate_head_trace(cfg);
}

// One storm per sweep point: an outage of `outage_s` starting mid-stream
// plus a constant background failure probability. Identical (same seed)
// for the recovery and no-recovery arms.
net::FaultPlan storm(double outage_s, double failure_prob) {
  net::FaultPlan plan;
  if (outage_s > 0.0) {
    plan.outages.push_back({.start_s = 6.0, .duration_s = outage_s});
  }
  plan.transfer_failure_prob = failure_prob;
  plan.seed = 42;
  return plan;
}

// Stall-ratio SLO on the VOD arms: session.stalled is a 0/1 level gauge
// (one session), sampled every 0.5 s — an interval breaches when the
// session spent its sample point stalled.
constexpr double kSamplePeriodS = 0.5;

std::vector<obs::SloSpec> vod_slos() {
  return {{.name = "vod.stall_ratio",
           .metric = "session.stalled",
           .signal = obs::SloSignal::kGaugeValue,
           .threshold = 0.5,
           .window_intervals = 1}};
}

struct BreachWindow {
  double start_s = 0.0;
  double end_s = 0.0;  // horizon if still breached at the end
};

struct VodRun {
  core::SessionReport report;
  std::vector<obs::SloStatus> slos;
  std::vector<BreachWindow> breaches;
  std::unique_ptr<obs::Telemetry> telemetry;
};

std::vector<BreachWindow> breach_windows(const obs::Telemetry& telemetry,
                                         double horizon_s) {
  std::vector<BreachWindow> windows;
  for (const obs::TraceEvent& e : telemetry.trace().events()) {
    if (e.type == obs::TraceEventType::kSloBreach) {
      windows.push_back({sim::to_seconds(e.ts), horizon_s});
    } else if (e.type == obs::TraceEventType::kSloClear && !windows.empty()) {
      windows.back().end_s = sim::to_seconds(e.ts);
    }
  }
  return windows;
}

VodRun run_vod(double outage_s, bool recovery) {
  sim::Simulator simulator;
  auto telemetry = std::make_unique<obs::Telemetry>();
  net::Link link(simulator,
                 net::LinkConfig{.name = "dl",
                                 .bandwidth = net::BandwidthTrace::constant(12'000.0),
                                 .rtt = sim::milliseconds(30),
                                 .loss_rate = 0.0,
                                 .faults = storm(outage_s, 0.05)});
  core::TransportOptions options;
  options.recovery.enabled = recovery;
  options.telemetry = telemetry.get();
  core::SingleLinkTransport transport(link, options);
  core::SessionConfig config;
  config.fetch_recovery = recovery;
  config.telemetry = telemetry.get();
  auto video = bench::standard_video(kVodVideoSeconds);
  const auto trace = make_trace(33);
  core::StreamingSession session(simulator, video, transport, trace, config);

  obs::TimeSeriesStore series(sim::seconds(kSamplePeriodS));
  obs::SloEvaluator evaluator(vod_slos(), series, *telemetry);
  sim::PeriodicTask sampler(simulator, sim::seconds(kSamplePeriodS), [&] {
    series.sample(telemetry->metrics());
    evaluator.evaluate();
  });

  session.start();
  const double horizon_s = kVodVideoSeconds + 300.0;
  simulator.run_until(sim::seconds(horizon_s));

  VodRun out;
  out.report = session.report();
  out.slos = evaluator.status();
  out.breaches = breach_windows(*telemetry, horizon_s);
  out.telemetry = std::move(telemetry);
  return out;
}

live::TiledLiveReport run_live(double outage_s, bool recovery) {
  sim::Simulator simulator;
  net::Link link(simulator,
                 net::LinkConfig{.name = "dl",
                                 .bandwidth = net::BandwidthTrace::constant(20'000.0),
                                 .rtt = sim::milliseconds(30),
                                 .loss_rate = 0.0,
                                 .faults = storm(outage_s, 0.10)});
  core::TransportOptions options;
  options.max_concurrent = 12;
  options.recovery.enabled = recovery;
  core::SingleLinkTransport transport(link, options);
  live::TiledLiveConfig config;
  config.fetch_recovery = recovery;
  auto video = bench::standard_video(kLiveVideoSeconds);
  const auto trace = make_trace(5);
  live::TiledLiveSession session(simulator, video, transport, trace, config);
  session.start();
  simulator.run_until(sim::seconds(kLiveVideoSeconds + 120.0));
  return session.report();
}

std::string row_name(const char* metric, double outage_s, bool recovery) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "FaultRecovery/%s/outage=%g/recovery=%s",
                metric, outage_s, recovery ? "on" : "off");
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  std::string trace_path;
  bench::parse_args(
      argc, argv, "bench_fault_recovery [--smoke] [--json PATH] [--trace PATH]",
      {{.name = "--smoke", .on = &smoke},
       {.name = "--json", .value = &json_path},
       {.name = "--trace", .value = &trace_path}});
  const std::vector<double> sweep =
      smoke ? std::vector<double>{2.0}
            : std::vector<double>{0.0, 1.0, 2.0, 3.0, 5.0, 8.0};

  std::printf("Fault recovery sweep: outage of D s at t=6 s + background "
              "transfer failures (VOD p=0.05, live p=0.10), recovery off/on\n\n");
  std::printf("%8s | %28s | %28s\n", "", "VOD stall s (score)",
              "live blank % (skips)");
  std::printf("%8s | %13s %14s | %13s %14s\n", "outage s", "off", "on", "off",
              "on");

  std::vector<bench::BaselineRow> rows;
  struct SloRow {
    double outage_s = 0.0;
    std::vector<BreachWindow> off;
    std::vector<BreachWindow> on;
  };
  std::vector<SloRow> slo_rows;
  std::vector<obs::SloStatus> last_on_slos;
  std::unique_ptr<obs::Telemetry> traced;
  bool stall_dominates = true;
  bool blank_dominates = true;
  for (const double outage_s : sweep) {
    auto vod_off = run_vod(outage_s, false);
    auto vod_on = run_vod(outage_s, true);
    const auto live_off = run_live(outage_s, false);
    const auto live_on = run_live(outage_s, true);

    std::printf("%8.1f | %6.2f (%5.1f) %6.2f (%6.1f) | %6.2f (%5d) %6.2f (%6d)\n",
                outage_s, vod_off.report.qoe.stall_seconds,
                vod_off.report.qoe.score, vod_on.report.qoe.stall_seconds,
                vod_on.report.qoe.score,
                100.0 * live_off.qoe.blank_fraction_mean, live_off.qoe.skipped_chunks,
                100.0 * live_on.qoe.blank_fraction_mean, live_on.qoe.skipped_chunks);

    if (vod_on.report.qoe.stall_seconds >= vod_off.report.qoe.stall_seconds) {
      stall_dominates = false;
    }
    if (live_on.qoe.blank_fraction_mean >= live_off.qoe.blank_fraction_mean) {
      blank_dominates = false;
    }
    rows.push_back({row_name("vod_stall_s", outage_s, false),
                    vod_off.report.qoe.stall_seconds});
    rows.push_back({row_name("vod_stall_s", outage_s, true),
                    vod_on.report.qoe.stall_seconds});
    rows.push_back({row_name("live_blank_pct", outage_s, false),
                    100.0 * live_off.qoe.blank_fraction_mean});
    rows.push_back({row_name("live_blank_pct", outage_s, true),
                    100.0 * live_on.qoe.blank_fraction_mean});
    slo_rows.push_back({outage_s, std::move(vod_off.breaches),
                        std::move(vod_on.breaches)});
    last_on_slos = std::move(vod_on.slos);
    traced = std::move(vod_on.telemetry);
  }

  std::printf("\nrecovery strictly dominates: stall time %s, blank ratio %s\n",
              stall_dominates ? "yes" : "NO", blank_dominates ? "yes" : "NO");

  // The SLO view of the same sweep: breach windows should sit inside the
  // injected outage [6, 6+D] and clear once recovery drains the backlog.
  std::printf("\nVOD stall SLO (session.stalled mean > 0.5 per %.1f s interval),"
              " breach windows [s]:\n", kSamplePeriodS);
  for (const SloRow& row : slo_rows) {
    std::printf("%8.1f |", row.outage_s);
    auto print_windows = [](const std::vector<BreachWindow>& windows) {
      if (windows.empty()) std::printf(" none");
      for (const BreachWindow& w : windows) {
        std::printf(" [%.1f, %.1f]", w.start_s, w.end_s);
      }
    };
    std::printf(" off:");
    print_windows(row.off);
    std::printf("  on:");
    print_windows(row.on);
    std::printf("\n");
  }
  std::printf("\nSLO rollup for the last recovery-on VOD run:\n%s",
              obs::slo_table(vod_slos(), last_on_slos).c_str());

  if (!json_path.empty()) {
    bench::write_baseline_json(
        json_path, R"({"executable": "bench_fault_recovery"})", rows);
  }
  if (!trace_path.empty() && traced != nullptr) {
    try {
      obs::dump_chrome_trace(trace_path, *traced);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("\nWrote %zu trace events to %s\n", traced->trace().size(),
                trace_path.c_str());
  }
  return 0;
}
