// On-demand 360° streaming walkthrough: the scenario the paper's intro
// motivates — a commuter watching a 4K-class panoramic video over a
// fluctuating cellular link. Compares the FoV-agnostic status quo with
// three Sperke configurations and prints a per-chunk quality strip.
//
// Each scenario is described as an engine::WorldSpec (one session, one
// cellular link) and run through engine::ShardedEngine — the same
// declarative path the scale bench and the integration tests use.
//
//   $ ./vod_streaming [mean_kbps] [--trace <path>]    (default 12000)
//
// With --trace, the flagship "FoV-guided, SVC upgrades" session writes its
// full timeline as Chrome trace_event JSON to <path> (open it in
// chrome://tracing or https://ui.perfetto.dev), the same timeline as
// line-delimited JSON to <path>.jsonl (for jq and tools/report.py), its
// metrics to <path>.metrics.csv, and its 1 s sampled time series to
// <path>.series.csv.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "engine/engine.h"
#include "engine/world.h"
#include "net/link.h"
#include "obs/export.h"
#include "obs/timeseries.h"
#include "util/table.h"

namespace {

using namespace sperke;

struct Scenario {
  std::string label;
  std::string policy = "sperke";  // "fullpano" = the FoV-agnostic status quo
  abr::EncodingMode mode = abr::EncodingMode::kSvc;
};

struct RunOutput {
  core::SessionReport report;
  std::unique_ptr<obs::Telemetry> telemetry;  // set only when traced
  obs::TimeSeriesStore series;                // sampled only when traced
};

RunOutput run(const Scenario& scenario, double mean_kbps, bool traced) {
  engine::WorldSpec spec;
  spec.video.duration_s = 90.0;
  spec.video.tile_rows = 4;
  spec.video.tile_cols = 6;
  spec.video.seed = 2;

  spec.trace_template.duration_s = 300.0;
  spec.trace_template.profile = hmp::UserProfile::adult();
  spec.trace_template.attractors = hmp::default_attractors(300.0, 9);
  spec.trace_template.seed = 17;
  spec.trace_pool = 1;

  spec.link.name = "cellular";
  spec.link.bandwidth =
      net::BandwidthTrace::random_walk(mean_kbps, 0.35, 1.0, 400.0, 11, 1'000.0);
  spec.link.rtt = sim::milliseconds(45);
  spec.transport_max_concurrent = 12;

  spec.sessions = 1;
  spec.session.abr.policy = scenario.policy;
  spec.session.abr.sperke.mode = scenario.mode;
  spec.horizon = sim::seconds(900.0);
  spec.shards = 1;
  spec.session_telemetry = traced;
  spec.monitor = traced;
  if (traced) spec.sample_period = sim::seconds(1.0);

  engine::EngineResult result = engine::run_world(std::move(spec));
  RunOutput out;
  out.report = std::move(result.reports.front());
  if (traced) {
    out.telemetry = std::move(result.shard_telemetry.front());
    out.series = std::move(result.series);
  }
  return out;
}

// Render a 0..1 utility series as a coarse text strip.
std::string quality_strip(const std::vector<double>& utilities) {
  static const char* glyphs = " .:-=+*#";
  std::string out;
  for (double u : utilities) {
    const int idx = std::min(7, static_cast<int>(u * 8.0));
    out += glyphs[idx];
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double mean_kbps = 12'000.0;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace") {
      if (i + 1 >= argc) {
        std::cerr << "usage: vod_streaming [mean_kbps] [--trace <path>]\n";
        return 2;
      }
      trace_path = argv[++i];
    } else {
      mean_kbps = std::atof(arg.c_str());
    }
  }

  std::cout << "VOD 360 streaming over a fluctuating ~" << mean_kbps / 1000.0
            << " Mbps cellular link (90 s video)\n\n";

  const Scenario scenarios[] = {
      {"FoV-agnostic (YouTube-style)", "fullpano", abr::EncodingMode::kAvcNoUpgrade},
      {"FoV-guided, AVC (no upgrades)", "sperke", abr::EncodingMode::kAvcNoUpgrade},
      {"FoV-guided, SVC upgrades", "sperke", abr::EncodingMode::kSvc},
      {"FoV-guided, hybrid SVC/AVC", "sperke", abr::EncodingMode::kHybrid},
  };
  TextTable table({"Configuration", "Utility", "Stall s", "MB", "Waste %",
                   "Upgrades", "Score"});
  std::unique_ptr<obs::Telemetry> telemetry;
  obs::TimeSeriesStore series;
  for (const Scenario& scenario : scenarios) {
    // Trace the flagship Sperke configuration only: one session = one
    // coherent timeline.
    const bool traced = !trace_path.empty() && scenario.mode == abr::EncodingMode::kSvc &&
                        scenario.policy == "sperke";
    RunOutput out = run(scenario, mean_kbps, traced);
    if (traced) {
      telemetry = std::move(out.telemetry);
      series = std::move(out.series);
    }
    const core::SessionReport& report = out.report;
    table.add_row(
        {scenario.label, TextTable::num(report.qoe.mean_viewport_utility, 3),
         TextTable::num(report.qoe.stall_seconds, 2),
         TextTable::num(report.qoe.bytes_downloaded / 1e6, 1),
         TextTable::num(100.0 * report.qoe.bytes_wasted /
                            std::max<std::int64_t>(1, report.qoe.bytes_downloaded),
                        1),
         std::to_string(report.upgrades), TextTable::num(report.qoe.score, 1)});
    std::cout << "  " << scenario.label << "\n  viewport quality over time: |"
              << quality_strip(report.viewport_utility_per_chunk) << "|\n\n";
  }
  std::cout << table.str();
  if (!trace_path.empty() && telemetry != nullptr) {
    try {
      obs::dump_chrome_trace(trace_path, *telemetry);
      obs::dump_trace_jsonl(trace_path + ".jsonl", *telemetry);
      obs::dump_metrics_csv(trace_path + ".metrics.csv", *telemetry);
      obs::dump_timeseries_csv(trace_path + ".series.csv", series);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
    std::cout << "\nWrote " << telemetry->trace().size() << " trace events to "
              << trace_path << " (open in chrome://tracing or ui.perfetto.dev)\n"
              << "plus " << trace_path << ".jsonl, " << trace_path
              << ".metrics.csv, and " << trace_path << ".series.csv\n";
  }
  return 0;
}
