// Shared harness for the experiment benches (DESIGN.md §3): the canonical
// content, head traces, crowd and single-link VOD run; the small engine
// fleet the arena and CDN benches specialise; and, for the benches whose
// numbers bench/CMakeLists.txt gates against bench/baselines, one argv
// parser and one google-benchmark-compatible baseline writer.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.h"
#include "core/transport.h"
#include "engine/world.h"
#include "hmp/head_trace.h"
#include "hmp/heatmap.h"
#include "media/video_model.h"
#include "net/bandwidth_trace.h"
#include "net/link.h"
#include "obs/sim_monitor.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace sperke::bench {

inline constexpr double kVideoSeconds = 60.0;

// The canonical content: equirect video, 4x6 tiles, 1 s chunks, default
// 5-rung ladder, seed 7. Benches differ only in how long it runs.
inline media::VideoModelConfig standard_video_config(
    double duration_s = kVideoSeconds) {
  media::VideoModelConfig cfg;
  cfg.duration_s = duration_s;
  cfg.chunk_duration_s = 1.0;
  cfg.tile_rows = 4;
  cfg.tile_cols = 6;
  cfg.seed = 7;
  return cfg;
}

inline std::shared_ptr<media::VideoModel> standard_video(
    double duration_s = kVideoSeconds) {
  return std::make_shared<media::VideoModel>(standard_video_config(duration_s));
}

// One synthetic user watching the standard video (shared ROI attractors
// give traces the cross-user correlation crowd features exploit).
inline hmp::HeadTrace standard_trace(std::uint64_t user_seed,
                                     hmp::UserProfile profile = hmp::UserProfile::adult(),
                                     double duration_s = kVideoSeconds + 120.0) {
  hmp::HeadTraceConfig cfg;
  cfg.duration_s = duration_s;
  cfg.sample_rate_hz = 25.0;
  cfg.profile = profile;
  cfg.attractors = hmp::default_attractors(duration_s, /*seed=*/4242);
  cfg.seed = user_seed;
  return hmp::generate_head_trace(cfg);
}

// Crowd heatmap built from `users` synthetic viewers of the same video.
inline hmp::ViewingHeatmap standard_crowd(const media::VideoModel& video,
                                          int users, std::uint64_t seed_base = 1000) {
  hmp::ViewingHeatmap crowd(video.tile_count(), video.chunk_count());
  for (int u = 0; u < users; ++u) {
    crowd.add_trace(standard_trace(seed_base + u), video.geometry(),
                    {100.0, 90.0}, video.chunk_duration());
  }
  return crowd;
}

// Run one VOD session over a single link and return the report. With a
// telemetry sink the session, transport, and sim monitor all record into
// it, so benches can print figures straight from the shared metrics
// instead of keeping parallel hand-rolled counters.
inline core::SessionReport run_vod(const net::BandwidthTrace& bandwidth,
                                   core::SessionConfig config,
                                   std::uint64_t trace_seed = 21,
                                   const hmp::ViewingHeatmap* crowd = nullptr,
                                   std::shared_ptr<media::VideoModel> video = nullptr,
                                   obs::Telemetry* telemetry = nullptr) {
  sim::Simulator simulator;
  net::Link link(simulator, net::LinkConfig{.name = "link",
                                            .bandwidth = bandwidth,
                                            .rtt = sim::milliseconds(30),
                                            .loss_rate = 0.0, .faults = {}});
  // HTTP/2-style multiplexing: fine tile grids issue hundreds of small
  // requests per chunk, which would otherwise serialize on the RTT.
  core::SingleLinkTransport transport(
      link, {.max_concurrent = 16, .telemetry = telemetry, .recovery = {}});
  if (!video) video = standard_video();
  const auto trace = standard_trace(trace_seed);
  config.telemetry = telemetry;
  core::StreamingSession session(simulator, video, transport, trace, config, crowd);
  std::optional<obs::SimMonitor> monitor;
  if (telemetry != nullptr) monitor.emplace(simulator, *telemetry);
  session.start();
  simulator.run_until(sim::seconds(kVideoSeconds + 600.0));
  return session.report();
}

inline constexpr double kFleetVideoSeconds = 16.0;
inline constexpr double kFleetHorizonSeconds = 180.0;

// The small engine fleet the arena and CDN benches sweep: the standard
// video cut to 16 s, a pool of 4 head traces (seed 33, attractors seed 77)
// over a 180 s horizon, 30 ms access links named "dl" with 8 fetches in
// flight per transport, world seed 5 and session telemetry on. Callers set
// the bandwidth, the fleet's size and sharding, and what they sweep.
inline engine::WorldSpec fleet_world() {
  engine::WorldSpec spec;
  spec.video = standard_video_config(kFleetVideoSeconds);
  spec.trace_template.duration_s = kFleetHorizonSeconds;
  spec.trace_template.sample_rate_hz = 25.0;
  spec.trace_template.attractors =
      hmp::default_attractors(kFleetHorizonSeconds, 77);
  spec.trace_template.seed = 33;
  spec.trace_pool = 4;
  spec.link.name = "dl";
  spec.link.rtt = sim::milliseconds(30);
  spec.transport_max_concurrent = 8;
  spec.horizon = sim::seconds(kFleetHorizonSeconds);
  spec.seed = 5;
  spec.session_telemetry = true;
  return spec;
}

// Prints "usage: <usage>" to stderr and exits 2.
[[noreturn]] inline void usage_error(std::string_view usage) {
  std::fprintf(stderr, "usage: %.*s\n", static_cast<int>(usage.size()),
               usage.data());
  std::exit(2);
}

// One command-line flag of a bench: a switch sets `*on`; an option stores
// the argument that follows it in `*value`.
struct Flag {
  std::string_view name;
  bool* on = nullptr;
  std::string* value = nullptr;
};

// Reads argv against `flags` and returns the positional arguments in order.
// An argument that starts with '-' but names none of `flags`, an option
// without its value, or a positional argument when `positionals` is false
// is a usage error.
inline std::vector<std::string> parse_args(int argc, char** argv,
                                           std::string_view usage,
                                           std::initializer_list<Flag> flags,
                                           bool positionals = false) {
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const Flag* flag = nullptr;
    for (const Flag& f : flags) {
      if (f.name == arg) flag = &f;
    }
    if (flag == nullptr) {
      if (!positionals || arg.starts_with('-')) usage_error(usage);
      rest.emplace_back(arg);
    } else if (flag->value == nullptr) {
      *flag->on = true;
    } else if (++i < argc) {
      *flag->value = argv[i];
    } else {
      usage_error(usage);
    }
  }
  return rest;
}

// One row of a baseline file; tools/bench_compare.py reads `value` as the
// row's real_time and gates it against the committed baseline.
struct BaselineRow {
  std::string name;
  double value = 0.0;
};

// Writes `rows` as google-benchmark JSON (the format tools/bench_compare.py
// reads) with `context`, a JSON object, as its "context" entry. Exits 1
// when `path` cannot be written.
inline void write_baseline_json(const std::string& path,
                                std::string_view context,
                                const std::vector<BaselineRow>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << "{\n  \"context\": " << context << ",\n  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    char value[512];
    std::snprintf(value, sizeof value, "%.6f", rows[i].value);
    out << "    {\"name\": \"" << rows[i].name
        << "\", \"run_type\": \"iteration\", \"real_time\": " << value
        << ", \"time_unit\": \"s\"}" << (i + 1 < rows.size() ? "," : "")
        << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace sperke::bench
