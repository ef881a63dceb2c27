// perfbench: run one workload and print its metrics (see README.md).
//
// Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--spans PATH]
//
//   --seed N   workload seed (default 1; 1000003 is held out for checking
//              claims made on other seeds)
//   --trace 0  repeat set-up + run of the world until S seconds have passed
//              and print the end-to-end metrics (medians over repetitions)
//   --trace 1  run the world once untraced, rebuild it with timing
//              decorators, run the kernel probes, print the per-layer metrics
//   --spans P  with --trace 1, write the kept spans to P as CSV
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. Each check prints a "check <name> ok|FAILED" line before it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "perfbench.h"

namespace {

using namespace perfbench;
namespace core = sperke::core;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kMinRepetitions = 3;

struct Args {
  Workload workload = Workload::kVodDirect;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  int threads = default_threads();
  int sessions = 0;
  std::string spans;
};

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload vod_direct|vod_cdn_fine|"
               "mp_chaos [--seed N] [--seconds S] [--trace 0|1] "
               "[--spans PATH]\n",
               message);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto workload = parse_workload(value);
      if (!workload) usage("unknown workload");
      args.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args.trace = std::strtol(value, &end, 10) != 0;
    } else if (flag == "--spans") {
      args.spans = value;
      continue;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + flag).c_str());
  }
  if (!have_workload) usage("--workload is required");
  if (args.seconds <= 0.0) usage("--seconds must be positive");
  args.sessions = default_sessions(args.workload);
  return args;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Collects metric values and check outcomes, then prints them.
class Result {
 public:
  void set(std::string_view name, double value) { values_[std::string(name)] = value; }

  // Records a check; `failed_sessions` are the global ids it implicates.
  void check(const std::string& name, bool ok, const std::set<int>& failed_sessions = {}) {
    std::printf("check %s %s\n", name.c_str(), ok ? "ok" : "FAILED");
    if (!ok) correct_ = false;
    failed_.insert(failed_sessions.begin(), failed_sessions.end());
  }

  [[nodiscard]] std::size_t failed_sessions() const { return failed_.size(); }

  // One line per metric with its unit, layer and `note_label` + note, then
  // the JSON result line.
  void print(std::span<const MetricInfo> table, const char* note_label,
             long long attempted, long long failed) const {
    for (const MetricInfo& m : table) {
      std::printf("%-40s %16.6f %-6s [%s] %s%s\n", std::string(m.name).c_str(),
                  value(m.name), std::string(m.unit).c_str(),
                  std::string(m.layer).c_str(), note_label,
                  std::string(m.note).c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                correct_ ? "true" : "false", attempted, failed);
    bool first = true;
    for (const MetricInfo& m : table) {
      if (!m.in_result) continue;
      std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", first ? "" : ", ",
                  std::string(m.name).c_str(), value(m.name),
                  std::string(m.unit).c_str());
      first = false;
    }
    std::printf("}}\n");
  }

 private:
  [[nodiscard]] double value(std::string_view name) const {
    const auto it = values_.find(std::string(name));
    return it == values_.end() ? 0.0 : it->second;
  }

  std::map<std::string, double> values_;
  std::set<int> failed_;
  bool correct_ = true;
};

// Deterministic run-level QoE metrics from per-session reports.
void set_qoe_metrics(Result& result, const std::vector<core::SessionReport>& reports) {
  double score = 0.0;
  double stall = 0.0;
  double downloaded = 0.0;
  double wasted = 0.0;
  double fetches = 0.0;
  double fetch_failures = 0.0;
  for (const core::SessionReport& r : reports) {
    score += r.qoe.score;
    stall += r.qoe.stall_seconds;
    downloaded += static_cast<double>(r.qoe.bytes_downloaded);
    wasted += static_cast<double>(r.qoe.bytes_wasted);
    fetches += r.fetches;
    fetch_failures += r.fetch_failures;
  }
  const auto n = static_cast<double>(reports.size());
  result.set("qoe_score", ratio(score, n));
  result.set("stall_s_per_session", ratio(stall, n));
  result.set("wasted_frac", ratio(wasted, downloaded));
  result.set("fetch_fail_frac", ratio(fetch_failures, fetches));
}

std::set<int> incomplete(const std::vector<core::SessionReport>& reports) {
  std::set<int> ids;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (!reports[i].completed) ids.insert(static_cast<int>(i));
  }
  return ids;
}

std::set<int> mismatched(const std::vector<core::SessionReport>& expected,
                         const std::vector<core::SessionReport>& actual) {
  std::set<int> ids;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (i >= actual.size() || !same_report(expected[i], actual[i])) {
      ids.insert(static_cast<int>(i));
    }
  }
  return ids;
}

bool is_mp(const Args& args) { return args.workload == Workload::kMpChaos; }

// The workload's untraced run at `threads`: the engine for the engine
// worlds, the multipath pool otherwise.
std::vector<core::SessionReport> run_untraced(const Args& args, const WorldInputs& inputs,
                                              sperke::engine::ShardedEngine* engine,
                                              std::uint64_t* events) {
  if (is_mp(args)) {
    WorldRun run = run_mp_worlds(inputs, {.threads = args.threads});
    if (events != nullptr) *events = run.events;
    return std::move(run.reports);
  }
  sperke::engine::EngineResult run = engine->run({.threads = args.threads});
  if (events != nullptr) *events = run.events_executed;
  return std::move(run.reports);
}

int run_end_to_end(const Args& args) {
  Result result;
  std::vector<double> setup_s;
  std::vector<double> sessions_per_s;
  std::vector<double> cpu_ms_per_session;
  std::vector<core::SessionReport> first;
  std::set<int> drifted;
  long long attempted = 0;
  long long failed = 0;
  const double start = wall_seconds();
  while (setup_s.size() < static_cast<std::size_t>(kMinRepetitions) ||
         wall_seconds() - start < args.seconds) {
    const double setup_start = wall_seconds();
    const auto inputs = make_inputs(args.workload, args.seed, args.sessions);
    std::optional<sperke::engine::ShardedEngine> engine;
    if (!is_mp(args)) engine.emplace(inputs->spec);
    const double run_start = wall_seconds();
    const double cpu_start = cpu_seconds();
    std::vector<core::SessionReport> reports =
        run_untraced(args, *inputs, engine ? &*engine : nullptr, nullptr);
    const double run_s = wall_seconds() - run_start;
    const double cpu_s = cpu_seconds() - cpu_start;

    std::printf("repetition %zu: setup %.4f s, run %.4f s, cpu %.4f s\n",
                setup_s.size(), run_start - setup_start, run_s, cpu_s);
    const std::set<int> missing = incomplete(reports);
    setup_s.push_back(run_start - setup_start);
    sessions_per_s.push_back(
        static_cast<double>(reports.size() - missing.size()) / run_s);
    cpu_ms_per_session.push_back(cpu_s * 1000.0 / static_cast<double>(reports.size()));
    attempted += static_cast<long long>(reports.size());
    if (first.empty()) {
      first = std::move(reports);
    } else {
      const std::set<int> diff = mismatched(first, reports);
      drifted.insert(diff.begin(), diff.end());
    }
    // A session fails a repetition when it did not complete or when its
    // report differs from the first repetition's.
    std::set<int> bad = missing;
    bad.insert(drifted.begin(), drifted.end());
    failed += static_cast<long long>(bad.size());
  }

  std::printf("perfbench %s seed=%llu threads=%d sessions=%d repetitions=%zu\n",
              std::string(workload_name(args.workload)).c_str(),
              static_cast<unsigned long long>(args.seed), args.threads,
              args.sessions, setup_s.size());
  std::printf("reports digest %016llx\n",
              static_cast<unsigned long long>(digest(first)));
  result.check("sessions_completed", incomplete(first).empty(), incomplete(first));
  result.check("repetitions_identical", drifted.empty(), drifted);
  result.set("sessions_per_s", median(sessions_per_s));
  result.set("cpu_ms_per_session", median(cpu_ms_per_session));
  result.set("setup_s", median(setup_s));
  result.set("peak_rss_mb", peak_rss_mb());
  set_qoe_metrics(result, first);
  result.set("session_fail_frac", ratio(static_cast<double>(failed),
                                        static_cast<double>(attempted)));
  result.print(end_to_end_metrics(), "", attempted, failed);
  return 0;
}

// Σ unit time / (threads × makespan) for the engine's pull-order schedule
// replayed with the measured per-unit times.
double balance(const std::vector<UnitTiming>& units, int threads) {
  std::vector<double> busy(static_cast<std::size_t>(std::max(1, threads)), 0.0);
  double total = 0.0;
  for (const UnitTiming& unit : units) {
    const double t = unit.build_s + unit.run_s;
    *std::min_element(busy.begin(), busy.end()) += t;
    total += t;
  }
  const double makespan = *std::max_element(busy.begin(), busy.end());
  return ratio(total, static_cast<double>(busy.size()) * makespan);
}

double total_time(const std::vector<UnitTiming>& units) {
  double total = 0.0;
  for (const UnitTiming& unit : units) total += unit.build_s + unit.run_s;
  return total;
}

void set_timing(Result& result, std::string_view name, const Tracer& tracer,
                SpanName span) {
  const Tracer::Totals& totals = tracer.totals(span);
  result.set(name, ratio(static_cast<double>(totals.self_ns),
                         static_cast<double>(totals.count)));
}

void set_percentiles(Result& result, const std::string& name,
                     std::vector<double> samples) {
  const Percentiles p = percentiles(std::move(samples));
  result.set(name + ".p50", p.median);
  result.set(name + ".p99", p.p99);
  result.set(name + ".n", static_cast<double>(p.count));
  std::printf("%s: median %.3f, p%g %.3f, n %zu\n", name.c_str(), p.median,
              p.tail_pct, p.tail, p.count);
}

int run_per_layer(const Args& args) {
  Result result;
  const auto inputs = make_inputs(args.workload, args.seed, args.sessions);
  const double sessions = static_cast<double>(args.sessions);
  std::optional<sperke::engine::ShardedEngine> engine;
  if (!is_mp(args)) engine.emplace(inputs->spec);

  // Reference: the untraced run at the workload's thread count.
  std::uint64_t events = 0;
  const std::vector<core::SessionReport> reference =
      run_untraced(args, *inputs, engine ? &*engine : nullptr, &events);

  // The same world on this thread, unit by unit: plain, then (multipath
  // only) with telemetry off, then with the decorators. Running the
  // variants of one unit back to back and taking the median of the
  // per-unit ratios keeps machine drift out of the overhead metrics.
  Tracer tracer;
  WorldRun plain;
  WorldRun traced;
  std::optional<WorldRun> telemetry_off;
  if (is_mp(args)) telemetry_off.emplace();
  std::vector<double> trace_ratios;
  std::vector<double> telemetry_ratios;
  for (int unit = 0; unit < unit_count(*inputs); ++unit) {
    const double cpu_start = thread_cpu_seconds();
    WorldRun part = run_unit(*inputs, unit, {});
    const double cpu_on = thread_cpu_seconds() - cpu_start;
    if (telemetry_off) {
      const double off_start = thread_cpu_seconds();
      append(*telemetry_off, run_unit(*inputs, unit, {.telemetry = false}));
      telemetry_ratios.push_back(ratio(cpu_on, thread_cpu_seconds() - off_start));
    }
    WorldRun traced_part = run_unit(*inputs, unit, {.tracer = &tracer});
    trace_ratios.push_back(
        ratio(total_time(traced_part.units), total_time(part.units)));
    append(plain, std::move(part));
    append(traced, std::move(traced_part));
  }
  const ProbeResult probes = run_probes(*inputs);

  std::printf("perfbench %s seed=%llu threads=%d sessions=%d trace=1\n",
              std::string(workload_name(args.workload)).c_str(),
              static_cast<unsigned long long>(args.seed), args.threads, args.sessions);
  std::printf("reports digest %016llx\n",
              static_cast<unsigned long long>(digest(reference)));
  result.check("sessions_completed", incomplete(reference).empty(),
               incomplete(reference));
  result.check("assembly_matches_untraced", mismatched(reference, plain.reports).empty(),
               mismatched(reference, plain.reports));
  result.check("traced_matches_untraced", mismatched(reference, traced.reports).empty(),
               mismatched(reference, traced.reports));
  if (telemetry_off) {
    result.check("telemetry_off_matches", mismatched(reference, telemetry_off->reports).empty(),
                 mismatched(reference, telemetry_off->reports));
  }
  result.check("events_match", plain.events == events && traced.events == events);
  std::printf("transport bytes %lld, delivered by sources %lld\n",
              static_cast<long long>(traced.transport_bytes),
              static_cast<long long>(traced.delivered_bytes));
  result.check("transport_bytes_conserved",
               traced.transport_bytes == traced.delivered_bytes &&
                   plain.transport_bytes == traced.transport_bytes);

  double build_s = 0.0;
  double run_s = 0.0;
  for (const UnitTiming& unit : plain.units) {
    build_s += unit.build_s;
    run_s += unit.run_s;
  }
  result.set("engine.build_ms", build_s * 1000.0);
  result.set("engine.balance", balance(plain.units, args.threads));
  result.set("sim.events_per_session", ratio(static_cast<double>(events), sessions));
  result.set("sim.ns_per_event", ratio(run_s * 1e9, static_cast<double>(plain.events)));
  result.set("geo.visible_tiles_ns", probes.visible_tiles_ns);
  result.set("hmp.fusion_ns", probes.fusion_ns);
  for (const auto& [policy, ns] : probes.plan_ns) {
    result.set("abr." + policy + ".plan_ns", ns);
  }
  set_timing(result, "core.session.on_done_ns", tracer, SpanName::kSessionOnDone);
  result.set("core.session.on_done_per_session",
             ratio(static_cast<double>(tracer.on_done_calls), sessions));
  set_timing(result, "core.transport.fetch_ns", tracer, SpanName::kTransportFetch);
  set_timing(result, "core.transport.complete_ns", tracer, SpanName::kTransportComplete);
  set_percentiles(result, "core.transport.dispatch_wait_ms", tracer.dispatch_wait_ms);
  set_timing(result, "net.fetch_ns", tracer, SpanName::kNetFetch);
  if (is_mp(args)) {
    set_percentiles(result, "net.fetch_latency_ms", traced.attempt_latency_ms);
    result.set("net.failed_frac", ratio(static_cast<double>(traced.attempts_failed),
                                        static_cast<double>(traced.attempts)));
  } else {
    set_percentiles(result, "net.fetch_latency_ms", tracer.fetch_latency_ms);
    result.set("net.failed_frac", ratio(static_cast<double>(tracer.source_failed),
                                        static_cast<double>(tracer.source_fetches)));
  }
  set_timing(result, "cdn.fetch_ns", tracer, SpanName::kCdnFetch);
  const auto edge_requests = static_cast<double>(traced.edge.hits + traced.edge.misses);
  result.set("cdn.hit_rate", ratio(static_cast<double>(traced.edge.hits), edge_requests));
  result.set("cdn.coalesced_frac",
             ratio(static_cast<double>(traced.edge.coalesced), edge_requests));
  result.set("cdn.evictions_per_session",
             ratio(static_cast<double>(traced.edge.evictions), sessions));
  result.set("cdn.origin_mb_per_session",
             ratio(static_cast<double>(traced.origin_egress_bytes) / 1e6, sessions));
  set_timing(result, "mp.fetch_ns", tracer, SpanName::kMpFetch);
  result.set("mp.failovers_per_session",
             ratio(static_cast<double>(traced.mp_failovers), sessions));
  result.set("mp.dropped_best_effort_frac",
             ratio(static_cast<double>(traced.mp_dropped_best_effort),
                   static_cast<double>(traced.mp_requests)));
  if (telemetry_off) {
    result.set("obs.telemetry_overhead_frac", median(telemetry_ratios) - 1.0);
  }
  result.set("trace.overhead_frac", median(trace_ratios) - 1.0);

  if (!args.spans.empty()) {
    tracer.write_csv(args.spans);
    std::printf("wrote %zu spans to %s\n", tracer.spans().size(), args.spans.c_str());
  }
  const auto failed = static_cast<long long>(result.failed_sessions());
  result.print(per_layer_metrics(), "moves ", static_cast<long long>(args.sessions),
               failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return args.trace ? run_per_layer(args) : run_end_to_end(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
