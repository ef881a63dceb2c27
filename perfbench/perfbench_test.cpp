// perfbench's own tests: decorator transparency on small worlds, the
// percentile helper, span self time, and the metric-name grammar.
//
// Run: perfbench_test (exit 0 = all pass), or ctest in the build directory.
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "perfbench.h"

namespace {

using namespace perfbench;

int failures = 0;

#define EXPECT(cond)                                                        \
  do {                                                                      \
    if (!(cond)) {                                                          \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                           \
    }                                                                       \
  } while (0)

bool same_reports(const std::vector<sperke::core::SessionReport>& a,
                  const std::vector<sperke::core::SessionReport>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_report(a[i], b[i])) return false;
  }
  return true;
}

// Every unit of the world, one after the other on this thread.
WorldRun run_all_units(const WorldInputs& inputs, const RunOptions& options) {
  WorldRun out;
  for (int unit = 0; unit < unit_count(inputs); ++unit) {
    append(out, run_unit(inputs, unit, options));
  }
  return out;
}

void engine_world_is_transparent(Workload workload, int sessions) {
  const auto inputs = make_inputs(workload, /*seed=*/3, sessions);
  const sperke::engine::EngineResult engine =
      sperke::engine::run_world(inputs->spec, {.threads = 2});
  const WorldRun plain = run_all_units(*inputs, {});
  Tracer tracer;
  const WorldRun traced = run_all_units(*inputs, {.tracer = &tracer});
  EXPECT(engine.completed == sessions);
  EXPECT(same_reports(engine.reports, plain.reports));
  EXPECT(same_reports(engine.reports, traced.reports));
  EXPECT(digest(engine.reports) == digest(traced.reports));
  EXPECT(plain.events == engine.events_executed);
  EXPECT(traced.transport_bytes > 0);
  EXPECT(traced.transport_bytes == traced.delivered_bytes);
  const SpanName source = workload == Workload::kVodCdnFine ? SpanName::kCdnFetch
                                                            : SpanName::kNetFetch;
  EXPECT(tracer.totals(source).count == tracer.source_fetches);
  EXPECT(tracer.totals(SpanName::kTransportComplete).count == tracer.source_fetches);
  EXPECT(tracer.totals(SpanName::kSessionOnDone).count == tracer.on_done_calls);
  EXPECT(tracer.totals(SpanName::kMpFetch).count == 0);
  EXPECT(static_cast<std::int64_t>(tracer.dispatch_wait_ms.size()) ==
         tracer.source_fetches);
  EXPECT((traced.edge.hits > 0) == (workload == Workload::kVodCdnFine));
}

void mp_world_is_transparent() {
  const auto inputs = make_inputs(Workload::kMpChaos, /*seed=*/3, 6);
  const WorldRun pooled = run_mp_worlds(*inputs, {.threads = 2});
  const WorldRun off = run_all_units(*inputs, {.telemetry = false});
  Tracer tracer;
  const WorldRun traced = run_all_units(*inputs, {.tracer = &tracer});
  EXPECT(pooled.reports.size() == 6);
  EXPECT(same_reports(pooled.reports, off.reports));
  EXPECT(same_reports(pooled.reports, traced.reports));
  EXPECT(traced.transport_bytes == traced.delivered_bytes);
  EXPECT(tracer.totals(SpanName::kMpFetch).count > 0);
  EXPECT(tracer.totals(SpanName::kTransportFetch).count == 0);
  EXPECT(traced.attempts > 0);
}

void percentile_helper() {
  const Percentiles empty = percentiles({});
  EXPECT(empty.count == 0 && empty.median == 0.0 && empty.tail == 0.0);

  // 100 samples: only the 90th percentile leaves ten samples beyond it.
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  const Percentiles p100 = percentiles(hundred);
  EXPECT(p100.count == 100);
  EXPECT(p100.median == 50.0);
  EXPECT(p100.tail_pct == 90.0 && p100.tail == 90.0);
  EXPECT(p100.p99 == p100.tail);

  // 1000 samples: the 99th is the highest supported percentile.
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  const Percentiles p1000 = percentiles(thousand);
  EXPECT(p1000.median == 500.0);
  EXPECT(p1000.tail_pct == 99.0 && p1000.tail == 990.0);
  EXPECT(p1000.p99 == 990.0);

  // Too few samples for any tail.
  const Percentiles small = percentiles({3.0, 1.0, 2.0});
  EXPECT(small.median == 2.0 && small.tail_pct == 0.0 && small.count == 3);
}

void span_self_time() {
  Tracer tracer;
  {
    Tracer::Scope outer(tracer, SpanName::kTransportComplete, 7);
    { Tracer::Scope inner(tracer, SpanName::kSessionOnDone, 7); }
    { Tracer::Scope inner(tracer, SpanName::kTransportFetch, 8); }
  }
  const std::vector<Tracer::Span>& spans = tracer.spans();
  EXPECT(spans.size() == 3);
  EXPECT(spans[0].parent == -1 && spans[1].parent == 0 && spans[2].parent == 0);
  EXPECT(spans[1].request == 7 && spans[2].request == 8);
  const auto duration = [&](std::size_t i) { return spans[i].end_ns - spans[i].start_ns; };
  EXPECT(tracer.totals(SpanName::kTransportComplete).self_ns ==
         duration(0) - duration(1) - duration(2));
  EXPECT(tracer.totals(SpanName::kSessionOnDone).self_ns == duration(1));
  EXPECT(tracer.totals(SpanName::kTransportComplete).count == 1);
}

void metric_name_grammar() {
  std::set<std::string> names;
  for (const auto table : {end_to_end_metrics(), per_layer_metrics()}) {
    for (const MetricInfo& m : table) {
      EXPECT(valid_metric_name(m.name));
      EXPECT(names.insert(std::string(m.name)).second);
      EXPECT(m.better == "higher" || m.better == "lower");
      EXPECT(!m.unit.empty() && m.unit.size() <= 16);
    }
  }
  for (const std::string& policy : mp_policies()) {
    EXPECT(names.count("abr." + policy + ".plan_ns") == 1);
  }
  EXPECT(valid_metric_name("core.transport.dispatch_wait_ms.p99"));
  EXPECT(valid_metric_name("9-a_b.c"));
  EXPECT(!valid_metric_name(""));
  EXPECT(!valid_metric_name(".leading_dot"));
  EXPECT(!valid_metric_name("has space"));
  EXPECT(!valid_metric_name("slash/no"));
  EXPECT(!valid_metric_name(std::string(65, 'a')));
  EXPECT(valid_metric_name(std::string(64, 'a')));
}

}  // namespace

int main() {
  percentile_helper();
  span_self_time();
  metric_name_grammar();
  engine_world_is_transparent(Workload::kVodDirect, 16);
  engine_world_is_transparent(Workload::kVodCdnFine, 64);
  mp_world_is_transparent();
  if (failures > 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all passed\n");
  return 0;
}
