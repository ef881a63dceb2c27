// Telemetry subsystem tests: metrics-registry semantics (handles, name
// collisions, histogram bucketing) and exporter determinism — two sessions
// with identical seeds must produce byte-identical Chrome trace JSON, and
// the metrics CSV must agree exactly with the SessionReport it mirrors.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/session.h"
#include "core/transport.h"
#include "hmp/head_trace.h"
#include "live/broadcast.h"
#include "live/platform.h"
#include "media/video_model.h"
#include "net/link.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/sim_monitor.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/csv.h"

namespace {

using namespace sperke;

TEST(Metrics, CounterAndGaugeBasics) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("fetches");
  c.increment();
  c.add(4);
  EXPECT_EQ(c.value(), 5);

  obs::Gauge& g = registry.gauge("depth");
  EXPECT_EQ(g.value(), 0.0);
  g.set(3.5);
  EXPECT_EQ(g.value(), 3.5);
}

TEST(Metrics, SameNameSameKindReturnsSameInstrument) {
  obs::MetricsRegistry registry;
  obs::Counter& a = registry.counter("x");
  a.add(7);
  obs::Counter& b = registry.counter("x");
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.value(), 7);
  EXPECT_EQ(registry.size(), 1u);

  // Histogram bounds of the first registration win.
  obs::Histogram& h1 = registry.histogram("lat", {1.0, 2.0});
  obs::Histogram& h2 = registry.histogram("lat", {99.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.upper_bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(Metrics, NameCollisionAcrossKindsThrows) {
  obs::MetricsRegistry registry;
  (void)registry.counter("clash");
  EXPECT_THROW((void)registry.gauge("clash"), std::invalid_argument);
  EXPECT_THROW((void)registry.histogram("clash"), std::invalid_argument);
  EXPECT_THROW((void)registry.counter(""), std::invalid_argument);
}

TEST(Metrics, FindDoesNotCreate) {
  obs::MetricsRegistry registry;
  EXPECT_EQ(registry.find_counter("nope"), nullptr);
  EXPECT_EQ(registry.find_gauge("nope"), nullptr);
  EXPECT_EQ(registry.find_histogram("nope"), nullptr);
  EXPECT_EQ(registry.size(), 0u);

  (void)registry.counter("c");
  EXPECT_NE(registry.find_counter("c"), nullptr);
  // Wrong-kind lookup is nullptr, not a throw.
  EXPECT_EQ(registry.find_gauge("c"), nullptr);
}

TEST(Metrics, HistogramBucketingAndStats) {
  obs::Histogram h({1.0, 5.0, 10.0});
  EXPECT_THROW(obs::Histogram({5.0, 1.0}), std::invalid_argument);

  h.observe(0.5);   // bucket le1
  h.observe(1.0);   // le1 (upper bound inclusive)
  h.observe(3.0);   // le5
  h.observe(100.0); // overflow
  EXPECT_EQ(h.count(), 4);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  EXPECT_DOUBLE_EQ(h.mean(), 104.5 / 4.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_EQ(h.bucket_counts(), (std::vector<std::int64_t>{2, 1, 0, 1}));

  obs::Histogram empty({1.0});
  EXPECT_EQ(empty.count(), 0);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
  EXPECT_DOUBLE_EQ(empty.min(), 0.0);
  EXPECT_DOUBLE_EQ(empty.max(), 0.0);
}

TEST(Metrics, QuantileBoundEmptyHistogramIsZero) {
  const obs::Histogram hist({1.0, 2.0});
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 1.0), 0.0);
}

TEST(Metrics, QuantileBoundSingleBucket) {
  obs::Histogram hist({5.0});
  hist.observe(1.0);
  hist.observe(2.0);
  hist.observe(3.0);
  // Every sample sits in the one finite bucket, so any interior quantile
  // reports its upper bound...
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 0.5), 5.0);
  // ...while q=1 walks past every finite bucket and reports the true max.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 1.0), 3.0);
}

TEST(Metrics, QuantileBoundExtremeQuantiles) {
  obs::Histogram hist({1.0, 10.0, 100.0});
  for (const double x : {0.5, 5.0, 5.0, 50.0}) hist.observe(x);
  // q=0 is the first non-empty bucket's bound; q=1 is the observed max.
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 1.0), 50.0);
}

TEST(Metrics, QuantileBoundOverflowBucketReportsMax) {
  obs::Histogram hist({1.0});
  hist.observe(42.0);  // beyond the last finite bound
  EXPECT_DOUBLE_EQ(obs::histogram_quantile_bound(hist, 0.5), 42.0);
}

TEST(Metrics, EntriesPreserveRegistrationOrder) {
  obs::MetricsRegistry registry;
  (void)registry.counter("b");
  (void)registry.gauge("a");
  (void)registry.histogram("c");
  (void)registry.counter("b");  // re-resolve must not reorder
  ASSERT_EQ(registry.entries().size(), 3u);
  EXPECT_EQ(registry.entries()[0].name, "b");
  EXPECT_EQ(registry.entries()[1].name, "a");
  EXPECT_EQ(registry.entries()[2].name, "c");
}

TEST(Trace, RecorderAppendsInOrder) {
  obs::Telemetry telemetry;
  telemetry.trace().record({.type = obs::TraceEventType::kStallBegin,
                            .ts = sim::seconds(1.0)});
  telemetry.trace().record({.type = obs::TraceEventType::kStallEnd,
                            .ts = sim::seconds(2.5),
                            .value = 1.5});
  ASSERT_EQ(telemetry.trace().size(), 2u);
  EXPECT_EQ(telemetry.trace().events()[0].type, obs::TraceEventType::kStallBegin);
  EXPECT_EQ(telemetry.trace().events()[1].value, 1.5);
  telemetry.trace().clear();
  EXPECT_EQ(telemetry.trace().size(), 0u);
}

TEST(Trace, EventNamesAndCategoriesAreStable) {
  EXPECT_EQ(obs::trace_event_name(obs::TraceEventType::kFetchDispatched),
            "FetchDispatched");
  EXPECT_EQ(obs::trace_event_category(obs::TraceEventType::kFetchDispatched),
            "fetch");
  EXPECT_EQ(obs::trace_event_name(obs::TraceEventType::kUpgradeDecided),
            "UpgradeDecided");
  EXPECT_EQ(obs::trace_event_category(obs::TraceEventType::kPathAssigned),
            "multipath");
}

// ---------------------------------------------------------------------------
// End-to-end: an instrumented seeded session.
// ---------------------------------------------------------------------------

constexpr double kVideoSeconds = 20.0;

std::shared_ptr<media::VideoModel> make_video() {
  media::VideoModelConfig cfg;
  cfg.duration_s = kVideoSeconds;
  cfg.tile_rows = 4;
  cfg.tile_cols = 6;
  cfg.seed = 11;
  return std::make_shared<media::VideoModel>(cfg);
}

hmp::HeadTrace make_trace(std::uint64_t seed) {
  hmp::HeadTraceConfig cfg;
  cfg.duration_s = kVideoSeconds + 60.0;
  cfg.profile = hmp::UserProfile::adult();
  cfg.attractors = hmp::default_attractors(cfg.duration_s, 99);
  cfg.seed = seed;
  return hmp::generate_head_trace(cfg);
}

// An outage mid-session guarantees at least one stall; SVC defaults with
// recovering bandwidth guarantee upgrades.
core::SessionReport run_instrumented(obs::Telemetry* telemetry) {
  sim::Simulator simulator;
  net::Link link(simulator,
                 net::LinkConfig{.name = "flaky",
                                 .bandwidth = net::BandwidthTrace::steps(
                                     {{0.0, 20'000.0}, {6.0, 0.0}, {16.0, 20'000.0}}),
                                 .rtt = sim::milliseconds(30), .faults = {}});
  core::SingleLinkTransport transport(
      link, {.max_concurrent = 4, .telemetry = telemetry, .recovery = {}});
  auto video = make_video();
  const auto trace = make_trace(66);
  core::SessionConfig config;
  config.telemetry = telemetry;
  core::StreamingSession session(simulator, video, transport, trace, config);
  session.start();
  simulator.run_until(sim::seconds(300.0));
  return session.report();
}

TEST(TelemetryEndToEnd, MetricsMirrorSessionReportExactly) {
  obs::Telemetry telemetry;
  const auto report = run_instrumented(&telemetry);
  ASSERT_TRUE(report.completed);
  EXPECT_GT(report.qoe.stall_seconds, 0.0);

  const obs::MetricsRegistry& m = telemetry.metrics();
  ASSERT_NE(m.find_counter("session.fetches"), nullptr);
  EXPECT_EQ(m.find_counter("session.fetches")->value(), report.fetches);
  EXPECT_EQ(m.find_counter("session.urgent_fetches")->value(),
            report.urgent_fetches);
  EXPECT_EQ(m.find_counter("session.upgrades")->value(), report.upgrades);
  EXPECT_EQ(m.find_counter("session.late_corrections")->value(),
            report.late_corrections);
  EXPECT_EQ(m.find_counter("session.chunks_played")->value(),
            report.qoe.chunks_played);
  EXPECT_EQ(m.find_counter("session.stall_events")->value(),
            report.qoe.stall_events);
  // Bit-exact: both sides sum to_seconds(stall) per event in the same order.
  const obs::Histogram* stall_s = m.find_histogram("session.stall_s");
  ASSERT_NE(stall_s, nullptr);
  EXPECT_EQ(stall_s->sum(), report.qoe.stall_seconds);
  EXPECT_EQ(stall_s->count(), report.qoe.stall_events);
}

TEST(TelemetryEndToEnd, TraceContainsFetchStallUpgradeWithMonotonicTime) {
  obs::Telemetry telemetry;
  const auto report = run_instrumented(&telemetry);
  ASSERT_TRUE(report.completed);

  int dispatched = 0, done = 0, stalls_begin = 0, stalls_end = 0, upgrades = 0;
  sim::Time last{sim::kTimeZero};
  for (const obs::TraceEvent& e : telemetry.trace().events()) {
    EXPECT_GE(e.ts, last) << "trace timestamps must be monotonic";
    last = e.ts;
    switch (e.type) {
      case obs::TraceEventType::kFetchDispatched: ++dispatched; break;
      case obs::TraceEventType::kFetchDone: ++done; break;
      case obs::TraceEventType::kStallBegin: ++stalls_begin; break;
      case obs::TraceEventType::kStallEnd: ++stalls_end; break;
      case obs::TraceEventType::kUpgradeDecided: ++upgrades; break;
      default: break;
    }
  }
  EXPECT_EQ(dispatched, report.fetches);
  EXPECT_EQ(done, report.fetches);  // single link never drops
  EXPECT_EQ(stalls_begin, report.qoe.stall_events);
  EXPECT_EQ(stalls_end, report.qoe.stall_events);
  // One decision event per committed upgrade decision; each dispatches at
  // least one upgrade or late-correction fetch (possibly several SVC layers).
  EXPECT_GT(upgrades, 0);
  EXPECT_LE(upgrades, report.upgrades + report.late_corrections);
  EXPECT_EQ(telemetry.trace().events().front().type,
            obs::TraceEventType::kSessionStart);
}

TEST(TelemetryEndToEnd, IdenticalSeedsProduceByteIdenticalExports) {
  obs::Telemetry first;
  obs::Telemetry second;
  const auto report_a = run_instrumented(&first);
  const auto report_b = run_instrumented(&second);
  ASSERT_TRUE(report_a.completed);
  ASSERT_TRUE(report_b.completed);

  std::ostringstream json_a, json_b;
  obs::write_chrome_trace(json_a, first.trace().events());
  obs::write_chrome_trace(json_b, second.trace().events());
  EXPECT_FALSE(json_a.str().empty());
  EXPECT_EQ(json_a.str(), json_b.str());

  std::ostringstream csv_a, csv_b;
  obs::write_metrics_csv(csv_a, first.metrics());
  obs::write_metrics_csv(csv_b, second.metrics());
  EXPECT_EQ(csv_a.str(), csv_b.str());

  std::ostringstream jsonl_a, jsonl_b;
  obs::write_trace_jsonl(jsonl_a, first.trace().events());
  obs::write_trace_jsonl(jsonl_b, second.trace().events());
  EXPECT_EQ(jsonl_a.str(), jsonl_b.str());
}

TEST(TelemetryEndToEnd, ChromeTraceIsWellFormedJson) {
  obs::Telemetry telemetry;
  (void)run_instrumented(&telemetry);
  std::ostringstream out;
  obs::write_chrome_trace(out, telemetry.trace().events());
  const std::string json = out.str();

  // Structural sanity without a JSON parser: the array brackets balance,
  // every brace pairs up, and the span/metadata phases appear.
  ASSERT_GE(json.size(), 2u);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), '\n');
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // paired spans
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // track names
  EXPECT_NE(json.find("\"name\":\"Fetch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Stall\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"UpgradeDecided\""), std::string::npos);
}

TEST(TelemetryEndToEnd, MetricsCsvCarriesSessionRows) {
  obs::Telemetry telemetry;
  const auto report = run_instrumented(&telemetry);
  std::ostringstream out;
  obs::write_metrics_csv(out, telemetry.metrics());
  const std::string csv = out.str();
  EXPECT_NE(csv.find("name,kind,count,sum,mean,min,max,value,buckets"),
            std::string::npos);
  EXPECT_NE(csv.find("session.fetches,counter"), std::string::npos);
  EXPECT_NE(csv.find("session.stall_s,histogram"), std::string::npos);
  EXPECT_NE(csv.find("transport.requests,counter"), std::string::npos);
  // The counter row carries the exact report value.
  EXPECT_NE(csv.find("session.fetches,counter,,,,,," +
                     std::to_string(report.fetches)),
            std::string::npos);
}

TEST(TelemetryEndToEnd, DisabledTelemetryRecordsNothing) {
  const auto report = run_instrumented(nullptr);
  EXPECT_TRUE(report.completed);  // null sink is the default-off fast path
}

TEST(SimMonitorTest, SamplesQueueDepthAndThroughput) {
  obs::Telemetry telemetry;
  sim::Simulator simulator;
  obs::SimMonitor monitor(simulator, telemetry, sim::seconds(1.0));
  for (int i = 0; i < 50; ++i) {
    simulator.schedule_at(sim::milliseconds(100 * i), [] {});
  }
  simulator.run_until(sim::seconds(10.0));
  const obs::Counter* samples = telemetry.metrics().find_counter("sim.samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_GE(samples->value(), 5);
  const obs::Histogram* depth =
      telemetry.metrics().find_histogram("sim.queue_depth_hist");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->count(), samples->value());
  EXPECT_NE(telemetry.metrics().find_gauge("sim.events_per_sec"), nullptr);
}

#if SPERKE_DCHECK_IS_ON
TEST(MetricsDeathTest, CounterDecrementTripsDcheck) {
  obs::Counter c;
  EXPECT_DEATH(c.add(-1), "counter decremented");
}
#endif

TEST(Metrics, GaugeAddIsRelativeAndSigned) {
  obs::Gauge g;
  g.add(2.0);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

// ---------------------------------------------------------------------------
// Time series sampling (DESIGN.md §12).
// ---------------------------------------------------------------------------

TEST(TimeSeriesTest, RecordsDeltasSamplesAndIntervalQuantiles) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("fetches");
  obs::Gauge& g = registry.gauge("depth");
  obs::Histogram& h = registry.histogram("lat_s", {1.0, 5.0});

  obs::TimeSeriesStore store(sim::seconds(1.0));
  EXPECT_THROW(obs::TimeSeriesStore(sim::Duration{0}), std::invalid_argument);

  c.add(3);
  g.set(2.0);
  h.observe(0.5);
  store.sample(registry);
  c.add(2);
  g.set(7.5);
  h.observe(100.0);  // overflow bucket
  store.sample(registry);

  ASSERT_EQ(store.intervals(), 2u);
  EXPECT_EQ(store.interval_end(0), sim::seconds(1.0));
  EXPECT_EQ(store.interval_end(1), sim::seconds(2.0));

  const obs::TimeSeries* fetches = store.find("fetches");
  ASSERT_NE(fetches, nullptr);
  EXPECT_EQ(fetches->counter_deltas, (std::vector<std::int64_t>{3, 2}));

  const obs::TimeSeries* depth = store.find("depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->gauge_samples, (std::vector<double>{2.0, 7.5}));

  const obs::TimeSeries* lat = store.find("lat_s");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count_deltas, (std::vector<std::int64_t>{1, 1}));
  EXPECT_DOUBLE_EQ(obs::series_quantile_bound(*lat, 0, 0.5), 1.0);
  // Interval 1's only sample sits in the overflow bucket: the interval
  // quantile must read as worse-than-any-threshold, not as the lifetime max.
  EXPECT_TRUE(std::isinf(obs::series_quantile_bound(*lat, 1, 0.99)));
  // Across the two-interval window the lower quartile is still finite
  // (q=0.5 of {0.5, overflow} lands exactly on the bucket boundary, and the
  // bound semantics resolve boundary ties upward — to the overflow here).
  EXPECT_DOUBLE_EQ(obs::series_window_quantile_bound(*lat, 0, 1, 0.25), 1.0);
  EXPECT_TRUE(std::isinf(obs::series_window_quantile_bound(*lat, 0, 1, 0.5)));
}

TEST(TimeSeriesTest, LateInstrumentsZeroPadBackToIntervalZero) {
  obs::MetricsRegistry registry;
  obs::TimeSeriesStore store(sim::seconds(1.0));
  store.sample(registry);  // nothing registered yet
  registry.counter("late").add(5);
  store.sample(registry);
  const obs::TimeSeries* late = store.find("late");
  ASSERT_NE(late, nullptr);
  EXPECT_EQ(late->counter_deltas, (std::vector<std::int64_t>{0, 5}));
}

TEST(TimeSeriesTest, MergeAddsElementwiseAndValidatesShape) {
  obs::MetricsRegistry reg_a;
  obs::MetricsRegistry reg_b;
  obs::TimeSeriesStore a(sim::seconds(1.0));
  obs::TimeSeriesStore b(sim::seconds(1.0));
  reg_a.counter("c").add(1);
  reg_b.counter("c").add(10);
  reg_a.gauge("g").set(0.5);
  reg_b.gauge("g").set(2.0);
  a.sample(reg_a);
  b.sample(reg_b);

  a.merge_from(b);
  EXPECT_EQ(a.find("c")->counter_deltas, (std::vector<std::int64_t>{11}));
  // Gauge samples add across shards: the merged level is the fleet total,
  // mirroring Gauge::merge_from.
  EXPECT_EQ(a.find("g")->gauge_samples, (std::vector<double>{2.5}));

  // An inactive store adopts the other wholesale (the engine merges into a
  // default-constructed EngineResult::series).
  obs::TimeSeriesStore merged;
  merged.merge_from(b);
  EXPECT_EQ(merged.period(), sim::seconds(1.0));
  EXPECT_EQ(merged.find("c")->counter_deltas, (std::vector<std::int64_t>{10}));

  // Shape mismatches throw instead of silently corrupting SLO input.
  obs::TimeSeriesStore other_period(sim::seconds(2.0));
  other_period.sample(reg_b);
  EXPECT_THROW(a.merge_from(other_period), std::invalid_argument);
  b.sample(reg_b);  // b now has 2 intervals, a has 1
  EXPECT_THROW(a.merge_from(b), std::invalid_argument);
}

TEST(TimeSeriesTest, BindingFollowsRegistryGrowthAndSwitch) {
  using I = std::vector<std::int64_t>;
  using D = std::vector<double>;
  const auto names = [](const obs::TimeSeriesStore& store) {
    std::vector<std::string> out;
    for (const obs::TimeSeries& s : store.series()) out.push_back(s.name);
    return out;
  };
  obs::MetricsRegistry reg;
  obs::TimeSeriesStore store(sim::seconds(1.0));
  obs::Counter& a = reg.counter("a");
  a.add(2);
  store.sample(reg);  // interval 0

  // A histogram and a counter register between samples.
  obs::Histogram& h = reg.histogram("h", {1.0});
  obs::Counter& b = reg.counter("b");
  a.add(1);
  b.add(4);
  h.observe(0.5);
  h.observe(3.0);
  store.sample(reg);  // interval 1
  a.add(5);
  h.observe(2.0);
  store.sample(reg);  // interval 2

  // The same names registered in another order: each entry still finds its
  // series by name, and deltas continue from the series' last cumulative.
  obs::MetricsRegistry other;
  other.counter("b").add(6);
  obs::Histogram& h2 = other.histogram("h", {1.0});
  other.counter("a").add(10);
  for (const double x : {0.25, 0.75, 2.0, 2.0, 2.0}) h2.observe(x);
  store.sample(other);  // interval 3

  // Back to the first registry.
  a.add(4);
  b.add(3);
  for (const double x : {0.5, 4.0, 4.0}) h.observe(x);
  store.sample(reg);  // interval 4

  ASSERT_EQ(store.intervals(), 5u);
  EXPECT_EQ(names(store), (std::vector<std::string>{"a", "h", "b"}));
  EXPECT_EQ(store.find("a")->counter_deltas, (I{2, 1, 5, 2, 2}));
  EXPECT_EQ(store.find("b")->counter_deltas, (I{0, 4, 0, 2, 1}));
  const obs::TimeSeries* hs = store.find("h");
  EXPECT_EQ(hs->bucket_deltas, (I{0, 0, 1, 1, 0, 1, 1, 1, 0, 1}));
  EXPECT_EQ(hs->count_deltas, (I{0, 2, 1, 2, 1}));
  EXPECT_EQ(hs->sum_deltas, (D{0.0, 3.5, 2.0, 1.5, 7.0}));

  // A store adopted through merge_from keeps sampling where the original
  // left off, and a gauge registered after the adoption zero-pads.
  obs::TimeSeriesStore adopted;
  adopted.merge_from(store);
  a.add(1);
  reg.gauge("g").set(1.5);
  h.observe(0.5);
  adopted.sample(reg);  // interval 5

  ASSERT_EQ(adopted.intervals(), 6u);
  EXPECT_EQ(names(adopted), (std::vector<std::string>{"a", "h", "b", "g"}));
  EXPECT_EQ(adopted.find("a")->counter_deltas, (I{2, 1, 5, 2, 2, 1}));
  EXPECT_EQ(adopted.find("b")->counter_deltas, (I{0, 4, 0, 2, 1, 0}));
  EXPECT_EQ(adopted.find("g")->gauge_samples, (D{0.0, 0.0, 0.0, 0.0, 0.0, 1.5}));
  const obs::TimeSeries* ha = adopted.find("h");
  EXPECT_EQ(ha->bucket_deltas, (I{0, 0, 1, 1, 0, 1, 1, 1, 0, 1, 1, 0}));
  EXPECT_EQ(ha->count_deltas, (I{0, 2, 1, 2, 1, 1}));
  EXPECT_EQ(ha->sum_deltas, (D{0.0, 3.5, 2.0, 1.5, 7.0, 0.5}));
  // The original store is untouched by its copy's sample.
  EXPECT_EQ(store.intervals(), 5u);
  EXPECT_EQ(store.find("g"), nullptr);
}

// ---------------------------------------------------------------------------
// SLO evaluation.
// ---------------------------------------------------------------------------

TEST(SloTest, ValidateRejectsMalformedSpecs) {
  obs::SloSpec ok{.name = "stall.ratio_p99", .metric = "m"};
  EXPECT_NO_THROW(obs::validate_slo(ok));
  obs::SloSpec spec = ok;
  spec.name = "Bad Name";
  EXPECT_THROW(obs::validate_slo(spec), std::invalid_argument);
  spec = ok;
  spec.metric = "";
  EXPECT_THROW(obs::validate_slo(spec), std::invalid_argument);
  spec = ok;
  // The quantile only matters (and is only validated) for quantile signals.
  spec.quantile = 1.5;
  EXPECT_NO_THROW(obs::validate_slo(spec));
  spec.signal = obs::SloSignal::kHistogramQuantile;
  EXPECT_THROW(obs::validate_slo(spec), std::invalid_argument);
  spec = ok;
  spec.window_intervals = 0;
  EXPECT_THROW(obs::validate_slo(spec), std::invalid_argument);
}

TEST(SloTest, ValidateRejectsNanQuantileAndNonFiniteThreshold) {
  // NaN fails every ordered comparison, so a range check written as
  // "reject when below or above" lets it through to an integer cast.
  obs::SloSpec spec{.name = "p99",
                    .metric = "m",
                    .signal = obs::SloSignal::kHistogramQuantile};
  EXPECT_NO_THROW(obs::validate_slo(spec));
  spec.quantile = std::nan("");
  EXPECT_THROW(obs::validate_slo(spec), std::invalid_argument);
  for (const double bad : {std::nan(""), std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    for (const obs::SloSignal signal :
         {obs::SloSignal::kGaugeValue, obs::SloSignal::kHistogramQuantile}) {
      obs::SloSpec with_threshold{.name = "t", .metric = "m", .signal = signal};
      with_threshold.threshold = bad;
      EXPECT_THROW(obs::validate_slo(with_threshold), std::invalid_argument) << bad;
    }
  }
}

// A quantile the validators would reject never reaches the helpers' integer
// cast: both fail a SPERKE_CHECK in every build type.
TEST(QuantileDeathTest, HelpersCheckTheQuantile) {
  obs::Histogram hist({1.0, 5.0});
  hist.observe(0.5);
  EXPECT_DEATH((void)obs::histogram_quantile_bound(hist, std::nan("")),
               "quantile nan outside");
  EXPECT_DEATH((void)obs::histogram_quantile_bound(hist, 1.5), "outside \\[0, 1\\]");
  obs::MetricsRegistry registry;
  registry.histogram("lat_s", {1.0, 5.0}).observe(0.5);
  obs::TimeSeriesStore store(sim::seconds(1.0));
  store.sample(registry);
  const obs::TimeSeries* lat = store.find("lat_s");
  ASSERT_NE(lat, nullptr);
  EXPECT_DEATH((void)obs::series_quantile_bound(*lat, 0, std::nan("")),
               "quantile nan outside");
  EXPECT_DEATH((void)obs::series_quantile_bound(*lat, 0, -0.5), "outside \\[0, 1\\]");
}

TEST(SloTest, GaugeSloBreachesClearsAndBurnsBudget) {
  obs::Telemetry telemetry;
  obs::Gauge& stalled = telemetry.metrics().gauge("session.stalled");
  obs::TimeSeriesStore store(sim::seconds(1.0));
  obs::SloEvaluator evaluator(
      {{.name = "stall", .metric = "session.stalled",
        .signal = obs::SloSignal::kGaugeValue, .threshold = 0.5,
        .window_intervals = 1}},
      store, telemetry);
  // The error-budget counter exists before any breach, so the metric set
  // does not depend on the breach pattern.
  ASSERT_NE(telemetry.metrics().find_counter("slo.stall.breached_intervals"),
            nullptr);

  stalled.set(0.0);
  store.sample(telemetry.metrics());
  evaluator.evaluate();  // healthy
  stalled.set(1.0);
  store.sample(telemetry.metrics());
  evaluator.evaluate();  // breach
  store.sample(telemetry.metrics());
  evaluator.evaluate();  // still breached: budget burns, no new event
  stalled.set(0.0);
  store.sample(telemetry.metrics());
  evaluator.evaluate();  // clear

  std::vector<obs::TraceEvent> slo_events;
  for (const obs::TraceEvent& e : telemetry.trace().events()) {
    if (e.type == obs::TraceEventType::kSloBreach ||
        e.type == obs::TraceEventType::kSloClear) {
      slo_events.push_back(e);
    }
  }
  ASSERT_EQ(slo_events.size(), 2u);
  EXPECT_EQ(slo_events[0].type, obs::TraceEventType::kSloBreach);
  EXPECT_EQ(slo_events[0].ts, sim::seconds(2.0));  // end of interval 1
  EXPECT_EQ(slo_events[0].chunk, 0);               // SLO index in the spec list
  EXPECT_DOUBLE_EQ(slo_events[0].value, 1.0);      // the breaching signal
  EXPECT_EQ(slo_events[1].type, obs::TraceEventType::kSloClear);
  EXPECT_EQ(slo_events[1].ts, sim::seconds(4.0));

  EXPECT_EQ(
      telemetry.metrics().find_counter("slo.stall.breached_intervals")->value(),
      2);
  const std::vector<obs::SloStatus> status = evaluator.status();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].name, "stall");
  EXPECT_EQ(status[0].evaluated_intervals, 4);
  EXPECT_EQ(status[0].breached_intervals, 2);
  EXPECT_EQ(status[0].breach_events, 1);
  EXPECT_FALSE(status[0].breached_at_end);
  EXPECT_DOUBLE_EQ(status[0].last_signal, 0.0);
}

TEST(SloTest, CounterRateAndQuantileSignals) {
  obs::Telemetry telemetry;
  obs::Counter& reqs = telemetry.metrics().counter("reqs");
  obs::Histogram& lat = telemetry.metrics().histogram("lat_s", {1.0});
  obs::TimeSeriesStore store(sim::seconds(2.0));
  obs::SloEvaluator evaluator(
      {{.name = "rate", .metric = "reqs",
        .signal = obs::SloSignal::kCounterRate, .threshold = 4.0,
        .window_intervals = 1},
       {.name = "p99", .metric = "lat_s",
        .signal = obs::SloSignal::kHistogramQuantile, .quantile = 0.99,
        .threshold = 1e9, .window_intervals = 1}},
      store, telemetry);

  reqs.add(10);       // 10 per 2 s interval = 5/s > 4 -> rate breaches
  lat.observe(50.0);  // overflow bucket: +inf quantile beats any threshold
  store.sample(telemetry.metrics());
  evaluator.evaluate();

  const std::vector<obs::SloStatus> status = evaluator.status();
  ASSERT_EQ(status.size(), 2u);
  EXPECT_TRUE(status[0].breached_at_end);
  EXPECT_DOUBLE_EQ(status[0].last_signal, 5.0);
  EXPECT_TRUE(status[1].breached_at_end);
  EXPECT_TRUE(std::isinf(status[1].last_signal));
}

TEST(SloTest, LateMetricReadsZeroUntilItRegisters) {
  obs::Telemetry telemetry;
  obs::TimeSeriesStore store(sim::seconds(1.0));
  obs::SloEvaluator evaluator(
      {{.name = "late", .metric = "late.level",
        .signal = obs::SloSignal::kGaugeValue, .threshold = 1.0,
        .window_intervals = 1}},
      store, telemetry);
  telemetry.metrics().counter("early").add(1);
  for (int i = 0; i < 2; ++i) {
    store.sample(telemetry.metrics());
    evaluator.evaluate();
    EXPECT_FALSE(evaluator.status()[0].breached_at_end);
    EXPECT_EQ(evaluator.status()[0].last_signal, 0.0);
  }
  obs::Gauge& level = telemetry.metrics().gauge("late.level");
  level.set(2.0);
  store.sample(telemetry.metrics());
  evaluator.evaluate();
  EXPECT_TRUE(evaluator.status()[0].breached_at_end);
  EXPECT_EQ(evaluator.status()[0].last_signal, 2.0);
  level.set(0.5);
  store.sample(telemetry.metrics());
  evaluator.evaluate();
  EXPECT_FALSE(evaluator.status()[0].breached_at_end);
  EXPECT_EQ(evaluator.status()[0].last_signal, 0.5);
  EXPECT_EQ(evaluator.status()[0].evaluated_intervals, 4);
  EXPECT_EQ(evaluator.status()[0].breached_intervals, 1);
}

TEST(SloTest, MergeStatusSumsAcrossShardsAndRequiresSameSpecs) {
  obs::SloStatus a{.name = "s", .evaluated_intervals = 4,
                   .breached_intervals = 1, .breach_events = 1,
                   .breached_at_end = false, .last_signal = 0.5};
  obs::SloStatus b{.name = "s", .evaluated_intervals = 4,
                   .breached_intervals = 3, .breach_events = 2,
                   .breached_at_end = true, .last_signal = 1.0};
  std::vector<obs::SloStatus> into;
  obs::merge_slo_status(into, {a});  // empty side adopts
  obs::merge_slo_status(into, {b});
  ASSERT_EQ(into.size(), 1u);
  EXPECT_EQ(into[0].evaluated_intervals, 4);  // per-shard count, not a sum
  EXPECT_EQ(into[0].breached_intervals, 4);
  EXPECT_EQ(into[0].breach_events, 3);
  EXPECT_TRUE(into[0].breached_at_end);
  EXPECT_DOUBLE_EQ(into[0].last_signal, 1.5);

  std::vector<obs::SloStatus> wrong = {{.name = "other"}};
  EXPECT_THROW(obs::merge_slo_status(wrong, {a}), std::invalid_argument);

  const std::string table =
      obs::slo_table({{.name = "s", .metric = "m"}}, into);
  EXPECT_NE(table.find("s"), std::string::npos);
  EXPECT_NE(table.find("BREACHED"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exporters: hostile names, JSONL, nested causal spans.
// ---------------------------------------------------------------------------

TEST(ExportCsv, HostileMetricNamesRoundTripQuoted) {
  // Deliberately evil instrument name: quote, comma, and newline. (tests/
  // is exempt from the lint's metric-name rule for exactly this case.)
  const std::string evil = "evil\"name,with\nnewline";
  obs::MetricsRegistry registry;
  registry.counter(evil).add(7);
  std::ostringstream out;
  obs::write_metrics_csv(out, registry);
  const std::string csv = out.str();
  // Quoted with the embedded quote doubled, per RFC 4180.
  EXPECT_NE(csv.find("\"evil\"\"name,with\nnewline\""), std::string::npos);
  const auto rows = parse_csv(csv);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][0], evil);
  EXPECT_EQ(rows[1][7], "7");
}

TEST(ExportJsonl, OneObjectPerEventCarryingRequestFields) {
  obs::Telemetry telemetry;
  telemetry.trace().record({.type = obs::TraceEventType::kFetchDispatched,
                            .ts = sim::seconds(1.0),
                            .tile = 3,
                            .chunk = 2,
                            .quality = 1,
                            .request = 5});
  telemetry.trace().record({.type = obs::TraceEventType::kFetchDone,
                            .ts = sim::seconds(1.5),
                            .bytes = 1234,
                            .request = 5,
                            .parent = 4});
  std::ostringstream out;
  obs::write_trace_jsonl(out, telemetry.trace().events());
  const std::string jsonl = out.str();
  std::istringstream lines(jsonl);
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) {
    ++count;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_EQ(count, 2);
  EXPECT_NE(jsonl.find("\"event\":\"FetchDispatched\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"request\":5"), std::string::npos);
  EXPECT_NE(jsonl.find("\"parent\":4"), std::string::npos);
}

TEST(ExportChromeTrace, NestsAttemptAndRetrySpansByRequestId) {
  std::vector<obs::TraceEvent> events;
  // Request 1: one attempt, delivered.
  events.push_back({.type = obs::TraceEventType::kFetchDispatched,
                    .ts = sim::seconds(1.0), .tile = 0, .chunk = 0,
                    .quality = 2, .request = 1});
  events.push_back({.type = obs::TraceEventType::kFetchAttemptStart,
                    .ts = sim::seconds(1.0), .value = 0.0, .request = 1});
  events.push_back({.type = obs::TraceEventType::kFetchAttemptEnd,
                    .ts = sim::seconds(1.2), .value = 0.0, .request = 1});
  events.push_back({.type = obs::TraceEventType::kFetchDone,
                    .ts = sim::seconds(1.2), .bytes = 100, .request = 1});
  // Request 2 replaces request 1 (degraded retry): its attempt 1 is a
  // transport-level retry, and its fetch span must render as FetchRetry.
  events.push_back({.type = obs::TraceEventType::kFetchDispatched,
                    .ts = sim::seconds(2.0), .tile = 0, .chunk = 0,
                    .quality = 0, .request = 2, .parent = 1});
  events.push_back({.type = obs::TraceEventType::kFetchAttemptStart,
                    .ts = sim::seconds(2.0), .value = 1.0, .request = 2});
  events.push_back({.type = obs::TraceEventType::kFetchAttemptEnd,
                    .ts = sim::seconds(2.4), .value = 1.0, .request = 2});
  events.push_back({.type = obs::TraceEventType::kFetchDone,
                    .ts = sim::seconds(2.4), .bytes = 50, .request = 2,
                    .parent = 1});
  // Request 3 never completes: flushed as an instant, not lost.
  events.push_back({.type = obs::TraceEventType::kFetchDispatched,
                    .ts = sim::seconds(3.0), .tile = 1, .chunk = 1,
                    .quality = 1, .request = 3});

  std::ostringstream out;
  obs::write_chrome_trace(out, events);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"name\":\"Fetch\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Attempt\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"FetchRetry\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"Retry\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"FetchDispatched\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":1"), std::string::npos);
  // Both same-cell fetches must close: two X-phase fetch spans, not one.
  EXPECT_NE(json.find("\"dur\":200000"), std::string::npos);  // 1.0 -> 1.2 s
  EXPECT_NE(json.find("\"dur\":400000"), std::string::npos);  // 2.0 -> 2.4 s
}

TEST(TelemetryEndToEnd, FetchEventsCarryUniqueCausalRequestIds) {
  obs::Telemetry telemetry;
  const auto report = run_instrumented(&telemetry);
  ASSERT_TRUE(report.completed);
  std::set<std::int64_t> dispatched_ids;
  int attempts = 0;
  for (const obs::TraceEvent& e : telemetry.trace().events()) {
    switch (e.type) {
      case obs::TraceEventType::kFetchDispatched:
        EXPECT_GT(e.request, 0) << "traced dispatch without a request id";
        EXPECT_TRUE(dispatched_ids.insert(e.request).second)
            << "request id " << e.request << " reused";
        break;
      case obs::TraceEventType::kFetchDone:
      case obs::TraceEventType::kFetchDropped:
        EXPECT_TRUE(dispatched_ids.count(e.request))
            << "completion for unknown request " << e.request;
        break;
      case obs::TraceEventType::kFetchAttemptStart:
        EXPECT_TRUE(dispatched_ids.count(e.request))
            << "attempt for unknown request " << e.request;
        ++attempts;
        break;
      default:
        break;
    }
  }
  EXPECT_FALSE(dispatched_ids.empty());
  // Every dispatched request puts at least one attempt on the wire.
  EXPECT_GE(attempts, static_cast<int>(dispatched_ids.size()));
}

// ---------------------------------------------------------------------------
// SimMonitor satellites.
// ---------------------------------------------------------------------------

TEST(SimMonitorTest, StopHaltsSamplingAndReArmContinuesCounts) {
  obs::Telemetry telemetry;
  sim::Simulator simulator;
  const obs::Counter* samples = nullptr;
  {
    obs::SimMonitor monitor(simulator, telemetry, sim::seconds(1.0));
    simulator.run_until(sim::seconds(3.0));
    samples = telemetry.metrics().find_counter("sim.samples");
    ASSERT_NE(samples, nullptr);
    EXPECT_EQ(samples->value(), 3);
    monitor.stop();
    EXPECT_FALSE(monitor.running());
    simulator.run_until(sim::seconds(6.0));
    EXPECT_EQ(samples->value(), 3);  // stopped: no further samples
  }
  // Re-arm on the same telemetry: instruments resolve by name, so the
  // counts continue instead of resetting.
  obs::SimMonitor rearmed(simulator, telemetry, sim::seconds(1.0));
  EXPECT_TRUE(rearmed.running());
  simulator.run_until(sim::seconds(8.0));
  EXPECT_EQ(samples->value(), 5);
}

TEST(SimMonitorTest, QueueDepthQuantileAgreesWithHistogramBound) {
  obs::Telemetry telemetry;
  sim::Simulator simulator;
  obs::SimMonitor monitor(simulator, telemetry, sim::seconds(1.0));
  for (int i = 0; i < 200; ++i) {
    simulator.schedule_at(sim::milliseconds(50 * i), [] {});
  }
  simulator.run_until(sim::seconds(10.0));
  const obs::Histogram* hist =
      telemetry.metrics().find_histogram("sim.queue_depth_hist");
  ASSERT_NE(hist, nullptr);
  ASSERT_GT(hist->count(), 0);
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(monitor.queue_depth_quantile(q),
                     obs::histogram_quantile_bound(*hist, q))
        << "q=" << q;
  }
}

TEST(LiveTelemetry, LatencyHistogramMirrorsResult) {
  obs::Telemetry telemetry;
  live::LiveBroadcastSession::Config cfg;
  cfg.platform = live::PlatformProfile::facebook();
  cfg.telemetry = &telemetry;
  const auto result = live::LiveBroadcastSession(cfg).run();
  const obs::Histogram* latency =
      telemetry.metrics().find_histogram("live.e2e_latency_s");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), result.segments_displayed);
  EXPECT_NEAR(latency->mean(), result.mean_e2e_latency_s, 1e-9);
  int displayed_events = 0;
  for (const obs::TraceEvent& e : telemetry.trace().events()) {
    if (e.type == obs::TraceEventType::kSegmentDisplayed) ++displayed_events;
  }
  EXPECT_GT(displayed_events, 0);
}

}  // namespace
