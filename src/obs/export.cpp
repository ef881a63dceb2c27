#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "util/csv.h"

namespace sperke::obs {
namespace {

// Shortest round-trippable decimal; deterministic for identical inputs.
std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

// Chrome trace viewers group events by (pid, tid); give each category its
// own named track so the timeline reads as one lane per pipeline layer.
int track_of(TraceEventType type) {
  const std::string_view cat = trace_event_category(type);
  if (cat == "session") return 1;
  if (cat == "plan") return 2;
  if (cat == "fetch") return 3;
  if (cat == "playback") return 4;
  if (cat == "multipath") return 5;
  if (cat == "live") return 6;
  if (cat == "slo") return 8;
  return 7;
}

std::string args_json(const TraceEvent& e) {
  std::string out = "{";
  out += "\"tile\":" + std::to_string(e.tile);
  out += ",\"chunk\":" + std::to_string(e.chunk);
  out += ",\"quality\":" + std::to_string(e.quality);
  out += ",\"path\":" + std::to_string(e.path);
  out += ",\"bytes\":" + std::to_string(e.bytes);
  out += std::string(",\"urgent\":") + (e.urgent ? "true" : "false");
  out += ",\"value\":" + fmt_double(e.value);
  out += ",\"request\":" + std::to_string(e.request);
  out += ",\"parent\":" + std::to_string(e.parent);
  out += "}";
  return out;
}

struct Record {
  std::int64_t ts = 0;
  std::int64_t dur = -1;  // -1: instant event
  std::size_t order = 0;  // creation order, the sort tie-break
  std::string name;
  std::string cat;
  int tid = 0;
  std::string args;
};

}  // namespace

void write_chrome_trace(std::ostream& out,
                        const std::vector<TraceEvent>& events) {
  std::vector<Record> records;
  records.reserve(events.size());
  // Open spans awaiting their closing event: fetches keyed by request id
  // (every traced fetch carries one, and ids disambiguate a retry of the
  // same chunk cell); transport attempts by (request id, attempt number);
  // stalls by track (at most one open per session).
  std::map<std::int64_t, TraceEvent> open_requests;
  std::map<std::pair<std::int64_t, std::int64_t>, TraceEvent> open_attempts;
  std::map<int, TraceEvent> open_stalls;

  auto push = [&records](std::int64_t ts, std::int64_t dur, std::string name,
                         const TraceEvent& e) {
    Record r;
    r.ts = ts;
    r.dur = dur;
    r.order = records.size();
    r.name = std::move(name);
    r.cat = std::string(trace_event_category(e.type));
    r.tid = track_of(e.type);
    r.args = args_json(e);
    records.push_back(std::move(r));
  };

  for (const TraceEvent& e : events) {
    switch (e.type) {
      case TraceEventType::kFetchDispatched:
        open_requests[e.request] = e;
        break;
      case TraceEventType::kFetchDone:
      case TraceEventType::kFetchDropped: {
        const auto it = open_requests.find(e.request);
        if (it != open_requests.end()) {
          const TraceEvent& begin = it->second;
          TraceEvent span = e;
          span.urgent = begin.urgent;
          // A retried fetch's span carries its parent linkage even when
          // only the dispatch event recorded it.
          if (span.parent == 0) span.parent = begin.parent;
          push(begin.ts.count(), (e.ts - begin.ts).count(),
               e.type == TraceEventType::kFetchDone
                   ? (span.parent != 0 ? "FetchRetry" : "Fetch")
                   : "FetchDropped",
               span);
          open_requests.erase(it);
        } else {
          push(e.ts.count(), -1, std::string(trace_event_name(e.type)), e);
        }
        break;
      }
      case TraceEventType::kFetchAttemptStart:
        open_attempts[{e.request, static_cast<std::int64_t>(e.value)}] = e;
        break;
      case TraceEventType::kFetchAttemptEnd: {
        const auto it =
            open_attempts.find({e.request, static_cast<std::int64_t>(e.value)});
        if (it != open_attempts.end()) {
          // Nested inside the request's outer Fetch span on the same
          // track: attempt 0 is the first try, attempt > 0 a transport
          // retry after a fault.
          push(it->second.ts.count(), (e.ts - it->second.ts).count(),
               e.value > 0.0 ? "Retry" : "Attempt", e);
          open_attempts.erase(it);
        } else {
          push(e.ts.count(), -1, "FetchAttemptEnd", e);
        }
        break;
      }
      case TraceEventType::kStallBegin:
        open_stalls[track_of(e.type)] = e;
        break;
      case TraceEventType::kStallEnd: {
        const auto it = open_stalls.find(track_of(e.type));
        if (it != open_stalls.end()) {
          push(it->second.ts.count(), (e.ts - it->second.ts).count(), "Stall", e);
          open_stalls.erase(it);
        } else {
          push(e.ts.count(), -1, "StallEnd", e);
        }
        break;
      }
      default:
        push(e.ts.count(), -1, std::string(trace_event_name(e.type)), e);
        break;
    }
  }
  // Spans that never closed (session cut off mid-fetch / mid-stall) export
  // as instants so no event is silently lost.
  for (const auto& [request, e] : open_requests) {
    push(e.ts.count(), -1, "FetchDispatched", e);
  }
  for (const auto& [key, e] : open_attempts) {
    push(e.ts.count(), -1, "FetchAttemptStart", e);
  }
  for (const auto& [track, e] : open_stalls) {
    push(e.ts.count(), -1, "StallBegin", e);
  }

  std::stable_sort(records.begin(), records.end(),
                   [](const Record& a, const Record& b) {
                     return std::tie(a.ts, a.order) < std::tie(b.ts, b.order);
                   });

  out << "[";
  const char* track_names[] = {"",          "session", "plan", "fetch",
                               "playback", "multipath", "live", "sim", "slo"};
  bool first = true;
  for (int tid = 1; tid <= 8; ++tid) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << track_names[tid] << "\"}}";
  }
  for (const Record& r : records) {
    out << ",\n{\"name\":\"" << r.name << "\",\"cat\":\"" << r.cat << "\",";
    if (r.dur >= 0) {
      out << "\"ph\":\"X\",\"dur\":" << r.dur << ",";
    } else {
      out << "\"ph\":\"i\",\"s\":\"t\",";
    }
    out << "\"ts\":" << r.ts << ",\"pid\":1,\"tid\":" << r.tid
        << ",\"args\":" << r.args << "}";
  }
  out << "\n]\n";
}

void write_trace_jsonl(std::ostream& out,
                       const std::vector<TraceEvent>& events) {
  for (const TraceEvent& e : events) {
    out << "{\"event\":\"" << trace_event_name(e.type) << "\",\"cat\":\""
        << trace_event_category(e.type) << "\",\"ts_us\":" << e.ts.count()
        << ",\"args\":" << args_json(e) << "}\n";
  }
}

void write_metrics_csv(std::ostream& out, const MetricsRegistry& registry) {
  CsvWriter csv(out);
  csv.write_row({"name", "kind", "count", "sum", "mean", "min", "max", "value",
                 "buckets"});
  for (const auto& entry : registry.entries()) {
    std::vector<std::string> row(9);
    row[0] = entry.name;
    row[1] = std::string(metric_kind_name(entry.kind));
    switch (entry.kind) {
      case MetricKind::kCounter:
        row[7] = std::to_string(entry.counter->value());
        break;
      case MetricKind::kGauge:
        row[7] = fmt_double(entry.gauge->value());
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *entry.histogram;
        row[2] = std::to_string(h.count());
        row[3] = fmt_double(h.sum());
        row[4] = fmt_double(h.mean());
        row[5] = fmt_double(h.min());
        row[6] = fmt_double(h.max());
        std::string buckets;
        for (std::size_t i = 0; i < h.bucket_counts().size(); ++i) {
          if (!buckets.empty()) buckets += ";";
          buckets += (i < h.upper_bounds().size()
                          ? "le" + fmt_double(h.upper_bounds()[i])
                          : std::string("le+inf")) +
                     ":" + std::to_string(h.bucket_counts()[i]);
        }
        row[8] = std::move(buckets);
        break;
      }
    }
    csv.write_row(row);
  }
}

void write_timeseries_csv(std::ostream& out, const TimeSeriesStore& store) {
  CsvWriter csv(out);
  csv.write_row({"name", "kind", "interval", "t_s", "value", "count", "sum",
                 "p50", "p90", "p99"});
  for (const TimeSeries& series : store.series()) {
    for (std::size_t i = 0; i < store.intervals(); ++i) {
      std::vector<std::string> row(10);
      row[0] = series.name;
      row[1] = std::string(metric_kind_name(series.kind));
      row[2] = std::to_string(i);
      row[3] = fmt_double(sim::to_seconds(store.interval_end(i)));
      switch (series.kind) {
        case MetricKind::kCounter:
          row[4] = std::to_string(series.counter_deltas[i]);
          break;
        case MetricKind::kGauge:
          row[4] = fmt_double(series.gauge_samples[i]);
          break;
        case MetricKind::kHistogram:
          row[5] = std::to_string(series.count_deltas[i]);
          row[6] = fmt_double(series.sum_deltas[i]);
          row[7] = fmt_double(series_quantile_bound(series, i, 0.50));
          row[8] = fmt_double(series_quantile_bound(series, i, 0.90));
          row[9] = fmt_double(series_quantile_bound(series, i, 0.99));
          break;
      }
      csv.write_row(row);
    }
  }
}

namespace {

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  return out;
}

}  // namespace

void dump_chrome_trace(const std::string& path, const Telemetry& telemetry) {
  auto out = open_or_throw(path);
  write_chrome_trace(out, telemetry.trace().events());
  if (!out) throw std::runtime_error("write failed: " + path);
}

void dump_trace_jsonl(const std::string& path, const Telemetry& telemetry) {
  auto out = open_or_throw(path);
  write_trace_jsonl(out, telemetry.trace().events());
  if (!out) throw std::runtime_error("write failed: " + path);
}

void dump_metrics_csv(const std::string& path, const Telemetry& telemetry) {
  auto out = open_or_throw(path);
  write_metrics_csv(out, telemetry.metrics());
  if (!out) throw std::runtime_error("write failed: " + path);
}

void dump_timeseries_csv(const std::string& path, const TimeSeriesStore& store) {
  auto out = open_or_throw(path);
  write_timeseries_csv(out, store);
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace sperke::obs
