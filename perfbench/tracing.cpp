// Metric tables, the percentile helper, span recording and the timing
// decorators, report comparison, and process measurements.
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "perfbench.h"

namespace perfbench {

namespace {

constexpr std::string_view kWorkloadNames[] = {"vod_direct", "vod_cdn_fine",
                                               "mp_chaos"};

constexpr MetricInfo kEndToEnd[] = {
    {"sessions_per_s", "1/s", "higher", "run",
     "completed sessions / wall seconds of the run"},
    {"cpu_ms_per_session", "ms", "lower", "run",
     "process user+sys CPU over the run / sessions attempted"},
    {"setup_s", "s", "lower", "run",
     "spec, head-trace pool, crowd heatmap, engine or world set-up"},
    {"peak_rss_mb", "MB", "lower", "run", "ru_maxrss at the end of the process"},
    {"qoe_score", "score", "higher", "run", "mean abr::QoeSummary::score",
     false},
    {"stall_s_per_session", "s", "lower", "run", "mean stall seconds"},
    {"wasted_frac", "ratio", "lower", "run",
     "sum bytes_wasted / sum bytes_downloaded"},
    {"session_fail_frac", "ratio", "lower", "run",
     "sessions incomplete or failing a check / attempted", false},
    {"fetch_fail_frac", "ratio", "lower", "run",
     "sum fetch_failures / sum fetches", false},
};

constexpr MetricInfo kPerLayer[] = {
    {"engine.build_ms", "ms", "lower", "engine",
     "setup_s, sessions_per_s on every workload"},
    {"engine.balance", "ratio", "higher", "engine", "sessions_per_s on vod_direct"},
    {"sim.events_per_session", "count", "lower", "sim",
     "cpu_ms_per_session on vod_direct, vod_cdn_fine"},
    {"sim.ns_per_event", "ns", "lower", "sim",
     "cpu_ms_per_session on vod_direct, vod_cdn_fine"},
    {"geo.visible_tiles_ns", "ns", "lower", "geo",
     "cpu_ms_per_session on vod_direct"},
    {"hmp.fusion_ns", "ns", "lower", "hmp", "cpu_ms_per_session on vod_direct"},
    {"abr.sperke.plan_ns", "ns", "lower", "abr",
     "cpu_ms_per_session on vod_direct"},
    {"abr.knapsack.plan_ns", "ns", "lower", "abr",
     "cpu_ms_per_session on mp_chaos"},
    {"abr.consistency.plan_ns", "ns", "lower", "abr",
     "cpu_ms_per_session on mp_chaos"},
    {"core.session.on_done_ns", "ns", "lower", "core",
     "sessions_per_s on vod_direct"},
    {"core.session.on_done_per_session", "count", "lower", "core",
     "sessions_per_s on vod_direct"},
    {"core.transport.fetch_ns", "ns", "lower", "core",
     "cpu_ms_per_session on vod_cdn_fine"},
    {"core.transport.complete_ns", "ns", "lower", "core",
     "cpu_ms_per_session on vod_cdn_fine"},
    {"core.transport.dispatch_wait_ms.p50", "ms", "lower", "core",
     "stall_s_per_session on vod_cdn_fine"},
    {"core.transport.dispatch_wait_ms.p99", "ms", "lower", "core",
     "stall_s_per_session on vod_cdn_fine"},
    {"core.transport.dispatch_wait_ms.n", "count", "lower", "core",
     "sample count of the two rows above"},
    {"net.fetch_ns", "ns", "lower", "net", "cpu_ms_per_session on vod_direct"},
    {"net.fetch_latency_ms.p50", "ms", "lower", "net",
     "stall_s_per_session on vod_direct, mp_chaos"},
    {"net.fetch_latency_ms.p99", "ms", "lower", "net",
     "stall_s_per_session on vod_direct, mp_chaos"},
    {"net.fetch_latency_ms.n", "count", "lower", "net",
     "sample count of the two rows above"},
    {"net.failed_frac", "ratio", "lower", "net", "fetch_fail_frac on mp_chaos"},
    {"cdn.fetch_ns", "ns", "lower", "cdn", "cpu_ms_per_session on vod_cdn_fine"},
    {"cdn.hit_rate", "ratio", "higher", "cdn",
     "stall_s_per_session on vod_cdn_fine"},
    {"cdn.coalesced_frac", "ratio", "higher", "cdn",
     "stall_s_per_session on vod_cdn_fine"},
    {"cdn.evictions_per_session", "count", "lower", "cdn",
     "cpu_ms_per_session on vod_cdn_fine"},
    {"cdn.origin_mb_per_session", "MB", "lower", "cdn",
     "stall_s_per_session on vod_cdn_fine"},
    {"mp.fetch_ns", "ns", "lower", "mp", "cpu_ms_per_session on mp_chaos"},
    {"mp.failovers_per_session", "count", "lower", "mp",
     "fetch_fail_frac, stall_s_per_session on mp_chaos"},
    {"mp.dropped_best_effort_frac", "ratio", "lower", "mp",
     "fetch_fail_frac, stall_s_per_session on mp_chaos"},
    {"obs.telemetry_overhead_frac", "ratio", "lower", "obs",
     "cpu_ms_per_session on mp_chaos"},
    {"trace.overhead_frac", "ratio", "lower", "trace",
     "none (cost of this benchmark's own tracing)"},
};

constexpr std::string_view kSpanNames[] = {
    "core.transport.fetch", "core.transport.complete", "core.session.on_done",
    "net.fetch",            "cdn.fetch",               "mp.fetch",
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// FNV-1a, fed field by field.
class Fnv {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      hash_ = (hash_ ^ b) * 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kWorkloadNames); ++i) {
    if (kWorkloadNames[i] == name) return static_cast<Workload>(i);
  }
  return std::nullopt;
}

std::string_view workload_name(Workload workload) {
  return kWorkloadNames[static_cast<std::size_t>(workload)];
}

std::vector<std::string> mp_policies() { return {"sperke", "knapsack", "consistency"}; }

std::span<const MetricInfo> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricInfo> per_layer_metrics() { return kPerLayer; }

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

Percentiles percentiles(std::vector<double> samples) {
  Percentiles out;
  out.count = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const auto rank = [&](double pct) {
    // Nearest rank: the smallest value with at least pct % of the sample
    // at or below it.
    const auto n = static_cast<double>(samples.size());
    const auto k = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    return samples[std::clamp<std::size_t>(k, 1, samples.size()) - 1];
  };
  const auto supported = [&](double pct) {
    const auto n = static_cast<double>(samples.size());
    const auto at_or_below = static_cast<std::size_t>(std::ceil(pct / 100.0 * n));
    return samples.size() - std::min(at_or_below, samples.size()) >= 10;
  };
  out.median = rank(50.0);
  for (const double pct : {99.99, 99.9, 99.0, 90.0}) {
    if (supported(pct)) {
      out.tail_pct = pct;
      out.tail = rank(pct);
      break;
    }
  }
  out.p99 = supported(99.0) ? rank(99.0) : out.tail;
  return out;
}

std::string_view span_name(SpanName name) {
  return kSpanNames[static_cast<std::size_t>(name)];
}

void Tracer::open(SpanName name, std::int64_t request) {
  Open span;
  span.name = name;
  if (spans_.size() < kKeptSpans) {
    span.kept = static_cast<std::int32_t>(spans_.size());
    Span kept;
    kept.parent = stack_.empty() ? -1 : stack_.back().kept;
    kept.name = name;
    kept.request = request;
    spans_.push_back(kept);
  }
  span.start_ns = now_ns();
  if (span.kept >= 0) spans_[static_cast<std::size_t>(span.kept)].start_ns = span.start_ns;
  stack_.push_back(span);
}

void Tracer::close() {
  const std::int64_t end = now_ns();
  const Open span = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end - span.start_ns;
  Totals& totals = totals_[static_cast<std::size_t>(span.name)];
  ++totals.count;
  totals.self_ns += duration - span.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (span.kept >= 0) spans_[static_cast<std::size_t>(span.kept)].end_ns = end;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "id,parent,name,request,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.parent << ',' << span_name(s.name) << ',' << s.request
        << ',' << s.start_ns << ',' << s.end_ns << '\n';
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

void DispatchLedger::enqueue(const sp::net::ChunkId& id, sp::sim::Time deadline,
                             sp::sim::Time now, std::int64_t request) {
  open_[{id, deadline}].push_back({.enqueued = now, .request = request});
}

std::int64_t DispatchLedger::dispatch(const sp::net::ChunkId& id,
                                      sp::sim::Time deadline, sp::sim::Time now,
                                      std::vector<double>& waits_ms) {
  const auto it = open_.find({id, deadline});
  if (it == open_.end()) return 0;
  for (Entry& entry : it->second) {
    if (entry.dispatched) continue;
    entry.dispatched = true;
    waits_ms.push_back(sp::sim::to_milliseconds(now - entry.enqueued));
    return entry.request;
  }
  // Every entry already went out once: a retry of the oldest.
  return it->second.front().request;
}

void DispatchLedger::settle(const sp::net::ChunkId& id, sp::sim::Time deadline,
                            std::int64_t request) {
  const auto it = open_.find({id, deadline});
  if (it == open_.end()) return;
  std::deque<Entry>& entries = it->second;
  const auto entry = std::find_if(entries.begin(), entries.end(),
                                  [&](const Entry& e) { return e.request == request; });
  if (entry != entries.end()) entries.erase(entry);
  if (entries.empty()) open_.erase(it);
}

TracedSource::TracedSource(sp::net::ChunkSource& inner, Tracer& tracer,
                           SpanName name, DispatchLedger* ledger)
    : inner_(inner), tracer_(tracer), name_(name), ledger_(ledger) {}

sp::net::FetchId TracedSource::fetch(const sp::net::FetchSpec& spec,
                                     sp::net::TransferCallback on_done) {
  const sp::sim::Time started = inner_.simulator().now();
  const std::int64_t request =
      ledger_ == nullptr
          ? 0
          : ledger_->dispatch(spec.id, spec.deadline, started,
                              tracer_.dispatch_wait_ms);
  ++tracer_.source_fetches;
  Tracer::Scope scope(tracer_, name_, request);
  return inner_.fetch(
      spec, [this, started, request,
             on_done = std::move(on_done)](const sp::net::TransferResult& r) {
        tracer_.fetch_latency_ms.push_back(sp::sim::to_milliseconds(r.time - started));
        if (r.status == sp::net::TransferStatus::kFailed) ++tracer_.source_failed;
        if (r.completed()) delivered_bytes_ += r.bytes_delivered;
        Tracer::Scope settle(tracer_, SpanName::kTransportComplete, request);
        on_done(r);
      });
}

TracedTransport::TracedTransport(sp::core::ChunkTransport& inner,
                                 sp::sim::Simulator& simulator, Tracer& tracer,
                                 SpanName fetch_name, DispatchLedger* ledger)
    : inner_(inner),
      simulator_(simulator),
      tracer_(tracer),
      fetch_name_(fetch_name),
      ledger_(ledger) {}

void TracedTransport::fetch(sp::core::ChunkRequest request) {
  const std::int64_t traced_id = tracer_.next_request_id();
  if (ledger_ != nullptr) {
    ledger_->enqueue(request.id, request.deadline, simulator_.now(), traced_id);
  }
  if (request.on_done) {
    request.on_done = [this, traced_id, id = request.id, deadline = request.deadline,
                       on_done = std::move(request.on_done)](
                          sp::sim::Time when, sp::core::FetchOutcome outcome) {
      if (ledger_ != nullptr) ledger_->settle(id, deadline, traced_id);
      ++tracer_.on_done_calls;
      Tracer::Scope scope(tracer_, SpanName::kSessionOnDone, traced_id);
      on_done(when, outcome);
    };
  }
  Tracer::Scope scope(tracer_, fetch_name_, traced_id);
  inner_.fetch(std::move(request));
}

bool same_report(const sp::core::SessionReport& a,
                 const sp::core::SessionReport& b) {
  const sp::abr::QoeSummary& qa = a.qoe;
  const sp::abr::QoeSummary& qb = b.qoe;
  return qa.chunks_played == qb.chunks_played &&
         qa.mean_viewport_utility == qb.mean_viewport_utility &&
         qa.stall_seconds == qb.stall_seconds &&
         qa.stall_events == qb.stall_events &&
         qa.skipped_chunks == qb.skipped_chunks &&
         qa.switch_magnitude == qb.switch_magnitude &&
         qa.blank_fraction_mean == qb.blank_fraction_mean &&
         qa.bytes_downloaded == qb.bytes_downloaded &&
         qa.bytes_wasted == qb.bytes_wasted && qa.score == qb.score &&
         a.startup_delay == b.startup_delay && a.wall_duration == b.wall_duration &&
         a.fetches == b.fetches && a.urgent_fetches == b.urgent_fetches &&
         a.upgrades == b.upgrades && a.late_corrections == b.late_corrections &&
         a.fetch_failures == b.fetch_failures &&
         a.degraded_retries == b.degraded_retries &&
         a.viewport_utility_per_chunk == b.viewport_utility_per_chunk &&
         a.completed == b.completed;
}

std::uint64_t digest(std::span<const sp::core::SessionReport> reports) {
  Fnv fnv;
  for (const sp::core::SessionReport& r : reports) {
    fnv.add(r.qoe.chunks_played);
    fnv.add(r.qoe.mean_viewport_utility);
    fnv.add(r.qoe.stall_seconds);
    fnv.add(r.qoe.stall_events);
    fnv.add(r.qoe.skipped_chunks);
    fnv.add(r.qoe.switch_magnitude);
    fnv.add(r.qoe.blank_fraction_mean);
    fnv.add(r.qoe.bytes_downloaded);
    fnv.add(r.qoe.bytes_wasted);
    fnv.add(r.qoe.score);
    fnv.add(r.startup_delay.count());
    fnv.add(r.wall_duration.count());
    fnv.add(r.fetches);
    fnv.add(r.urgent_fetches);
    fnv.add(r.upgrades);
    fnv.add(r.late_corrections);
    fnv.add(r.fetch_failures);
    fnv.add(r.degraded_retries);
    for (const double u : r.viewport_utility_per_chunk) fnv.add(u);
    fnv.add(r.completed);
  }
  return fnv.value();
}

double wall_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int default_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cores = 1;
  if (sched_getaffinity(0, sizeof set, &set) == 0) cores = CPU_COUNT(&set);
  return std::clamp(cores, 1, 4);
}

}  // namespace perfbench
