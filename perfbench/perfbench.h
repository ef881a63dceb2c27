// perfbench: one end-to-end benchmark for Sperke (see README.md).
//
// Three canonical worlds (workloads) are generated from a seed and driven
// through the library's public API: engine::ShardedEngine for the two
// engine worlds, mp::MultipathTransport + core::StreamingSession for the
// multipath world. An untraced run reports run-level throughput, CPU and
// QoE; a separate traced run rebuilds the same world from public pieces,
// wraps every net::ChunkSource and core::ChunkTransport in a timing
// decorator, and splits the cost by layer. Nothing here lives in src/.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cdn/edge.h"
#include "core/session.h"
#include "core/transport.h"
#include "engine/world.h"
#include "hmp/head_trace.h"
#include "hmp/heatmap.h"
#include "net/chunk_source.h"
#include "sim/simulator.h"

namespace perfbench {

namespace sp = sperke;

// ---- Workloads ------------------------------------------------------------

enum class Workload : std::uint8_t { kVodDirect, kVodCdnFine, kMpChaos };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(Workload workload);

// The tile-ABR policies mp_chaos cycles through by session id; the abr
// probe times each of them on every workload's inputs.
[[nodiscard]] std::vector<std::string> mp_policies();

// ---- Metric tables --------------------------------------------------------

// One reported metric. `layer` names the module it measures; `note` is the
// definition of an end-to-end metric, or the end-to-end metric/workload a
// per-layer metric should move. `in_result` is false for metrics printed but left out of
// the final JSON line: the two failure fractions are zero on a healthy
// run, and qoe_score is negative on mp_chaos (see README.md).
struct MetricInfo {
  std::string_view name;
  std::string_view unit;
  std::string_view better;  // "higher" or "lower"
  std::string_view layer;
  std::string_view note;
  bool in_result = true;
};

[[nodiscard]] std::span<const MetricInfo> end_to_end_metrics();
[[nodiscard]] std::span<const MetricInfo> per_layer_metrics();

// [A-Za-z0-9][A-Za-z0-9_.-]{0,63}: the benchmark's metric-name grammar.
[[nodiscard]] bool valid_metric_name(std::string_view name);

// ---- Percentiles ----------------------------------------------------------

// A timing as a median plus the highest of the 99.99/99.9/99/90th
// percentiles that has at least ten samples beyond it (nearest rank), and
// the sample count. Every field is 0 for an empty sample.
struct Percentiles {
  double median = 0.0;
  double tail_pct = 0.0;
  double tail = 0.0;
  // The 99th percentile when the sample supports it, else `tail`.
  double p99 = 0.0;
  std::size_t count = 0;
};

[[nodiscard]] Percentiles percentiles(std::vector<double> samples);

// ---- Spans ----------------------------------------------------------------

enum class SpanName : std::uint8_t {
  kTransportFetch,     // SingleLinkTransport::fetch
  kTransportComplete,  // the transport's completion handler for one attempt
  kSessionOnDone,      // the session's fetch-completion callback
  kNetFetch,           // net::LinkSource::fetch
  kCdnFetch,           // cdn::EdgeSource::fetch
  kMpFetch,            // mp::MultipathTransport::fetch
  kCount,
};

[[nodiscard]] std::string_view span_name(SpanName name);

// In-memory span recorder for one thread. Spans nest strictly (the
// simulator is single-threaded and every traced call is synchronous), so a
// span's self time is its duration minus the durations of its direct
// children, accumulated online per name. The first kKeptSpans spans are
// also kept verbatim for write_csv.
class Tracer {
 public:
  struct Span {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;  // index into spans(), -1 = root or not kept
    SpanName name = SpanName::kCount;
    std::int64_t request = 0;  // shared by one request's attempts
  };
  struct Totals {
    std::int64_t count = 0;
    std::int64_t self_ns = 0;
  };

  // RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, SpanName name, std::int64_t request)
        : tracer_(tracer) {
      tracer_.open(name, request);
    }
    ~Scope() { tracer_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
  };

  static constexpr std::size_t kKeptSpans = 200'000;

  [[nodiscard]] std::int64_t next_request_id() { return ++last_request_; }

  [[nodiscard]] const Totals& totals(SpanName name) const {
    return totals_[static_cast<std::size_t>(name)];
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Virtual-time samples (ms) and source counters, filled by the decorators.
  std::vector<double> dispatch_wait_ms;
  std::vector<double> fetch_latency_ms;
  std::int64_t source_fetches = 0;
  std::int64_t source_failed = 0;
  std::int64_t on_done_calls = 0;

  // Header + one line per kept span; throws std::runtime_error on I/O error.
  void write_csv(const std::string& path) const;

 private:
  struct Open {
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::int32_t kept = -1;
    SpanName name = SpanName::kCount;
  };

  void open(SpanName name, std::int64_t request);
  void close();

  std::int64_t last_request_ = 0;
  std::vector<Open> stack_;
  std::array<Totals, static_cast<std::size_t>(SpanName::kCount)> totals_{};
  std::vector<Span> spans_;
};

// Links a transport's fetch(request) to the ChunkSource::fetch calls that
// carry it, so the source side can measure the dispatch wait and reuse the
// request id for every attempt. Keyed by (object, playback deadline).
class DispatchLedger {
 public:
  void enqueue(const sp::net::ChunkId& id, sp::sim::Time deadline,
               sp::sim::Time now, std::int64_t request);
  // The request id the dispatch belongs to (0 if unknown); the first
  // dispatch of a request appends its wait to `waits_ms`.
  std::int64_t dispatch(const sp::net::ChunkId& id, sp::sim::Time deadline,
                        sp::sim::Time now, std::vector<double>& waits_ms);
  void settle(const sp::net::ChunkId& id, sp::sim::Time deadline,
              std::int64_t request);

 private:
  struct Entry {
    sp::sim::Time enqueued{};
    std::int64_t request = 0;
    bool dispatched = false;
  };
  std::map<std::pair<sp::net::ChunkId, sp::sim::Time>, std::deque<Entry>> open_;
};

// Timing decorator around a ChunkSource: spans the fetch call and the
// completion callback, samples fetch-to-settle latency, and counts the bytes
// it hands back so the transport's bytes_fetched can be checked against them.
class TracedSource final : public sp::net::ChunkSource {
 public:
  // `inner`, `tracer` and `ledger` (nullable) must outlive the decorator.
  TracedSource(sp::net::ChunkSource& inner, Tracer& tracer, SpanName name,
               DispatchLedger* ledger);

  sp::net::FetchId fetch(const sp::net::FetchSpec& spec,
                         sp::net::TransferCallback on_done) override;
  bool cancel(sp::net::FetchId id) override { return inner_.cancel(id); }
  [[nodiscard]] sp::sim::Duration rtt() const override { return inner_.rtt(); }
  [[nodiscard]] sp::sim::Simulator& simulator() override {
    return inner_.simulator();
  }

  [[nodiscard]] std::int64_t delivered_bytes() const { return delivered_bytes_; }

 private:
  sp::net::ChunkSource& inner_;
  Tracer& tracer_;
  SpanName name_;
  DispatchLedger* ledger_;
  std::int64_t delivered_bytes_ = 0;
};

// Timing decorator around a ChunkTransport: spans fetch() and the session's
// completion callback, and registers each request with the ledger.
class TracedTransport final : public sp::core::ChunkTransport {
 public:
  // `inner`, `simulator`, `tracer` and `ledger` (nullable) must outlive it.
  TracedTransport(sp::core::ChunkTransport& inner, sp::sim::Simulator& simulator,
                  Tracer& tracer, SpanName fetch_name, DispatchLedger* ledger);

  void fetch(sp::core::ChunkRequest request) override;
  [[nodiscard]] double estimated_kbps() const override {
    return inner_.estimated_kbps();
  }
  [[nodiscard]] int in_flight() const override { return inner_.in_flight(); }
  [[nodiscard]] std::int64_t bytes_fetched() const override {
    return inner_.bytes_fetched();
  }

 private:
  sp::core::ChunkTransport& inner_;
  sp::sim::Simulator& simulator_;
  Tracer& tracer_;
  SpanName fetch_name_;
  DispatchLedger* ledger_;
};

// ---- Reports --------------------------------------------------------------

[[nodiscard]] bool same_report(const sp::core::SessionReport& a,
                               const sp::core::SessionReport& b);
// FNV-1a over every report field, in session order.
[[nodiscard]] std::uint64_t digest(std::span<const sp::core::SessionReport> reports);

// ---- Worlds ---------------------------------------------------------------

// Everything a workload needs before it runs, generated from the seed.
struct WorldInputs {
  Workload workload = Workload::kVodDirect;
  std::uint64_t seed = 0;
  int sessions = 0;
  // Engine worlds: the spec handed to ShardedEngine. The mp world reuses
  // its video / trace / session fields as templates.
  sp::engine::WorldSpec spec;
  std::vector<sp::hmp::HeadTrace> traces;
  std::unique_ptr<sp::hmp::ViewingHeatmap> crowd;  // spec.crowd points here
  // Multipath world only.
  int sessions_per_mp_world = 0;
  sp::core::RecoveryPolicy recovery;
};

// Sessions in the default world of each workload (README.md sizes them).
[[nodiscard]] int default_sessions(Workload workload);

// Spec, head-trace pool and crowd heatmap for `workload` at `seed`.
[[nodiscard]] std::unique_ptr<WorldInputs> make_inputs(Workload workload,
                                                       std::uint64_t seed,
                                                       int sessions);

[[nodiscard]] int mp_world_count(const WorldInputs& inputs);
// Link configs of multipath world `world` (bandwidth and fault seeds
// decorrelated per world).
[[nodiscard]] sp::net::LinkConfig mp_wifi(const WorldInputs& inputs, int world);
[[nodiscard]] sp::net::LinkConfig mp_lte(const WorldInputs& inputs, int world);

// What one pass over a world's units (engine shards or multipath worlds)
// produced.
struct UnitTiming {
  double build_s = 0.0;
  double run_s = 0.0;
};
struct WorldRun {
  std::vector<sp::core::SessionReport> reports;
  std::vector<int> session_ids;  // global id of each report
  std::vector<UnitTiming> units;
  std::uint64_t events = 0;
  // Conservation: Σ transport bytes_fetched vs Σ bytes its sources (or,
  // for multipath, its paths) delivered.
  std::int64_t transport_bytes = 0;
  std::int64_t delivered_bytes = 0;
  // CDN tier (zero without one).
  sp::cdn::EdgeStats edge;
  std::int64_t origin_egress_bytes = 0;
  // Multipath (zero without it).
  std::int64_t mp_failovers = 0;
  std::int64_t mp_dropped_best_effort = 0;
  std::int64_t mp_requests = 0;
  std::vector<double> attempt_latency_ms;  // from the obs attempt spans
  std::int64_t attempts = 0;
  std::int64_t attempts_failed = 0;
};

struct RunOptions {
  int threads = 1;           // run_mp_worlds only
  Tracer* tracer = nullptr;  // non-null: decorate (run_unit only)
  bool telemetry = true;     // multipath world only
};

// A world's independent units: engine shards, or multipath worlds.
[[nodiscard]] int unit_count(const WorldInputs& inputs);

// One unit on the calling thread. An engine shard is rebuilt from public
// pieces exactly as engine::Shard builds it.
[[nodiscard]] WorldRun run_unit(const WorldInputs& inputs, int unit,
                                const RunOptions& options);

// Adds `part` to `into`; reports land at their global session id.
void append(WorldRun& into, WorldRun&& part);

// Every multipath world, on a pool of options.threads workers; reports
// in global session order.
[[nodiscard]] WorldRun run_mp_worlds(const WorldInputs& inputs,
                                     const RunOptions& options);

// ---- Kernel probes ----------------------------------------------------------

struct ProbeResult {
  double visible_tiles_ns = 0.0;
  double fusion_ns = 0.0;
  std::vector<std::pair<std::string, double>> plan_ns;  // policy -> ns/call
};

// geo / hmp / abr kernels fed with the workload's own head traces.
[[nodiscard]] ProbeResult run_probes(const WorldInputs& inputs);

// ---- Process measurements -----------------------------------------------------

[[nodiscard]] double wall_seconds();  // steady clock
[[nodiscard]] double cpu_seconds();   // process user + sys
[[nodiscard]] double thread_cpu_seconds();  // calling thread, ns resolution
[[nodiscard]] double peak_rss_mb();
[[nodiscard]] int default_threads();  // min(available cores, 4)

}  // namespace perfbench
