// Transport abstraction between the streaming client and the network:
// the client submits chunk requests tagged with the Table 1 priorities;
// a transport delivers them over one link (SingleLinkTransport) or several
// (mp::MultipathTransport).
//
// Both transports deliver through FetchQueue, the one request queue with
// retry: a SingleLinkTransport is one queue, a MultipathTransport is one
// queue per path plus the path choice. Failure recovery (DESIGN.md §10):
// with RecoveryPolicy::enabled the queue retries failed transfers with
// exponential backoff under a per-request retry budget, arms a
// deadline-derived timeout on every in-flight transfer, and reports how
// each request ended through the typed FetchOutcome instead of a bare bool.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "abr/plan.h"
#include "net/chunk_source.h"
#include "net/link.h"
#include "net/throughput_estimator.h"
#include "obs/telemetry.h"
#include "sim/time.h"
#include "util/inline_function.h"

namespace sperke::core {

// How a chunk request ended, from the client's point of view.
enum class FetchOutcome : std::uint8_t {
  kDelivered,  // every byte arrived
  kDropped,    // transport abandoned it (best-effort deadline miss)
  kTimedOut,   // deadline-derived timeout expired while fetching/retrying
  kFailed,     // transfer failed and the retry budget is exhausted
};

[[nodiscard]] constexpr bool delivered(FetchOutcome outcome) {
  return outcome == FetchOutcome::kDelivered;
}

struct ChunkRequest {
  // The planned object, C(q, l, t): what caches key on and trace labels
  // carry.
  media::ChunkAddress id;
  std::int64_t bytes = 0;
  abr::SpatialClass spatial = abr::SpatialClass::kFov;
  bool urgent = false;                 // temporal priority (Table 1)
  sim::Time deadline{sim::kTimeZero};  // playback deadline (wall clock)
  // Causal span identity (obs): per-shard monotonic id from
  // Telemetry::next_request_id(), assigned by the session — or by the
  // transport when it first sees id 0 with telemetry attached. 0 means
  // untraced. `parent_id` links a degraded retry / blank re-request to the
  // request it replaces, so exporters can nest the spans.
  std::int64_t request_id = 0;
  std::int64_t parent_id = 0;
  // Called exactly once with the time the request settled and its outcome.
  // 96 bytes inline hold TileFetcher's `{this, alive, Fetch}` closure, so
  // a request allocates nothing for its callback.
  util::InlineFunction<void(sim::Time, FetchOutcome), 96> on_done;
};

// Failure-recovery policy shared by both transports (DESIGN.md §10).
// Disabled by default: a transport without recovery never retries, never
// times out, and is byte-identical to the pre-fault-model behaviour.
// Enabled, a request is attempted at most three times, retry k (1-based)
// waiting retry_backoff(k); multipath marks a path down after 3
// consecutive transfer failures (or an outage signal) and re-probes it
// every second until it carries traffic again.
struct RecoveryPolicy {
  bool enabled = false;
  // In-flight timeout = max(deadline, start + min_timeout): a transfer may
  // run slightly past an already-blown deadline, but a retry is never
  // *started* at or past the deadline.
  sim::Duration min_timeout{sim::milliseconds(250)};
};

// Construction options shared by SingleLinkTransport and
// mp::MultipathTransport (per-path concurrency for the latter).
struct TransportOptions {
  int max_concurrent = 4;
  // Optional metrics/trace sink (not owned; must outlive the transport).
  obs::Telemetry* telemetry = nullptr;
  RecoveryPolicy recovery;
};

// Throws std::invalid_argument for an enabled policy with a negative
// timeout floor. A disabled policy is never read, so it is never rejected.
void validate(const RecoveryPolicy& policy);

// Backoff before retry k (1-based): 100 ms * 2^(k-1).
[[nodiscard]] sim::Duration retry_backoff(int retry_number);

// Whether a request that has already consumed `attempts` retries may retry
// again (budget + abandon-OOS rule); the deadline gate is checked separately.
[[nodiscard]] bool retry_allowed(const RecoveryPolicy& policy,
                                 const ChunkRequest& request, int attempts);

class ChunkTransport {
 public:
  virtual ~ChunkTransport() = default;

  virtual void fetch(ChunkRequest request) = 0;

  // Aggregate goodput estimate (kbps) for rate adaptation.
  [[nodiscard]] virtual double estimated_kbps() const = 0;

  // Requests accepted but not yet completed/dropped.
  [[nodiscard]] virtual int in_flight() const = 0;

  [[nodiscard]] virtual std::int64_t bytes_fetched() const = 0;
};

// Recovery metric handles, resolved once per transport when both telemetry
// and recovery are on (so fault-free worlds keep their metric set).
struct RecoveryMetrics {
  obs::Counter* retries = nullptr;
  obs::Counter* timeouts = nullptr;
  obs::Counter* failed_requests = nullptr;
  obs::Counter* recovered_requests = nullptr;  // delivered after >= 1 retry
  obs::Histogram* recovery_latency_ms = nullptr;  // first dispatch -> delivery

  void bind(obs::Telemetry& telemetry, const char* prefix);
};

// The one request queue with retry: bounded-concurrency dispatch over a
// single net::ChunkSource — a direct net::Link or a CDN edge
// (cdn::EdgeSource); the queue neither knows nor cares which topology
// serves its fetches. It owns everything between "request accepted" and
// "on_done fired": dispatch order, the HTTP/2-style stream weight, the
// attempt trace events, the deadline-derived timeout, backoff retry, the
// best-effort drop, the goodput estimate and the queued-bytes total.
//
// Dispatch order: lowest class first, then lowest submission seq. Each
// class is a seq-ascending deque, so a fresh submission (the highest seq
// so far) is an O(1) push and a pop is O(kClasses). A retry or a request
// moved over from another queue keeps its original seq and takes an
// ordered insert from the back — O(queue) worst case, and only faulted
// worlds pay it. The owner picks the class map and the seq source:
// SingleLinkTransport uses urgent ? 0 : 1, mp::MultipathTransport the
// Table 1 rank with one seq counter across all of its paths.
class FetchQueue {
 public:
  static constexpr std::size_t kClasses = 4;

  // Metric handles the queue updates; null handles are skipped.
  struct Metrics {
    obs::Counter* bytes = nullptr;
    obs::Histogram* queue_wait_ms = nullptr;
    obs::Gauge* in_flight = nullptr;
    obs::Counter* dropped = nullptr;
    RecoveryMetrics recovery;
  };

  // `source` must outlive the queue. `trace_path` is the `path` field of
  // the attempt trace events (-1 off multipath).
  FetchQueue(net::ChunkSource& source, const TransportOptions& options,
             std::int32_t trace_path);
  ~FetchQueue();
  FetchQueue(const FetchQueue&) = delete;
  FetchQueue& operator=(const FetchQueue&) = delete;

  // Queue `request` in class `cls` (< kClasses) and dispatch what fits.
  void submit(ChunkRequest request, std::size_t cls, std::uint64_t seq,
              bool best_effort);
  // Dispatch queued requests while concurrency allows (no-op while paused).
  void pump();
  // A paused queue keeps its queue but dispatches nothing; resuming pumps.
  void set_paused(bool paused);
  [[nodiscard]] bool paused() const { return paused_; }
  // Move every queued request of classes [0, classes) into `to`, in seq
  // order, and pump `to`. Returns how many requests moved.
  int move_queued(FetchQueue& to, std::size_t classes);

  [[nodiscard]] double estimated_kbps() const { return estimator_.estimate_kbps(); }
  // Requests accepted but not yet settled: queued, on the wire, or waiting
  // out a retry backoff.
  [[nodiscard]] int in_flight() const {
    return active_ + static_cast<int>(queued()) + retry_waiting_;
  }
  [[nodiscard]] int active() const { return active_; }
  [[nodiscard]] std::size_t queued() const;
  // Bytes of the queued requests plus those on the wire.
  [[nodiscard]] std::int64_t load_bytes() const { return load_bytes_; }
  [[nodiscard]] std::int64_t bytes_fetched() const { return bytes_fetched_; }
  [[nodiscard]] int dropped_best_effort() const { return dropped_best_effort_; }

  Metrics metrics;
  // Called with every attempt's result before the queue acts on it.
  util::InlineFunction<void(const net::TransferResult&), 16> on_attempt_settled;
  // The queue a retry re-enters after its backoff; unset means this one.
  util::InlineFunction<FetchQueue&(), 16> route_retry;

 private:
  struct Pending {
    ChunkRequest request;
    std::uint64_t seq = 0;
    std::size_t cls = 0;       // dispatch class, 0 = most important
    bool best_effort = false;  // dropped at dispatch once past its deadline
    sim::Time enqueued{sim::kTimeZero};
    int attempts = 0;  // completed (failed) dispatch attempts so far
    sim::Time first_dispatched{sim::kTimeZero};
  };

  void insert(Pending pending);
  // Start the attempt parked in `slot` on the source.
  void dispatch(std::uint32_t slot, sim::Time now);
  void on_attempt_done(std::uint32_t slot, sim::Time started,
                       const net::TransferResult& result);
  // Move the attempt out of its slab slot and free the slot.
  Pending release(std::uint32_t slot);
  void settle_undelivered(Pending& pending, sim::Time when, FetchOutcome outcome);

  net::ChunkSource& source_;
  TransportOptions options_;
  std::int32_t trace_path_;
  net::AggregateWindowEstimator estimator_;
  // Every deque holds strictly ascending seq values front-to-back.
  std::array<std::deque<Pending>, kClasses> queues_;
  // The attempts on the wire or waiting out a retry backoff, by slot; a
  // source callback names its attempt by slot. Callbacks may dispatch and
  // grow the slab, so no reference into it is held across one.
  std::vector<Pending> flights_;
  std::vector<std::uint32_t> free_flights_;
  int active_ = 0;
  int retry_waiting_ = 0;  // retries parked in a backoff wait
  bool paused_ = false;
  std::int64_t load_bytes_ = 0;
  std::int64_t bytes_fetched_ = 0;
  int dropped_best_effort_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

// One FetchQueue over one ChunkSource: urgent requests (class 0) jump
// ahead of regular ones (class 1), FIFO within each. Throughput is
// estimated aggregate-wise across concurrent transfers
// (net::AggregateWindowEstimator).
class SingleLinkTransport final : public ChunkTransport {
 public:
  // `source` must outlive the transport.
  explicit SingleLinkTransport(net::ChunkSource& source,
                               TransportOptions options = {});

  void fetch(ChunkRequest request) override;
  [[nodiscard]] double estimated_kbps() const override {
    return queue_.estimated_kbps();
  }
  [[nodiscard]] int in_flight() const override { return queue_.in_flight(); }
  [[nodiscard]] std::int64_t bytes_fetched() const override {
    return queue_.bytes_fetched();
  }

 private:
  TransportOptions options_;
  obs::Counter* requests_metric_ = nullptr;
  FetchQueue queue_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace sperke::core
