#include "core/transport.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/slots.h"

namespace sperke::core {
namespace {

// Per-request retry budget: a request is attempted at most 1 + kMaxRetries
// times. Retry k (1-based) waits kBaseBackoff * kBackoffMultiplier^(k-1).
constexpr int kMaxRetries = 2;
constexpr sim::Duration kBaseBackoff = sim::milliseconds(100);
constexpr double kBackoffMultiplier = 2.0;

}  // namespace

void RecoveryMetrics::bind(obs::Telemetry& telemetry, const char* prefix) {
  obs::MetricsRegistry& m = telemetry.metrics();
  const std::string p(prefix);
  // The prefix parameterizes one fixed suffix set ("transport"/"mp.pathN"),
  // so the names stay within the [a-z0-9_.]+ style the lint rule enforces.
  retries = &m.counter(p + ".retries");  // sperke-lint: allow(metric-name)
  timeouts = &m.counter(p + ".timeouts");  // sperke-lint: allow(metric-name)
  failed_requests = &m.counter(p + ".failed_requests");  // sperke-lint: allow(metric-name)
  recovered_requests = &m.counter(p + ".recovered_requests");  // sperke-lint: allow(metric-name)
  recovery_latency_ms = &m.histogram(p + ".recovery_latency_ms");  // sperke-lint: allow(metric-name)
}

void validate(const RecoveryPolicy& policy) {
  if (!policy.enabled) return;
  if (policy.min_timeout < sim::Duration{0}) {
    throw std::invalid_argument("RecoveryPolicy: negative min_timeout");
  }
}

sim::Duration retry_backoff(int retry_number) {
  double scale = 1.0;
  for (int i = 1; i < retry_number; ++i) scale *= kBackoffMultiplier;
  return sim::seconds(sim::to_seconds(kBaseBackoff) * scale);
}

bool retry_allowed(const RecoveryPolicy& policy, const ChunkRequest& request,
                   int attempts) {
  if (!policy.enabled || attempts >= kMaxRetries) return false;
  // Graceful degradation order (§3.3): regular out-of-sight prefetch is
  // abandoned on first failure instead of competing with FoV traffic for
  // retry capacity.
  return request.spatial != abr::SpatialClass::kOos || request.urgent;
}

FetchQueue::FetchQueue(net::ChunkSource& source, const TransportOptions& options,
                       std::int32_t trace_path)
    : source_(source), options_(options), trace_path_(trace_path) {
  if (options_.max_concurrent < 1) {
    throw std::invalid_argument("FetchQueue: max_concurrent < 1");
  }
}

FetchQueue::~FetchQueue() { *alive_ = false; }

std::size_t FetchQueue::queued() const {
  std::size_t total = 0;
  for (const std::deque<Pending>& queue : queues_) total += queue.size();
  return total;
}

void FetchQueue::submit(ChunkRequest request, std::size_t cls, std::uint64_t seq,
                        bool best_effort) {
  insert({.request = std::move(request),
          .seq = seq,
          .cls = cls,
          .best_effort = best_effort,
          .enqueued = source_.simulator().now()});
  pump();
  if (metrics.in_flight != nullptr) metrics.in_flight->set(in_flight());
}

void FetchQueue::insert(Pending pending) {
  // Find the seq-ordered slot from the back: a fresh submission lands at
  // the tail at once; a retry or a moved request walks back past the
  // later submissions.
  load_bytes_ += pending.request.bytes;
  std::deque<Pending>& queue = queues_.at(pending.cls);
  auto it = queue.end();
  while (it != queue.begin() && std::prev(it)->seq > pending.seq) --it;
  if (it == queue.end()) {
    // Not insert(end()): on an empty deque that is a push_front, which
    // takes a fresh node whenever the queue drained at a node boundary.
    queue.push_back(std::move(pending));
  } else {
    queue.insert(it, std::move(pending));
  }
}

void FetchQueue::set_paused(bool paused) {
  paused_ = paused;
  pump();
}

int FetchQueue::move_queued(FetchQueue& to, std::size_t classes) {
  int moved = 0;
  for (std::size_t cls = 0; cls < classes; ++cls) {
    for (Pending& pending : queues_.at(cls)) {
      load_bytes_ -= pending.request.bytes;
      to.insert(std::move(pending));
      ++moved;
    }
    queues_[cls].clear();
  }
  to.pump();
  return moved;
}

void FetchQueue::pump() {
  while (!paused_ && active_ < options_.max_concurrent) {
    const auto queue = std::find_if(queues_.begin(), queues_.end(),
                                    [](const auto& q) { return !q.empty(); });
    if (queue == queues_.end()) return;
    const sim::Time now = source_.simulator().now();
    Pending& front = queue->front();
    // Best-effort requests that already blew their deadline are dropped
    // before wasting capacity. A retry never starts at or past the playback
    // deadline either: fetching a chunk the player has already given up on
    // only wastes capacity.
    const bool late = front.request.deadline <= now;
    if (late && (front.best_effort || front.attempts > 0)) {
      Pending pending = std::move(front);
      queue->pop_front();
      load_bytes_ -= pending.request.bytes;
      if (pending.best_effort) {
        ++dropped_best_effort_;
        if (metrics.dropped != nullptr) metrics.dropped->increment();
        if (pending.request.on_done) pending.request.on_done(now, FetchOutcome::kDropped);
      } else {
        settle_undelivered(pending, now, FetchOutcome::kTimedOut);
      }
      continue;
    }
    // The request moves once, from its queue into its attempt slot.
    const std::uint32_t slot = util::take_slot(flights_, free_flights_);
    flights_[slot] = std::move(front);
    queue->pop_front();
    dispatch(slot, now);
  }
}

void FetchQueue::dispatch(std::uint32_t slot, sim::Time now) {
  ++active_;
  Pending& pending = flights_[slot];
  if (metrics.queue_wait_ms != nullptr) {
    metrics.queue_wait_ms->observe(sim::to_milliseconds(now - pending.enqueued));
  }
  if (pending.attempts == 0) pending.first_dispatched = now;
  const ChunkRequest& request = pending.request;
  if (options_.telemetry != nullptr) {
    options_.telemetry->trace().record(
        {.type = obs::TraceEventType::kFetchAttemptStart,
         .ts = now,
         .tile = request.id.key.tile,
         .chunk = request.id.key.index,
         .quality = request.id.level,
         .path = trace_path_,
         .bytes = request.bytes,
         .urgent = request.urgent,
         .value = static_cast<double>(pending.attempts),
         .request = request.request_id,
         .parent = request.parent_id});
  }
  // HTTP/2-style stream weights: urgent chunks outweigh regular ones,
  // and within a class FoV outweighs OOS (Table 1).
  const double weight = (request.urgent ? 4.0 : 1.0) *
                        (request.spatial == abr::SpatialClass::kFov ? 2.0 : 1.0);
  const net::FetchSpec spec{.id = request.id,
                            .bytes = request.bytes,
                            .weight = weight,
                            .deadline = request.deadline};
  // The source may settle inside fetch(), and that settle may free `slot`
  // and dispatch again, so nothing below reads the slab.
  auto on_settled = [this, alive = alive_, slot, now](const net::TransferResult& r) {
    if (*alive) on_attempt_done(slot, now, r);
  };
  static_assert(net::TransferCallback::fits_inline<decltype(on_settled)>);
  const net::FetchId id = source_.fetch(spec, std::move(on_settled));
  if (options_.recovery.enabled) {
    // Deadline-derived timeout on the in-flight transfer. The min_timeout
    // floor keeps already-late emergency fetches (deadline == now) alive
    // long enough to have a chance. A settled attempt needs no guard: the
    // source issues each id once and cancel() of a settled id fires
    // nothing, so a stale timeout can never touch this request's retry.
    const sim::Time timeout_at =
        std::max(spec.deadline, now + options_.recovery.min_timeout);
    source_.simulator().schedule_at(timeout_at, [this, alive = alive_, id] {
      if (*alive) source_.cancel(id);  // fires kCancelled synchronously
    });
  }
}

FetchQueue::Pending FetchQueue::release(std::uint32_t slot) {
  Pending pending = std::move(flights_[slot]);
  free_flights_.push_back(slot);
  return pending;
}

void FetchQueue::on_attempt_done(std::uint32_t slot, sim::Time started,
                                 const net::TransferResult& r) {
  --active_;
  const std::int64_t bytes = flights_[slot].request.bytes;
  load_bytes_ -= bytes;
  if (options_.telemetry != nullptr) {
    const Pending& flight = flights_[slot];
    options_.telemetry->trace().record(
        {.type = obs::TraceEventType::kFetchAttemptEnd,
         .ts = r.time,
         .tile = flight.request.id.key.tile,
         .chunk = flight.request.id.key.index,
         .quality = flight.request.id.level,
         .path = trace_path_,
         .bytes = r.completed() ? bytes : 0,
         .urgent = flight.request.urgent,
         .value = static_cast<double>(flight.attempts),
         .request = flight.request.request_id,
         .parent = flight.request.parent_id});
  }
  // The attempt keeps its slot through this callback, which may dispatch.
  if (on_attempt_settled) on_attempt_settled(r);
  if (metrics.in_flight != nullptr) metrics.in_flight->set(in_flight());
  if (r.completed()) {
    Pending flight = release(slot);
    bytes_fetched_ += bytes;
    // Small tile objects are RTT-dominated; measure from the start of data
    // flow, and let the aggregate estimator fold in concurrency.
    estimator_.record(started + source_.rtt(), r.time, bytes);
    if (metrics.bytes != nullptr) metrics.bytes->add(bytes);
    if (flight.attempts > 0 && metrics.recovery.recovered_requests != nullptr) {
      metrics.recovery.recovered_requests->increment();
      metrics.recovery.recovery_latency_ms->observe(
          sim::to_milliseconds(r.time - flight.first_dispatched));
    }
    if (flight.request.on_done) {
      flight.request.on_done(r.time, FetchOutcome::kDelivered);
    }
  } else if (r.status == net::TransferStatus::kCancelled) {
    // Only our own deadline timeout cancels transfers.
    Pending flight = release(slot);
    settle_undelivered(flight, r.time, FetchOutcome::kTimedOut);
  } else {
    // Injected fault (kFailed): retry with exponential backoff while the
    // budget and the deadline both allow it.
    Pending& flight = flights_[slot];
    const sim::Duration backoff = retry_backoff(flight.attempts + 1);
    const bool budget_left =
        retry_allowed(options_.recovery, flight.request, flight.attempts);
    if (budget_left && r.time + backoff < flight.request.deadline) {
      // The retry waits out its backoff in the same slot.
      ++flight.attempts;
      if (metrics.recovery.retries != nullptr) metrics.recovery.retries->increment();
      ++retry_waiting_;
      source_.simulator().schedule_after(backoff, [this, alive = alive_, slot] {
        if (!*alive) return;
        --retry_waiting_;
        Pending retry = release(slot);
        retry.enqueued = source_.simulator().now();
        FetchQueue& target = route_retry ? route_retry() : *this;
        target.insert(std::move(retry));
        target.pump();
      });
    } else {
      Pending failed = release(slot);
      settle_undelivered(failed, r.time,
                         budget_left ? FetchOutcome::kTimedOut : FetchOutcome::kFailed);
    }
  }
  pump();
}

void FetchQueue::settle_undelivered(Pending& pending, sim::Time when,
                                    FetchOutcome outcome) {
  if (outcome == FetchOutcome::kFailed &&
      metrics.recovery.failed_requests != nullptr) {
    metrics.recovery.failed_requests->increment();
  }
  if (outcome == FetchOutcome::kTimedOut && metrics.recovery.timeouts != nullptr) {
    metrics.recovery.timeouts->increment();
  }
  if (pending.request.on_done) pending.request.on_done(when, outcome);
}

SingleLinkTransport::SingleLinkTransport(net::ChunkSource& source,
                                         TransportOptions options)
    : options_(std::move(options)), queue_(source, options_, /*trace_path=*/-1) {
  validate(options_.recovery);
  if (options_.telemetry != nullptr) {
    obs::MetricsRegistry& m = options_.telemetry->metrics();
    requests_metric_ = &m.counter("transport.requests");
    queue_.metrics.bytes = &m.counter("transport.bytes");
    queue_.metrics.queue_wait_ms = &m.histogram("transport.queue_wait_ms");
    queue_.metrics.in_flight = &m.gauge("transport.in_flight");
    // Recovery metrics exist iff recovery is on, so fault-free worlds keep
    // their exact pre-fault metric set.
    if (options_.recovery.enabled) {
      queue_.metrics.recovery.bind(*options_.telemetry, "transport");
    }
  }
}

void SingleLinkTransport::fetch(ChunkRequest request) {
  if (request.bytes <= 0) throw std::invalid_argument("fetch: non-positive bytes");
  if (options_.telemetry != nullptr) {
    requests_metric_->increment();
    // Sessions assign ids at dispatch; a bare transport (benches, tests)
    // assigns here so attempt spans always have a request to nest under.
    if (request.request_id == 0) {
      request.request_id = options_.telemetry->next_request_id();
    }
  }
  const std::size_t cls = request.urgent ? 0 : 1;
  queue_.submit(std::move(request), cls, next_seq_++, /*best_effort=*/false);
}

}  // namespace sperke::core
