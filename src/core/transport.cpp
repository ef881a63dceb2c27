#include "core/transport.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sperke::core {

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
  if (policy.max_retries < 0) {
    throw std::invalid_argument("RecoveryPolicy: negative retry budget");
  }
  if (!(policy.backoff_multiplier >= 1.0)) {  // also rejects NaN
    throw std::invalid_argument("RecoveryPolicy: backoff_multiplier < 1 or NaN");
  }
  if (policy.base_backoff < sim::Duration{0}) {
    throw std::invalid_argument("RecoveryPolicy: negative base_backoff");
  }
  if (policy.min_timeout < sim::Duration{0}) {
    throw std::invalid_argument("RecoveryPolicy: negative min_timeout");
  }
  if (policy.path_failure_threshold < 1) {
    throw std::invalid_argument("RecoveryPolicy: path_failure_threshold < 1");
  }
  if (policy.probe_interval <= sim::Duration{0}) {
    throw std::invalid_argument("RecoveryPolicy: probe_interval <= 0");
  }
}

sim::Duration retry_backoff(const RecoveryPolicy& policy, int retry_number) {
  double scale = 1.0;
  for (int i = 1; i < retry_number; ++i) scale *= policy.backoff_multiplier;
  return sim::seconds(sim::to_seconds(policy.base_backoff) * scale);
}

bool retry_allowed(const RecoveryPolicy& policy, const ChunkRequest& request,
                   int attempts) {
  if (!policy.enabled || attempts >= policy.max_retries) return false;
  // Abandon OOS first: regular out-of-sight prefetch never competes with
  // FoV traffic for retry capacity.
  if (policy.abandon_oos && request.spatial == abr::SpatialClass::kOos &&
      !request.urgent) {
    return false;
  }
  return true;
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
  queue.insert(it, std::move(pending));
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
    Pending pending = std::move(queue->front());
    queue->pop_front();
    const sim::Time now = source_.simulator().now();
    // Best-effort requests that already blew their deadline are dropped
    // before wasting capacity.
    if (pending.best_effort && pending.request.deadline <= now) {
      load_bytes_ -= pending.request.bytes;
      ++dropped_best_effort_;
      if (metrics.dropped != nullptr) metrics.dropped->increment();
      if (pending.request.on_done) pending.request.on_done(now, FetchOutcome::kDropped);
      continue;
    }
    // A retry never starts at or past the playback deadline: fetching a
    // chunk the player has already given up on only wastes capacity.
    if (pending.attempts > 0 && pending.request.deadline <= now) {
      load_bytes_ -= pending.request.bytes;
      settle_undelivered(pending, now, FetchOutcome::kTimedOut);
      continue;
    }
    dispatch(std::move(pending), now);
  }
}

void FetchQueue::dispatch(Pending pending, sim::Time now) {
  ++active_;
  if (metrics.queue_wait_ms != nullptr) {
    metrics.queue_wait_ms->observe(sim::to_milliseconds(now - pending.enqueued));
  }
  if (pending.attempts == 0) pending.first_dispatched = now;
  pending.settled = false;
  auto flight = std::make_shared<Pending>(std::move(pending));
  const ChunkRequest& request = flight->request;
  if (options_.telemetry != nullptr) {
    options_.telemetry->trace().record(
        {.type = obs::TraceEventType::kFetchAttemptStart,
         .ts = now,
         .tile = request.id.tile,
         .chunk = request.id.chunk,
         .quality = request.id.level(),
         .path = trace_path_,
         .bytes = request.bytes,
         .urgent = request.urgent,
         .value = static_cast<double>(flight->attempts),
         .request = request.request_id,
         .parent = request.parent_id});
  }
  // HTTP/2-style stream weights: urgent chunks outweigh regular ones,
  // and within a class FoV outweighs OOS (Table 1).
  const double weight = (request.urgent ? 4.0 : 1.0) *
                        (request.spatial == abr::SpatialClass::kFov ? 2.0 : 1.0);
  const net::FetchId id = source_.fetch(
      {.id = request.id,
       .bytes = request.bytes,
       .weight = weight,
       .deadline = request.deadline},
      [this, alive = alive_, flight, now](const net::TransferResult& r) {
        if (*alive) on_attempt_done(flight, now, r);
      });
  if (options_.recovery.enabled) {
    // Deadline-derived timeout on the in-flight transfer. The min_timeout
    // floor keeps already-late emergency fetches (deadline == now) alive
    // long enough to have a chance.
    const sim::Time timeout_at =
        std::max(request.deadline, now + options_.recovery.min_timeout);
    source_.simulator().schedule_at(timeout_at, [this, alive = alive_, flight, id] {
      if (!*alive || flight->settled) return;
      source_.cancel(id);  // fires the kCancelled completion synchronously
    });
  }
}

void FetchQueue::on_attempt_done(const std::shared_ptr<Pending>& flight,
                                 sim::Time started, const net::TransferResult& r) {
  flight->settled = true;
  --active_;
  const std::int64_t bytes = flight->request.bytes;
  load_bytes_ -= bytes;
  if (options_.telemetry != nullptr) {
    options_.telemetry->trace().record(
        {.type = obs::TraceEventType::kFetchAttemptEnd,
         .ts = r.time,
         .tile = flight->request.id.tile,
         .chunk = flight->request.id.chunk,
         .quality = flight->request.id.level(),
         .path = trace_path_,
         .bytes = r.completed() ? bytes : 0,
         .urgent = flight->request.urgent,
         .value = static_cast<double>(flight->attempts),
         .request = flight->request.request_id,
         .parent = flight->request.parent_id});
  }
  if (on_attempt_settled) on_attempt_settled(r);
  if (metrics.in_flight != nullptr) metrics.in_flight->set(in_flight());
  if (r.completed()) {
    bytes_fetched_ += bytes;
    // Small tile objects are RTT-dominated; measure from the start of data
    // flow, and let the aggregate estimator fold in concurrency.
    estimator_.record(started + source_.rtt(), r.time, bytes);
    if (metrics.bytes != nullptr) metrics.bytes->add(bytes);
    if (flight->attempts > 0 && metrics.recovery.recovered_requests != nullptr) {
      metrics.recovery.recovered_requests->increment();
      metrics.recovery.recovery_latency_ms->observe(
          sim::to_milliseconds(r.time - flight->first_dispatched));
    }
    if (flight->request.on_done) {
      flight->request.on_done(r.time, FetchOutcome::kDelivered);
    }
  } else if (r.status == net::TransferStatus::kCancelled) {
    // Only our own deadline timeout cancels transfers.
    settle_undelivered(*flight, r.time, FetchOutcome::kTimedOut);
  } else {
    // Injected fault (kFailed): retry with exponential backoff while the
    // budget and the deadline both allow it.
    const sim::Duration backoff =
        retry_backoff(options_.recovery, flight->attempts + 1);
    const bool budget_left =
        retry_allowed(options_.recovery, flight->request, flight->attempts);
    if (budget_left && r.time + backoff < flight->request.deadline) {
      ++flight->attempts;
      if (metrics.recovery.retries != nullptr) metrics.recovery.retries->increment();
      ++retry_waiting_;
      source_.simulator().schedule_after(backoff, [this, alive = alive_, flight] {
        if (!*alive) return;
        --retry_waiting_;
        flight->enqueued = source_.simulator().now();
        FetchQueue& target = route_retry ? route_retry() : *this;
        target.insert(std::move(*flight));
        target.pump();
      });
    } else {
      settle_undelivered(*flight, r.time,
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
