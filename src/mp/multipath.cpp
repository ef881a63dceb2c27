#include "mp/multipath.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace sperke::mp {
namespace {

// Static path quality used by the content-aware policy: usable rate
// (capacity tempered by the Mathis cap), discounted by latency.
double quality_of(const net::Link& link) {
  const double rate = std::min(link.capacity_kbps_now(), link.mathis_cap_kbps());
  const double rtt_penalty = 1.0 + sim::to_seconds(link.rtt()) * 5.0;
  return rate / rtt_penalty;
}

}  // namespace

std::size_t MinRttScheduler::pick(const core::ChunkRequest& request,
                                  const std::vector<PathState>& paths) {
  (void)request;  // content-agnostic by definition
  // Earliest-available path: smallest drain time of the queued bytes.
  std::size_t best = 0;
  double best_drain = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const double rate =
        std::max(paths[i].estimated_kbps,
                 std::min(paths[i].link->capacity_kbps_now(),
                          paths[i].link->mathis_cap_kbps()));
    const double drain =
        rate > 0.0
            ? static_cast<double>(paths[i].queued_bytes) * 8.0 / (rate * 1000.0) +
                  sim::to_seconds(paths[i].link->rtt())
            : std::numeric_limits<double>::infinity();
    if (drain < best_drain) {
      best_drain = drain;
      best = i;
    }
  }
  return best;
}

std::size_t RoundRobinScheduler::pick(const core::ChunkRequest& request,
                                      const std::vector<PathState>& paths) {
  (void)request;
  const std::size_t pick = next_ % paths.size();
  ++next_;
  return pick;
}

std::size_t SinglePathScheduler::pick(const core::ChunkRequest& request,
                                      const std::vector<PathState>& paths) {
  (void)request;
  if (index_ >= paths.size()) throw std::out_of_range("SinglePathScheduler: bad index");
  return index_;
}

namespace {

// Earliest-available path by queue drain time (the aggregation choice).
std::size_t earliest_available(const std::vector<PathState>& paths) {
  std::size_t best = 0;
  double best_drain = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const double rate = std::max(paths[i].estimated_kbps, paths[i].quality_score);
    const double drain =
        rate > 0.0
            ? static_cast<double>(paths[i].queued_bytes) * 8.0 / (rate * 1000.0) +
                  sim::to_seconds(paths[i].link->rtt())
            : std::numeric_limits<double>::infinity();
    if (drain < best_drain) {
      best_drain = drain;
      best = i;
    }
  }
  return best;
}

}  // namespace

std::size_t ContentAwareScheduler::pick(const core::ChunkRequest& request,
                                        const std::vector<PathState>& paths) {
  // Strategic assignment (§3.3):
  //  * urgent chunks ride the single best path — lowest delivery risk;
  //  * regular FoV chunks aggregate across all paths (earliest available),
  //    still with reliable delivery;
  //  * OOS prefetch is sacrificed to the worst path, best-effort, so it
  //    can never delay FoV traffic.
  std::size_t best = 0, worst = 0;
  for (std::size_t i = 1; i < paths.size(); ++i) {
    if (paths[i].quality_score > paths[best].quality_score) best = i;
    if (paths[i].quality_score < paths[worst].quality_score) worst = i;
  }
  const PriorityClass priority = classify(request);
  if (priority.temporal == TemporalClass::kUrgent) return best;
  if (priority.spatial == abr::SpatialClass::kFov) {
    return earliest_available(paths);
  }
  return worst;
}

bool ContentAwareScheduler::best_effort(const core::ChunkRequest& request) const {
  // OOS prefetches are delivered best-effort: if they cannot make their
  // deadline they are dropped instead of delaying later chunks (§3.3).
  return request.spatial == abr::SpatialClass::kOos && !request.urgent;
}

std::unique_ptr<PathScheduler> make_path_scheduler(std::string_view name) {
  if (name == "minrtt") return std::make_unique<MinRttScheduler>();
  if (name == "round-robin") return std::make_unique<RoundRobinScheduler>();
  if (name == "content-aware") return std::make_unique<ContentAwareScheduler>();
  throw std::invalid_argument("unknown path scheduler: " + std::string(name));
}

MultipathTransport::MultipathTransport(sim::Simulator& simulator,
                                       std::vector<net::Link*> links,
                                       std::unique_ptr<PathScheduler> scheduler,
                                       core::TransportOptions options)
    : simulator_(simulator),
      scheduler_(std::move(scheduler)),
      options_(std::move(options)),
      telemetry_(options_.telemetry) {
  if (links.empty()) throw std::invalid_argument("MultipathTransport: no links");
  if (!scheduler_) throw std::invalid_argument("MultipathTransport: null scheduler");
  core::validate(options_.recovery);
  for (net::Link* link : links) {
    if (link == nullptr) throw std::invalid_argument("MultipathTransport: null link");
    const std::size_t index = paths_.size();
    Path& path = paths_.emplace_back(*link, options_, static_cast<std::int32_t>(index));
    path.queue.on_attempt_settled = [this, index](const net::TransferResult& r) {
      on_attempt_settled(index, r);
    };
    path.queue.route_retry = [this, index]() -> core::FetchQueue& {
      return route_retry(index);
    };
    if (telemetry_ != nullptr) {
      // "mp.pathN.*": a fixed suffix set under a path-indexed prefix, still
      // within the [a-z0-9_.]+ name style sperke_lint enforces.
      const std::string prefix = "mp.path" + std::to_string(index);
      path.requests_metric = &telemetry_->metrics().counter(prefix + ".requests");  // sperke-lint: allow(metric-name)
      path.queue.metrics.bytes = &telemetry_->metrics().counter(prefix + ".bytes");  // sperke-lint: allow(metric-name)
      if (options_.recovery.enabled) {
        path.down_events_metric =
            &telemetry_->metrics().counter(prefix + ".down_events");  // sperke-lint: allow(metric-name)
      }
    }
  }
  if (telemetry_ != nullptr) {
    for (std::size_t r = 0; r < class_metrics_.size(); ++r) {
      class_metrics_[r] =
          &telemetry_->metrics().counter("mp.class" + std::to_string(r) +
                                         ".requests");
    }
    obs::Counter* dropped = &telemetry_->metrics().counter("mp.dropped_best_effort");
    // Recovery metrics exist iff recovery is on, so fault-free worlds keep
    // their exact pre-fault metric set.
    core::RecoveryMetrics recovery;
    if (options_.recovery.enabled) {
      recovery.bind(*telemetry_, "mp");
      failovers_metric_ = &telemetry_->metrics().counter("mp.failovers");
      path_downtime_metric_ = &telemetry_->metrics().histogram("mp.path_downtime_s");
    }
    for (Path& path : paths_) {
      path.queue.metrics.dropped = dropped;
      path.queue.metrics.recovery = recovery;
    }
  }
  stats_.requests_per_path.assign(paths_.size(), 0);
}

MultipathTransport::~MultipathTransport() { *alive_ = false; }

std::vector<PathState> MultipathTransport::snapshot() const {
  std::vector<PathState> out;
  out.reserve(paths_.size());
  for (const Path& path : paths_) {
    out.push_back({.link = &path.link,
                   .estimated_kbps = path.queue.estimated_kbps(),
                   .queued_bytes = path.queue.load_bytes(),
                   .queued_requests = path.queue.active() +
                                      static_cast<int>(path.queue.queued()),
                   .quality_score = quality_of(path.link)});
  }
  return out;
}

void MultipathTransport::fetch(core::ChunkRequest request) {
  if (request.bytes <= 0) throw std::invalid_argument("fetch: non-positive bytes");
  if (telemetry_ != nullptr && request.request_id == 0) {
    // Sessions assign ids at dispatch; a bare transport assigns here so
    // attempt spans always have a request to nest under.
    request.request_id = telemetry_->next_request_id();
  }
  const std::size_t cls = static_cast<std::size_t>(rank(classify(request)));
  ++stats_.class_counts[cls];
  std::size_t index = scheduler_->pick(request, snapshot());
  if (index >= paths_.size()) throw std::out_of_range("scheduler picked bad path");
  // Route around a path currently declared down (recovery only; without
  // recovery no path is ever down).
  if (paths_[index].queue.paused()) {
    const std::size_t up = best_up_path();
    if (up < paths_.size()) index = up;
  }
  ++stats_.requests_per_path[index];
  if (telemetry_ != nullptr) {
    class_metrics_[cls]->increment();
    paths_[index].requests_metric->increment();
    telemetry_->trace().record(
        {.type = obs::TraceEventType::kPathAssigned,
         .ts = simulator_.now(),
         .tile = request.id.tile,
         .chunk = request.id.chunk,
         .quality = request.id.level(),
         .path = static_cast<std::int32_t>(index),
         .bytes = request.bytes,
         .urgent = request.urgent,
         .value = static_cast<double>(cls),
         .request = request.request_id,
         .parent = request.parent_id});
  }
  const bool best_effort = scheduler_->best_effort(request);
  paths_[index].queue.submit(std::move(request), cls, next_seq_++, best_effort);
}

std::size_t MultipathTransport::best_up_path() const {
  std::size_t best = paths_.size();
  double best_score = -1.0;
  for (std::size_t i = 0; i < paths_.size(); ++i) {
    if (paths_[i].queue.paused()) continue;
    const double score = quality_of(paths_[i].link);
    if (score > best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

void MultipathTransport::on_attempt_settled(std::size_t path_index,
                                            const net::TransferResult& result) {
  Path& path = paths_[path_index];
  if (result.completed()) {
    path.consecutive_failures = 0;
    return;
  }
  if (result.status == net::TransferStatus::kCancelled) return;  // a timeout
  ++path.consecutive_failures;
  if (options_.recovery.enabled && !path.queue.paused() &&
      (path.consecutive_failures >= options_.recovery.path_failure_threshold ||
       path.link.in_outage())) {
    mark_down(path_index);
  }
}

core::FetchQueue& MultipathTransport::route_retry(std::size_t path_index) {
  if (paths_[path_index].queue.paused()) {
    const std::size_t up = best_up_path();
    if (up < paths_.size()) {
      count_failovers(1);
      return paths_[up].queue;
    }
  }
  return paths_[path_index].queue;
}

void MultipathTransport::count_failovers(int moved) {
  stats_.failovers += moved;
  if (failovers_metric_ != nullptr) failovers_metric_->add(moved);
}

void MultipathTransport::mark_down(std::size_t path_index) {
  Path& path = paths_[path_index];
  path.queue.set_paused(true);
  path.down_since = simulator_.now();
  ++stats_.path_down_events;
  if (path.down_events_metric != nullptr) path.down_events_metric->increment();
  // Fail queued FoV/urgent work (Table 1 ranks 0-2) over to the best
  // surviving path; queued OOS prefetch waits for recovery (abandon OOS
  // first).
  const std::size_t up = best_up_path();
  if (up < paths_.size()) count_failovers(path.queue.move_queued(paths_[up].queue, 3));
  simulator_.schedule_after(options_.recovery.probe_interval,
                            [this, alive = alive_, path_index] {
                              if (!*alive) return;
                              probe_path(path_index);
                            });
}

void MultipathTransport::probe_path(std::size_t path_index) {
  Path& path = paths_[path_index];
  if (!path.queue.paused()) return;
  if (path.link.in_outage()) {
    // Still dark; probe again later.
    simulator_.schedule_after(options_.recovery.probe_interval,
                              [this, alive = alive_, path_index] {
                                if (!*alive) return;
                                probe_path(path_index);
                              });
    return;
  }
  // Probation: one more failure sends the path straight back down.
  path.consecutive_failures =
      std::max(0, options_.recovery.path_failure_threshold - 1);
  const double downtime_s = sim::to_seconds(simulator_.now() - path.down_since);
  stats_.path_downtime_s += downtime_s;
  if (path_downtime_metric_ != nullptr) path_downtime_metric_->observe(downtime_s);
  path.queue.set_paused(false);
}

MultipathStats MultipathTransport::stats() const {
  MultipathStats stats = stats_;
  for (const Path& path : paths_) {
    stats.bytes_per_path.push_back(path.queue.bytes_fetched());
    stats.dropped_best_effort += path.queue.dropped_best_effort();
  }
  return stats;
}

double MultipathTransport::estimated_kbps() const {
  // Aggregate: sum of per-path estimates, falling back to link capacity for
  // paths that have not carried traffic yet.
  double total = 0.0;
  for (const Path& path : paths_) {
    const double est = path.queue.estimated_kbps();
    total += est > 0.0 ? est
                       : std::min(path.link.capacity_kbps_now(),
                                  path.link.mathis_cap_kbps());
  }
  return total;
}

int MultipathTransport::in_flight() const {
  int total = 0;
  for (const Path& path : paths_) total += path.queue.in_flight();
  return total;
}

std::int64_t MultipathTransport::bytes_fetched() const {
  std::int64_t total = 0;
  for (const Path& path : paths_) total += path.queue.bytes_fetched();
  return total;
}

}  // namespace sperke::mp
