// Multipath streaming support (§3.3).
//
// Multipath is a scheduling decision over the Table 1 priority classes, not
// a second delivery engine: a MultipathTransport is one core::FetchQueue
// per network path (e.g. WiFi + LTE), each fetching straight from its
// net::Link, with class = rank(classify(request)).
// Paths are fully decoupled, so there is no cross-path head-of-line
// blocking by construction (the transport-layer benefit the paper notes).
// The pluggable PathScheduler decides which path serves each request:
//
//   * MinRttScheduler    — content-agnostic splitting: earliest-available
//                          path by queue drain time (the MPTCP baseline);
//   * RoundRobinScheduler— naive alternation;
//   * SinglePathScheduler— pin everything to one path;
//   * ContentAwareScheduler — the paper's proposal: FoV/urgent chunks ride
//                          the best path with reliable delivery; OOS chunks
//                          ride the secondary path *best-effort* — if an
//                          OOS chunk misses its deadline it is dropped
//                          rather than allowed to clog the path.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string_view>
#include <vector>

#include "core/transport.h"
#include "mp/priority.h"
#include "net/chunk_source.h"
#include "net/link.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace sperke::mp {

// Live view of one path, offered to the scheduler.
struct PathState {
  const net::Link* link = nullptr;
  double estimated_kbps = 0.0;   // per-path goodput estimate
  std::int64_t queued_bytes = 0; // waiting + in-flight bytes
  // Static quality score: higher is better (bandwidth-, loss-, rtt-aware).
  double quality_score = 0.0;
};

class PathScheduler {
 public:
  virtual ~PathScheduler() = default;
  // Return the index of the path that should carry `request`.
  [[nodiscard]] virtual std::size_t pick(const core::ChunkRequest& request,
                                         const std::vector<PathState>& paths) = 0;
  // Should this request be treated best-effort (droppable at deadline)?
  [[nodiscard]] virtual bool best_effort(const core::ChunkRequest& request) const {
    (void)request;
    return false;
  }
  [[nodiscard]] virtual std::string_view name() const = 0;
};

class MinRttScheduler final : public PathScheduler {
 public:
  [[nodiscard]] std::size_t pick(const core::ChunkRequest& request,
                                 const std::vector<PathState>& paths) override;
  [[nodiscard]] std::string_view name() const override { return "minrtt"; }
};

class RoundRobinScheduler final : public PathScheduler {
 public:
  [[nodiscard]] std::size_t pick(const core::ChunkRequest& request,
                                 const std::vector<PathState>& paths) override;
  [[nodiscard]] std::string_view name() const override { return "round-robin"; }

 private:
  std::size_t next_ = 0;
};

class SinglePathScheduler final : public PathScheduler {
 public:
  explicit SinglePathScheduler(std::size_t path_index) : index_(path_index) {}
  [[nodiscard]] std::size_t pick(const core::ChunkRequest& request,
                                 const std::vector<PathState>& paths) override;
  [[nodiscard]] std::string_view name() const override { return "single-path"; }

 private:
  std::size_t index_;
};

class ContentAwareScheduler final : public PathScheduler {
 public:
  [[nodiscard]] std::size_t pick(const core::ChunkRequest& request,
                                 const std::vector<PathState>& paths) override;
  [[nodiscard]] bool best_effort(const core::ChunkRequest& request) const override;
  [[nodiscard]] std::string_view name() const override { return "content-aware"; }
};

[[nodiscard]] std::unique_ptr<PathScheduler> make_path_scheduler(std::string_view name);

struct MultipathStats {
  std::vector<std::int64_t> bytes_per_path;
  std::vector<int> requests_per_path;
  int dropped_best_effort = 0;
  // Table 1 accounting: requests observed per priority class, indexed by
  // rank() (0..3).
  std::array<int, 4> class_counts{};
  // Failure-recovery accounting (zero unless RecoveryPolicy::enabled).
  int failovers = 0;         // requests moved to a surviving path
  int path_down_events = 0;  // times a path was declared down
  double path_downtime_s = 0.0;  // total down-time across paths (recovered)
};

class MultipathTransport final : public core::ChunkTransport {
 public:
  // Links must outlive the transport; all links must share one simulator.
  // `options.max_concurrent` is the per-path concurrency (default 2 per
  // path, tighter than the single-link default of 4); the optional
  // telemetry sink receives per-path assignment traces and per-class/
  // per-path counters. With options.recovery.enabled the transport detects
  // failed paths (consecutive failures or an outage signal), moves queued
  // FoV/urgent work and routes retries over to the best surviving path,
  // and probes down paths back into service (DESIGN.md §10). The path
  // queues handle everything else — dispatch order, timeouts, backoff
  // retry, best-effort drops — exactly as SingleLinkTransport's queue does.
  MultipathTransport(sim::Simulator& simulator, std::vector<net::Link*> links,
                     std::unique_ptr<PathScheduler> scheduler,
                     core::TransportOptions options = {.max_concurrent = 2,
                                                       .telemetry = nullptr,
                                                       .recovery = {}});
  ~MultipathTransport() override;

  void fetch(core::ChunkRequest request) override;
  [[nodiscard]] double estimated_kbps() const override;
  [[nodiscard]] int in_flight() const override;
  [[nodiscard]] std::int64_t bytes_fetched() const override;

  // bytes_per_path and dropped_best_effort are read off the path queues.
  [[nodiscard]] MultipathStats stats() const;
  [[nodiscard]] bool path_down(std::size_t path_index) const {
    return paths_.at(path_index).queue.paused();
  }

 private:
  struct Path {
    Path(net::Link& path_link, const core::TransportOptions& options,
         std::int32_t index)
        : link(path_link), queue(path_link, options, index) {}
    net::Link& link;
    core::FetchQueue queue;  // paused while the path is down
    obs::Counter* requests_metric = nullptr;  // set iff telemetry attached
    // Path-failure detection state (RecoveryPolicy::enabled only).
    int consecutive_failures = 0;
    sim::Time down_since{sim::kTimeZero};
    obs::Counter* down_events_metric = nullptr;
  };

  // Refill snapshot_ with every path's live state for the scheduler.
  const std::vector<PathState>& snapshot();
  // Attempt-settled hook of path `path_index`: path-failure detection.
  void on_attempt_settled(std::size_t path_index, const net::TransferResult& result);
  // Retry-routing hook of path `path_index`: a retry whose path went down
  // during its backoff fails over to the best surviving path.
  core::FetchQueue& route_retry(std::size_t path_index);
  // Declare `path_index` down, fail queued FoV/urgent work over to the best
  // surviving path, and start probing for recovery.
  void mark_down(std::size_t path_index);
  void probe_path(std::size_t path_index);
  void count_failovers(int moved);
  // Best up path by quality score, or paths_.size() if every path is down.
  [[nodiscard]] std::size_t best_up_path() const;

  sim::Simulator& simulator_;
  std::unique_ptr<PathScheduler> scheduler_;
  core::TransportOptions options_;
  std::deque<Path> paths_;  // a deque: path queues never move
  std::vector<PathState> snapshot_;  // reused by every fetch's pick()
  std::uint64_t next_seq_ = 0;  // one submission order across all paths
  MultipathStats stats_;
  obs::Telemetry* telemetry_ = nullptr;
  // Table 1 class counters, indexed by rank(); mirror stats_.class_counts.
  std::array<obs::Counter*, 4> class_metrics_{};
  obs::Counter* failovers_metric_ = nullptr;
  obs::Histogram* path_downtime_metric_ = nullptr;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sperke::mp
