// One CDN edge: a byte-budgeted chunk cache in front of a coalescing
// origin, and the ChunkSource adapter that routes a client link group
// through it (DESIGN.md §15).
//
// Topology per fetch:
//
//   hit   client <-- access link -- edge cache
//   miss  client <-- access link -- edge <-- backhaul link -- origin
//
// A hit serves immediately over the requester's access link at the
// transport's stream weight. A miss first pulls the object over the shared
// backhaul (coalesced across concurrent requesters by the Origin), inserts
// it into the cache once, then serves each requester over their own access
// link. Backhaul faults propagate to the client as kFailed with 0 bytes —
// the transport's ordinary retry machinery takes it from there.
//
// Crowd-driven warming (paper §3.2): before viewers arrive, the per-chunk
// top-N tiles by hmp::ViewingHeatmap probability are preloaded until the
// byte budget is exhausted, so a flash crowd's first requests already hit.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "cdn/cache.h"
#include "cdn/origin.h"
#include "hmp/heatmap.h"
#include "media/chunk.h"
#include "media/video_model.h"
#include "net/chunk_source.h"
#include "net/link.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace sperke::cdn {

// Plain mirror of the cdn.edge.* counters, available without telemetry.
struct EdgeStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t coalesced = 0;  // misses that joined an in-flight transfer
  std::int64_t evictions = 0;
  std::int64_t warmed = 0;  // objects preloaded from the crowd heatmap
};

// What to preload per temporal chunk: the AVC copy at `level` of the top
// `tiles_per_chunk` tiles by crowd probability (ties broken by ascending
// tile id).
struct WarmSpec {
  int tiles_per_chunk = 0;
  std::int32_t level = 0;
};

class Edge {
 public:
  // `backhaul` must outlive the edge; `telemetry` (nullable) receives the
  // cdn.edge.* counters and, via the owned Origin, cdn.origin.egress_bytes.
  Edge(net::Link& backhaul, const EdgeCacheConfig& cache_config,
       obs::Telemetry* telemetry);
  Edge(const Edge&) = delete;
  Edge& operator=(const Edge&) = delete;

  // Lookup-with-bookkeeping: counts a hit (touching the cache entry) or a
  // miss. Called once per client fetch by EdgeSource.
  bool lookup(const net::ChunkId& id);

  // Forward a miss to the origin (counting coalesced joins).
  Origin::Ticket fetch_from_origin(const net::ChunkId& id, std::int64_t bytes,
                                   double weight, net::TransferCallback on_done);

  // Deterministically preload the crowd's favourite tiles (chunk-ascending,
  // probability-descending) until the next object would not fit. Returns
  // the number of objects warmed.
  int warm(const media::VideoModel& video, const hmp::ViewingHeatmap& crowd,
           const WarmSpec& spec);

  [[nodiscard]] EdgeCache& cache() { return cache_; }
  [[nodiscard]] Origin& origin() { return origin_; }
  [[nodiscard]] const EdgeStats& stats() const { return stats_; }

 private:
  EdgeCache cache_;
  Origin origin_;
  EdgeStats stats_;
  obs::Counter* hits_metric_ = nullptr;
  obs::Counter* misses_metric_ = nullptr;
  obs::Counter* evictions_metric_ = nullptr;
  obs::Counter* coalesced_metric_ = nullptr;
  obs::Counter* warmed_metric_ = nullptr;
};

// ChunkSource that fetches through an Edge: the seam core transports plug
// into when the world has a CDN tier. Several EdgeSources (one per client
// link group) may share one Edge — that is exactly how sessions share a
// cache. `access` carries the final hop to this source's clients.
class EdgeSource final : public net::ChunkSource {
 public:
  // Both must outlive the source.
  EdgeSource(net::Link& access, Edge& edge);
  ~EdgeSource() override;
  EdgeSource(const EdgeSource&) = delete;
  EdgeSource& operator=(const EdgeSource&) = delete;

  net::FetchId fetch(const net::FetchSpec& spec,
                     net::TransferCallback on_done) override;
  bool cancel(net::FetchId id) override;

  // Client-side first-byte latency: the access hop. (A miss pays the
  // backhaul on top; the transport's aggregate estimator absorbs that as
  // ordinary goodput variance.)
  [[nodiscard]] sim::Duration rtt() const override { return access_.rtt(); }
  [[nodiscard]] sim::Simulator& simulator() override {
    return access_.simulator();
  }

  [[nodiscard]] Edge& edge() { return edge_; }

 private:
  struct Pending {
    bool serving = false;       // true once bytes flow on the access link
    net::FetchId serve_id = 0;  // access transfer (serving phase)
    Origin::Ticket ticket = 0;  // origin waiter (miss phase)
  };

  void serve(net::FetchId id, const net::FetchSpec& spec,
             net::TransferCallback on_done);

  net::Link& access_;
  Edge& edge_;
  std::map<net::FetchId, Pending> pending_;
  net::FetchId next_id_ = 1;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sperke::cdn
