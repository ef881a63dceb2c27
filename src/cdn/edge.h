// One CDN edge: a byte-budgeted chunk cache, the backhaul to the origin
// with its coalesced in-flight fills, and the ChunkSource adapter that
// routes a client link group through it (DESIGN.md §15).
//
// Topology per fetch:
//
//   hit   client <-- access link -- edge cache
//   miss  client <-- access link -- edge <-- backhaul link -- origin
//
// A hit serves immediately over the requester's access link at the
// transport's stream weight. A miss joins the fill for its
// media::ChunkAddress, starting one over the shared backhaul only when none
// is in flight, so concurrent misses spend backhaul bytes once. When the
// fill settles the edge admits the object to its cache once, then fires the
// fill's waiters in join order; each completed waiter is served over its
// own access link.
// Backhaul faults propagate to the client as kFailed with 0 bytes — the
// transport's ordinary retry machinery takes it from there.
//
// Crowd-driven warming (paper §3.2): before viewers arrive, the per-chunk
// top-N tiles by hmp::ViewingHeatmap probability are preloaded until the
// byte budget is exhausted, so a flash crowd's first requests already hit.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cdn/cache.h"
#include "hmp/heatmap.h"
#include "media/chunk.h"
#include "media/video_model.h"
#include "net/chunk_source.h"
#include "net/link.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace sperke::cdn {

class EdgeSource;

// Plain mirror of the cdn.* counters, available without telemetry.
struct EdgeStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t coalesced = 0;  // misses that joined an in-flight fill
  std::int64_t evictions = 0;
  std::int64_t warmed = 0;        // objects preloaded from the crowd heatmap
  std::int64_t egress_bytes = 0;  // backhaul bytes pulled from the origin
};

class Edge {
 public:
  // `backhaul` must outlive the edge; `telemetry` (nullable) receives
  // cdn.origin.egress_bytes and the cdn.edge.* counters. Throws
  // std::invalid_argument when cache_capacity_bytes <= 0.
  Edge(net::Link& backhaul, std::int64_t cache_capacity_bytes,
       obs::Telemetry* telemetry);
  ~Edge();
  Edge(const Edge&) = delete;
  Edge& operator=(const Edge&) = delete;

  // Deterministically preload the AVC copy at `level` of the crowd's top
  // `tiles_per_chunk` tiles per chunk (chunk-ascending, probability-
  // descending, ties by ascending tile id) until the next object would not
  // fit. Returns the number of objects warmed. Throws std::invalid_argument
  // when the heatmap's tile count differs from the video's.
  int warm(const media::VideoModel& video, const hmp::ViewingHeatmap& crowd,
           int tiles_per_chunk, std::int32_t level);

  [[nodiscard]] EdgeCache& cache() { return cache_; }
  [[nodiscard]] const EdgeStats& stats() const { return stats_; }

 private:
  friend class EdgeSource;

  static constexpr std::uint32_t kNoWaiter = 0xffffffffU;

  // One EdgeSource fetch waiting on a fill, keyed by (source, fetch). It
  // lives in a slot of waiters_, chained to the next waiter of its fill.
  struct Waiter {
    const EdgeSource* source = nullptr;
    net::FetchId fetch = 0;
    net::TransferCallback on_done;
    std::uint32_t next = kNoWaiter;
  };
  // One backhaul transfer and the chain of everyone waiting on it, in join
  // order (kNoWaiter = none left).
  struct Fill {
    media::ChunkAddress id;
    std::int64_t bytes = 0;
    std::uint32_t head = kNoWaiter;
    std::uint32_t tail = kNoWaiter;
  };

  // Counts a hit (touching the cache entry) or a miss.
  bool lookup(const media::ChunkAddress& id);
  // Join the fill for `id`, starting its backhaul transfer (at `weight`)
  // when none is in flight. All joiners must agree on `bytes`.
  void join_fill(const media::ChunkAddress& id, std::int64_t bytes,
                 double weight, Waiter waiter);
  // Detach one waiter: fires its callback synchronously with kCancelled
  // (0 bytes) and returns true; false when it is not waiting on `id`'s
  // fill. The backhaul transfer keeps running for the cache's benefit.
  bool leave_fill(const media::ChunkAddress& id, const EdgeSource* source,
                  net::FetchId fetch);
  void settle(const media::ChunkAddress& id, const net::TransferResult& r);
  // The fill for `id` in fills_, or fills_.end().
  std::vector<Fill>::iterator find_fill(const media::ChunkAddress& id);
  // Move the callback out of waiter slot `slot` and free the slot.
  net::TransferCallback release_waiter(std::uint32_t slot);

  net::Link& backhaul_;
  obs::Counter* egress_metric_ = nullptr;
  obs::Counter* hits_metric_ = nullptr;
  obs::Counter* misses_metric_ = nullptr;
  obs::Counter* evictions_metric_ = nullptr;
  obs::Counter* coalesced_metric_ = nullptr;
  obs::Counter* warmed_metric_ = nullptr;
  EdgeCache cache_;
  // The fills in flight, unordered and only ever searched by id: a fill
  // lasts one backhaul transfer, so the table stays short.
  std::vector<Fill> fills_;
  // Every fill's waiters, by slot: a fill chains its own through
  // Waiter::next, so joining allocates nothing once the edge is warm. The
  // table only grows, to the edge's peak of concurrent waiters; a callback
  // may join and grow it, so no reference into it is held across one.
  std::vector<Waiter> waiters_;
  std::vector<std::uint32_t> free_waiters_;
  EdgeStats stats_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
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

 private:
  // One unsettled fetch. It owns the client's spec and callback; the
  // closures this source hands to the edge and the access link carry only
  // its id and slot, and take() the callback when they fire.
  struct Pending {
    net::FetchId id = 0;        // 0 = a free slot
    net::FetchId serve_id = 0;  // access transfer once bytes flow, else 0
    net::FetchSpec spec;        // spec.id names the fill a miss joins
    net::TransferCallback on_done;
  };

  // Serve the fetch `id`, in `slot`, from the cache over the access link.
  void serve(net::FetchId id, std::uint32_t slot);
  // Free the slot of the unsettled fetch `id` and return its client
  // callback, which the caller fires (empty when `id` already settled:
  // the slot is free, or a later fetch took it).
  net::TransferCallback take(net::FetchId id, std::uint32_t slot);

  net::Link& access_;
  Edge& edge_;
  // Every unsettled fetch in a stable slot, from fetch() until it settles
  // (the net::Link slot-table pattern). Slot order carries no meaning; the
  // table only grows, to the peak of this link group's unsettled fetches.
  std::vector<Pending> pending_;
  std::vector<std::uint32_t> free_pending_;
  net::FetchId next_id_ = 1;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sperke::cdn
