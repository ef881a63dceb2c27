#include "cdn/edge.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/slots.h"

namespace sperke::cdn {

Edge::Edge(net::Link& backhaul, std::int64_t cache_capacity_bytes,
           obs::Telemetry* telemetry)
    : backhaul_(backhaul), cache_(cache_capacity_bytes) {
  if (telemetry != nullptr) {
    obs::MetricsRegistry& m = telemetry->metrics();
    egress_metric_ = &m.counter("cdn.origin.egress_bytes");
    hits_metric_ = &m.counter("cdn.edge.hits");
    misses_metric_ = &m.counter("cdn.edge.misses");
    evictions_metric_ = &m.counter("cdn.edge.evictions");
    coalesced_metric_ = &m.counter("cdn.edge.coalesced");
    warmed_metric_ = &m.counter("cdn.edge.warmed");
  }
}

Edge::~Edge() { *alive_ = false; }

bool Edge::lookup(const media::ChunkAddress& id) {
  if (cache_.touch(id)) {
    ++stats_.hits;
    if (hits_metric_ != nullptr) hits_metric_->increment();
    return true;
  }
  ++stats_.misses;
  if (misses_metric_ != nullptr) misses_metric_->increment();
  return false;
}

std::vector<Edge::Fill>::iterator Edge::find_fill(
    const media::ChunkAddress& id) {
  return std::find_if(fills_.begin(), fills_.end(),
                      [&id](const Fill& fill) { return fill.id == id; });
}

net::TransferCallback Edge::release_waiter(std::uint32_t slot) {
  Waiter& waiter = waiters_[slot];
  net::TransferCallback on_done = std::move(waiter.on_done);
  waiter = Waiter{};
  free_waiters_.push_back(slot);
  return on_done;
}

void Edge::join_fill(const media::ChunkAddress& id, std::int64_t bytes,
                     double weight, Waiter waiter) {
  const std::uint32_t slot = util::take_slot(waiters_, free_waiters_);
  waiters_[slot] = std::move(waiter);
  const auto it = find_fill(id);
  if (it != fills_.end()) {
    // Same address must mean same object: a size mismatch would silently
    // deliver the wrong byte count to whoever joined second.
    SPERKE_CHECK(it->bytes == bytes, "Edge: coalesced size mismatch (",
                 it->bytes, " vs ", bytes, ")");
    ++stats_.coalesced;
    if (coalesced_metric_ != nullptr) coalesced_metric_->increment();
    // Every waiter may have left the fill, which keeps running regardless.
    if (it->tail == kNoWaiter) {
      it->head = slot;
    } else {
      waiters_[it->tail].next = slot;
    }
    it->tail = slot;
    return;
  }
  fills_.push_back(Fill{.id = id, .bytes = bytes, .head = slot, .tail = slot});
  auto on_settled = [this, alive = alive_, id](const net::TransferResult& r) {
    if (*alive) settle(id, r);
  };
  static_assert(net::TransferCallback::fits_inline<decltype(on_settled)>);
  backhaul_.fetch({.id = id, .bytes = bytes, .weight = weight}, std::move(on_settled));
}

bool Edge::leave_fill(const media::ChunkAddress& id,
                      const EdgeSource* source, net::FetchId fetch) {
  const auto it = find_fill(id);
  if (it == fills_.end()) return false;
  std::uint32_t prev = kNoWaiter;
  for (std::uint32_t slot = it->head; slot != kNoWaiter;
       prev = slot, slot = waiters_[slot].next) {
    const Waiter& waiter = waiters_[slot];
    if (waiter.source != source || waiter.fetch != fetch) continue;
    if (prev == kNoWaiter) {
      it->head = waiter.next;
    } else {
      waiters_[prev].next = waiter.next;
    }
    if (it->tail == slot) it->tail = prev;
    net::TransferCallback cb = release_waiter(slot);
    // Mirror net::Link::cancel: the caller's callback fires synchronously
    // with kCancelled. The fill keeps running even with zero waiters left —
    // the cache still wants the bytes it paid for.
    if (cb) {
      cb(net::TransferResult{.status = net::TransferStatus::kCancelled,
                             .time = backhaul_.simulator().now(),
                             .bytes_delivered = 0});
    }
    return true;
  }
  return false;
}

void Edge::settle(const media::ChunkAddress& id,
                  const net::TransferResult& r) {
  const auto it = find_fill(id);
  SPERKE_CHECK(it != fills_.end(), "Edge: settle without a fill in flight");
  std::uint32_t slot = it->head;
  // Clear the fill *before* firing anyone: a waiter's callback may re-fetch
  // the same id (transport retry), which must start a fresh fill rather
  // than join the one that just settled. The detached chain stays off the
  // free list until each waiter fires, so no join can reuse its slots.
  if (it != fills_.end() - 1) *it = std::move(fills_.back());
  fills_.pop_back();
  stats_.egress_bytes += r.bytes_delivered;
  if (egress_metric_ != nullptr) egress_metric_->add(r.bytes_delivered);
  // Exactly-once cache fill, before any waiter fires, so a fetch issued
  // from a waiter already sees the object resident.
  if (r.completed()) {
    const int evicted = cache_.insert(id, r.bytes_delivered);
    if (evicted > 0) {
      stats_.evictions += evicted;
      if (evictions_metric_ != nullptr) evictions_metric_->add(evicted);
    }
  }
  while (slot != kNoWaiter) {
    const std::uint32_t next = waiters_[slot].next;
    net::TransferCallback cb = release_waiter(slot);
    if (cb) cb(r);
    slot = next;
  }
}

int Edge::warm(const media::VideoModel& video, const hmp::ViewingHeatmap& crowd,
               int tiles_per_chunk, std::int32_t level) {
  SPERKE_CHECK(tiles_per_chunk > 0,
               "Edge::warm: tiles_per_chunk must be positive");
  if (crowd.tile_count() != video.tile_count()) {
    throw std::invalid_argument("Edge::warm: heatmap/grid tile count mismatch");
  }
  const media::ChunkIndex chunks =
      std::min(video.chunk_count(), crowd.chunk_count());
  const int top_n = std::min(tiles_per_chunk, video.tile_count());
  int warmed = 0;
  // Preload one object; false = budget exhausted (stop warming entirely —
  // evicting here would churn what was just preloaded).
  const auto warm_object = [&](const media::ChunkAddress& address) {
    if (cache_.contains(address)) return true;
    const std::int64_t bytes = video.size_bytes(address);
    // Against the remaining budget: used + bytes could overflow.
    if (bytes > cache_.capacity_bytes() - cache_.used_bytes()) return false;
    cache_.insert(address, bytes);
    ++warmed;
    return true;
  };
  bool budget_left = true;
  std::vector<std::pair<double, geo::TileId>> ranked;
  for (media::ChunkIndex chunk = 0; chunk < chunks && budget_left; ++chunk) {
    const std::vector<double> probs = crowd.probabilities(chunk);
    ranked.clear();
    for (geo::TileId tile = 0; tile < video.tile_count(); ++tile) {
      ranked.emplace_back(probs[static_cast<std::size_t>(tile)], tile);
    }
    // Probability-descending, tile-ascending on ties: a total order, so the
    // warm set is a pure function of the heatmap snapshot.
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    for (int k = 0; k < top_n && budget_left; ++k) {
      const geo::TileId tile = ranked[static_cast<std::size_t>(k)].second;
      budget_left = warm_object({.key = {.tile = tile, .index = chunk},
                                 .encoding = media::Encoding::kAvc,
                                 .level = level});
    }
  }
  stats_.warmed += warmed;
  if (warmed_metric_ != nullptr && warmed > 0) warmed_metric_->add(warmed);
  return warmed;
}

EdgeSource::EdgeSource(net::Link& access, Edge& edge)
    : access_(access), edge_(edge) {}

EdgeSource::~EdgeSource() { *alive_ = false; }

net::TransferCallback EdgeSource::take(net::FetchId id, std::uint32_t slot) {
  Pending& pending = pending_[slot];
  if (pending.id != id) return nullptr;
  pending.id = 0;
  free_pending_.push_back(slot);
  return std::move(pending.on_done);
}

net::FetchId EdgeSource::fetch(const net::FetchSpec& spec,
                               net::TransferCallback on_done) {
  SPERKE_CHECK(spec.bytes > 0, "EdgeSource::fetch: non-positive bytes");
  const net::FetchId id = next_id_++;
  const std::uint32_t slot = util::take_slot(pending_, free_pending_);
  pending_[slot] = Pending{.id = id, .spec = spec, .on_done = std::move(on_done)};
  if (edge_.lookup(spec.id)) {
    serve(id, slot);
    return id;
  }
  auto on_filled = [this, alive = alive_, id, slot](const net::TransferResult& r) {
    if (!*alive) return;
    if (r.completed()) {
      serve(id, slot);
      return;
    }
    // Backhaul fault or our own cancel: nothing reached the client.
    net::TransferCallback client_done = take(id, slot);
    net::TransferResult client = r;
    client.bytes_delivered = 0;
    if (client_done) client_done(client);
  };
  static_assert(net::TransferCallback::fits_inline<decltype(on_filled)>);
  edge_.join_fill(spec.id, spec.bytes,  // same object => same size for every requester
                  spec.weight,
                  {.source = this, .fetch = id, .on_done = std::move(on_filled)});
  return id;
}

void EdgeSource::serve(net::FetchId id, std::uint32_t slot) {
  Pending& pending = pending_[slot];
  SPERKE_CHECK(pending.id == id, "EdgeSource::serve: pending entry lost");
  auto on_served = [this, alive = alive_, id, slot](const net::TransferResult& r) {
    if (!*alive) return;
    net::TransferCallback on_done = take(id, slot);
    if (on_done) on_done(r);
  };
  static_assert(net::TransferCallback::fits_inline<decltype(on_served)>);
  // A link never settles inside fetch(), so `pending` is still this fetch.
  pending.serve_id = access_.fetch(pending.spec, std::move(on_served));
}

bool EdgeSource::cancel(net::FetchId id) {
  const auto it = std::find_if(pending_.begin(), pending_.end(),
                               [id](const Pending& p) { return p.id == id; });
  if (it == pending_.end()) return false;
  if (it->serve_id != 0) {
    // Link::cancel fires the serve callback synchronously (kCancelled),
    // which frees the slot.
    return access_.cancel(it->serve_id);
  }
  // Waiting on a fill: detach our waiter. Edge::leave_fill fires our fill
  // callback synchronously with kCancelled, which frees the slot (hence
  // the copy of its address) and forwards kCancelled (0 bytes) to the
  // client — exactly the Link::cancel contract. The backhaul transfer keeps
  // running for the cache's benefit.
  const media::ChunkAddress fill = it->spec.id;
  return edge_.leave_fill(fill, this, id);
}

}  // namespace sperke::cdn
