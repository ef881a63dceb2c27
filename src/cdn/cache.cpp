#include "cdn/cache.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "util/check.h"

namespace sperke::cdn {

namespace {

constexpr std::array<std::string_view, 2> kCachePolicyNames = {"lru", "lfu"};

template <typename T>
void unlink(std::vector<T>& slab, std::uint32_t i) {
  slab[slab[i].prev].next = slab[i].next;
  slab[slab[i].next].prev = slab[i].prev;
}

template <typename T>
void link_before(std::vector<T>& slab, std::uint32_t i, std::uint32_t at) {
  slab[i].prev = slab[at].prev;
  slab[i].next = at;
  slab[slab[at].prev].next = i;
  slab[at].prev = i;
}

// A record off the spare ring at index 0, or a new one; either way linked
// to itself.
template <typename T>
std::uint32_t take(std::vector<T>& slab) {
  std::uint32_t i = slab[0].next;
  if (i == 0) {
    i = static_cast<std::uint32_t>(slab.size());
    slab.emplace_back();
  } else {
    unlink(slab, i);
  }
  slab[i].prev = slab[i].next = i;
  return i;
}

}  // namespace

std::span<const std::string_view> cache_policy_names() noexcept {
  return kCachePolicyNames;
}

CachePolicy parse_cache_policy(const std::string& name) {
  if (name == "lru") return CachePolicy::kLru;
  if (name == "lfu") return CachePolicy::kLfu;
  std::string valid;
  for (std::string_view n : cache_policy_names()) {
    if (!valid.empty()) valid += ", ";
    valid += n;
  }
  throw std::invalid_argument("parse_cache_policy: unknown cache policy \"" +
                              name + "\"; valid names: " + valid);
}

EdgeCache::EdgeCache(EdgeCacheConfig config)
    : config_(config), nodes_(1), lists_(2) {
  if (config_.capacity_bytes <= 0) {
    throw std::invalid_argument("EdgeCache: capacity_bytes must be positive");
  }
  lists_[kChain].prev = lists_[kChain].next = kChain;
}

// Victim order is ascending (rank, last use). Every touch and insert is a
// new latest use and appends at a ring's tail, so each list stays in
// last-use order and the victim heads the first list in the chain.
bool EdgeCache::touch(const net::ChunkId& id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  const std::uint32_t node = it->second;
  const std::uint32_t from = nodes_[node].list;
  const std::uint32_t to = config_.policy == CachePolicy::kLfu
                               ? list_after(from, lists_[from].rank + 1)
                               : from;
  unlink(nodes_, node);
  append(node, to);
  retire_if_empty(from);
  return true;
}

int EdgeCache::insert(const net::ChunkId& id, std::int64_t bytes) {
  SPERKE_CHECK(bytes > 0, "EdgeCache::insert: non-positive size ", bytes);
  if (touch(id)) return 0;
  if (bytes > config_.capacity_bytes) return -1;  // can never fit
  int evicted = 0;
  // Compare against the remaining budget: used + bytes could overflow.
  while (bytes > config_.capacity_bytes - used_bytes_) {
    evict_one();
    ++evicted;
  }
  const std::uint32_t node = take(nodes_);
  nodes_[node].id = id;
  nodes_[node].bytes = bytes;
  // A new object has the lowest rank there is: 1 under lfu, 0 under lru.
  append(node, list_after(kChain, config_.policy == CachePolicy::kLfu ? 1 : 0));
  index_.emplace(id, node);
  used_bytes_ += bytes;
  return evicted;
}

void EdgeCache::evict_one() {
  const std::uint32_t list = lists_[kChain].next;
  SPERKE_CHECK(list != kChain, "EdgeCache: eviction from empty cache");
  const std::uint32_t node = nodes_[lists_[list].ring].next;
  unlink(nodes_, node);
  retire_if_empty(list);
  const std::size_t erased = index_.erase(nodes_[node].id);
  SPERKE_CHECK(erased == 1, "EdgeCache: eviction index out of sync");
  used_bytes_ -= nodes_[node].bytes;
  link_before(nodes_, node, kSpares);
}

std::uint32_t EdgeCache::list_after(std::uint32_t after, std::uint64_t rank) {
  const std::uint32_t next = lists_[after].next;
  if (next != kChain && lists_[next].rank == rank) return next;
  const std::uint32_t list = take(lists_);
  if (lists_[list].ring == kSpares) {
    const std::uint32_t ring = take(nodes_);
    lists_[list].ring = ring;
  }
  lists_[list].rank = rank;
  link_before(lists_, list, next);
  return list;
}

void EdgeCache::append(std::uint32_t node, std::uint32_t list) {
  nodes_[node].list = list;
  link_before(nodes_, node, lists_[list].ring);
}

// An empty list leaves the chain, keeping its sentinel for reuse.
void EdgeCache::retire_if_empty(std::uint32_t list) {
  const std::uint32_t ring = lists_[list].ring;
  if (nodes_[ring].next != ring) return;
  unlink(lists_, list);
  link_before(lists_, list, kSpares);
}

std::vector<net::ChunkId> EdgeCache::resident() const {
  std::vector<net::ChunkId> ids;
  ids.reserve(index_.size());
  for (const auto& [id, node] : index_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace sperke::cdn
