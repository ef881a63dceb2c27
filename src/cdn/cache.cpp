#include "cdn/cache.h"

#include <array>
#include <stdexcept>

#include "util/check.h"

namespace sperke::cdn {

namespace {

constexpr std::array<std::string_view, 2> kCachePolicyNames = {"lru", "lfu"};

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

EdgeCache::EdgeCache(EdgeCacheConfig config) : config_(config) {
  if (config_.capacity_bytes <= 0) {
    throw std::invalid_argument("EdgeCache: capacity_bytes must be positive");
  }
}

EdgeCache::EvictKey EdgeCache::key_of(const net::ChunkId& id,
                                      const Entry& entry) const {
  return EvictKey{
      .rank = config_.policy == CachePolicy::kLfu ? entry.freq : 0,
      .seq = entry.seq,
      .id = id};
}

bool EdgeCache::touch(const net::ChunkId& id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  evict_order_.erase(key_of(id, it->second));
  it->second.seq = ++clock_;
  ++it->second.freq;
  evict_order_.insert(key_of(id, it->second));
  return true;
}

int EdgeCache::insert(const net::ChunkId& id, std::int64_t bytes) {
  SPERKE_CHECK(bytes > 0, "EdgeCache::insert: non-positive size ", bytes);
  if (touch(id)) return 0;
  if (bytes > config_.capacity_bytes) return -1;  // can never fit
  int evicted = 0;
  while (used_bytes_ + bytes > config_.capacity_bytes) {
    evict_one();
    ++evicted;
  }
  Entry entry{.bytes = bytes, .freq = 1, .seq = ++clock_};
  evict_order_.insert(key_of(id, entry));
  entries_.emplace(id, entry);
  used_bytes_ += bytes;
  return evicted;
}

void EdgeCache::evict_one() {
  SPERKE_CHECK(!evict_order_.empty(), "EdgeCache: eviction from empty cache");
  const EvictKey victim = *evict_order_.begin();
  evict_order_.erase(evict_order_.begin());
  auto it = entries_.find(victim.id);
  SPERKE_CHECK(it != entries_.end(), "EdgeCache: eviction index out of sync");
  used_bytes_ -= it->second.bytes;
  entries_.erase(it);
}

std::vector<net::ChunkId> EdgeCache::resident() const {
  std::vector<net::ChunkId> ids;
  ids.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) ids.push_back(id);
  return ids;
}

}  // namespace sperke::cdn
