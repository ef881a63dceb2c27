#include "cdn/cache.h"

#include <algorithm>
#include <stdexcept>

#include "util/check.h"

namespace sperke::cdn {

EdgeCache::EdgeCache(std::int64_t capacity_bytes)
    : capacity_bytes_(capacity_bytes), nodes_(2) {
  if (capacity_bytes_ <= 0) {
    throw std::invalid_argument("EdgeCache: capacity_bytes must be positive");
  }
  nodes_[kRecency].prev = nodes_[kRecency].next = kRecency;
}

void EdgeCache::unlink(std::uint32_t node) {
  nodes_[nodes_[node].prev].next = nodes_[node].next;
  nodes_[nodes_[node].next].prev = nodes_[node].prev;
}

void EdgeCache::link_before(std::uint32_t node, std::uint32_t at) {
  nodes_[node].prev = nodes_[at].prev;
  nodes_[node].next = at;
  nodes_[nodes_[at].prev].next = node;
  nodes_[at].prev = node;
}

// Every touch and insert is a new latest use and relinks at the ring's
// tail, so the ring stays in last-use order and the victim is its head.
bool EdgeCache::touch(const media::ChunkAddress& id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  unlink(it->second);
  link_before(it->second, kRecency);
  return true;
}

int EdgeCache::insert(const media::ChunkAddress& id, std::int64_t bytes) {
  SPERKE_CHECK(bytes > 0, "EdgeCache::insert: non-positive size ", bytes);
  if (touch(id)) return 0;
  if (bytes > capacity_bytes_) return -1;  // can never fit
  int evicted = 0;
  // Compare against the remaining budget: used + bytes could overflow.
  while (bytes > capacity_bytes_ - used_bytes_) {
    evict_one();
    ++evicted;
  }
  // A spare node off its ring, or a new one.
  std::uint32_t node = nodes_[kSpares].next;
  if (node == kSpares) {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  } else {
    unlink(node);
  }
  nodes_[node].id = id;
  nodes_[node].bytes = bytes;
  link_before(node, kRecency);
  index_.emplace(id, node);
  used_bytes_ += bytes;
  return evicted;
}

void EdgeCache::evict_one() {
  const std::uint32_t node = nodes_[kRecency].next;
  SPERKE_CHECK(node != kRecency, "EdgeCache: eviction from empty cache");
  unlink(node);
  const std::size_t erased = index_.erase(nodes_[node].id);
  SPERKE_CHECK(erased == 1, "EdgeCache: eviction index out of sync");
  used_bytes_ -= nodes_[node].bytes;
  link_before(node, kSpares);
}

std::vector<media::ChunkAddress> EdgeCache::resident() const {
  std::vector<media::ChunkAddress> ids;
  ids.reserve(index_.size());
  for (const auto& [id, node] : index_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace sperke::cdn
