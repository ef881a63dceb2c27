// Byte-budgeted edge cache over net::ChunkId objects (DESIGN.md §15).
//
// The cache is a pure deterministic data structure — no clocks, no
// entropy: recency/frequency state advances on an internal logical counter
// bumped once per touch/insert, so a given operation sequence always
// produces the same eviction sequence (golden-tested). Policies:
//
//   lru  — evict the least recently used object.
//   lfu  — evict the least frequently used object; ties broken by least
//          recent use (classic LFU-with-LRU-tiebreak).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/chunk_source.h"

namespace sperke::cdn {

enum class CachePolicy : std::uint8_t { kLru, kLfu };

// Stable policy names for the declarative topology section. Views into a
// constexpr table — no shared mutable state (sperke_analyze).
[[nodiscard]] std::span<const std::string_view> cache_policy_names() noexcept;

// Parse a policy name; throws std::invalid_argument listing the valid
// names (same convention as abr::validate_policy_name).
[[nodiscard]] CachePolicy parse_cache_policy(const std::string& name);

struct EdgeCacheConfig {
  CachePolicy policy = CachePolicy::kLru;
  std::int64_t capacity_bytes = 0;  // must be positive
};

class EdgeCache {
 public:
  // Throws std::invalid_argument when capacity_bytes <= 0.
  explicit EdgeCache(EdgeCacheConfig config);

  [[nodiscard]] bool contains(const net::ChunkId& id) const {
    return entries_.contains(id);
  }

  // Lookup-with-bookkeeping: bump the object's recency (lru) or frequency +
  // recency (lfu) and report whether it is resident.
  bool touch(const net::ChunkId& id);

  // Admit an object, evicting per policy until it fits. Returns the number
  // of objects evicted; -1 when the object is larger than the whole cache
  // (not admitted); 0 (counted as a touch) when already resident.
  int insert(const net::ChunkId& id, std::int64_t bytes);

  [[nodiscard]] std::int64_t capacity_bytes() const {
    return config_.capacity_bytes;
  }
  [[nodiscard]] std::int64_t used_bytes() const { return used_bytes_; }
  [[nodiscard]] int size() const { return static_cast<int>(entries_.size()); }

  // Resident ids in ascending ChunkId order (deterministic snapshot for
  // tests and debugging).
  [[nodiscard]] std::vector<net::ChunkId> resident() const;

 private:
  struct Entry {
    std::int64_t bytes = 0;
    std::uint64_t freq = 0;
    std::uint64_t seq = 0;
  };
  // Eviction order: ascending (rank, seq, id). rank is 0 under lru (pure
  // recency via seq) and the use count under lfu; the ChunkId tail makes
  // the key unique without affecting the policy ordering.
  struct EvictKey {
    std::uint64_t rank = 0;
    std::uint64_t seq = 0;
    net::ChunkId id;

    friend auto operator<=>(const EvictKey&, const EvictKey&) = default;
  };

  [[nodiscard]] EvictKey key_of(const net::ChunkId& id, const Entry& entry) const;
  void evict_one();

  EdgeCacheConfig config_;
  std::map<net::ChunkId, Entry> entries_;
  std::set<EvictKey> evict_order_;
  std::int64_t used_bytes_ = 0;
  std::uint64_t clock_ = 0;  // logical time: one tick per touch/insert
};

}  // namespace sperke::cdn
