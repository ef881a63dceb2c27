// Byte-budgeted edge cache over net::ChunkId objects (DESIGN.md §15).
//
// The cache is a pure deterministic data structure — no clocks, no
// entropy — so a given operation sequence always produces the same
// eviction sequence (golden-tested). Policies:
//
//   lru  — evict the least recently used object.
//   lfu  — evict the least frequently used object; ties broken by least
//          recent use (classic LFU-with-LRU-tiebreak).
//
// A hash index maps each resident id to a node in a slab. Nodes sit on
// intrusive recency lists, least recently used first: one list under lru,
// one per use count under lfu, the lists chained in ascending count. A
// touch or an eviction relinks nodes and allocates nothing.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
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
    return index_.contains(id);
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
  [[nodiscard]] int size() const { return static_cast<int>(index_.size()); }

  // Resident ids in ascending ChunkId order (deterministic snapshot for
  // tests and debugging).
  [[nodiscard]] std::vector<net::ChunkId> resident() const;

 private:
  // Both slabs thread their records on circular doubly linked rings by
  // index. A ring hangs off a sentinel record that links to itself while
  // the ring is empty; spare records wait on the ring at index 0.
  static constexpr std::uint32_t kSpares = 0;
  static constexpr std::uint32_t kChain = 1;  // lists_: ascending rank

  // A resident object on its list's ring, least recently used first.
  struct Node {
    net::ChunkId id;
    std::int64_t bytes = 0;
    std::uint32_t list = 0;
    std::uint32_t prev = 0;
    std::uint32_t next = 0;
  };
  // The residents of one rank — the use count under lfu, 0 under lru —
  // on the ring of sentinel node `ring` (0 until the list first gets one).
  struct List {
    std::uint64_t rank = 0;
    std::uint32_t ring = 0;
    std::uint32_t prev = 0;
    std::uint32_t next = 0;
  };

  // The list of `rank` right after `after` in the chain, added if absent.
  std::uint32_t list_after(std::uint32_t after, std::uint64_t rank);
  void append(std::uint32_t node, std::uint32_t list);
  void retire_if_empty(std::uint32_t list);
  void evict_one();

  EdgeCacheConfig config_;
  std::unordered_map<net::ChunkId, std::uint32_t> index_;
  std::vector<Node> nodes_;
  std::vector<List> lists_;
  std::int64_t used_bytes_ = 0;
};

}  // namespace sperke::cdn
