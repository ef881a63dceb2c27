// Byte-budgeted LRU edge cache over media::ChunkAddress objects
// (DESIGN.md §15).
//
// The cache is a pure deterministic data structure — no clocks, no
// entropy — so a given operation sequence always produces the same
// eviction sequence (golden-tested): the least recently used object goes
// first.
//
// A hash index maps each resident id to a node in a slab. Nodes sit on one
// intrusive recency ring, least recently used first. A touch or an
// eviction relinks nodes and allocates nothing.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "media/chunk.h"

namespace sperke::cdn {

class EdgeCache {
 public:
  // Throws std::invalid_argument when capacity_bytes <= 0.
  explicit EdgeCache(std::int64_t capacity_bytes);

  [[nodiscard]] bool contains(const media::ChunkAddress& id) const {
    return index_.contains(id);
  }

  // Lookup-with-bookkeeping: make the object the most recently used and
  // report whether it is resident.
  bool touch(const media::ChunkAddress& id);

  // Admit an object, evicting the least recently used until it fits.
  // Returns the number of objects evicted; -1 when the object is larger
  // than the whole cache (not admitted); 0 (counted as a touch) when
  // already resident.
  int insert(const media::ChunkAddress& id, std::int64_t bytes);

  [[nodiscard]] std::int64_t capacity_bytes() const { return capacity_bytes_; }
  [[nodiscard]] std::int64_t used_bytes() const { return used_bytes_; }
  [[nodiscard]] int size() const { return static_cast<int>(index_.size()); }

  // Resident ids in ascending address order (deterministic snapshot for
  // tests and debugging).
  [[nodiscard]] std::vector<media::ChunkAddress> resident() const;

 private:
  // Nodes thread circular doubly linked rings by index. Each ring hangs off
  // a sentinel node that links to itself while the ring is empty.
  static constexpr std::uint32_t kSpares = 0;   // evicted nodes for reuse
  static constexpr std::uint32_t kRecency = 1;  // residents, LRU first

  struct Node {
    media::ChunkAddress id;
    std::int64_t bytes = 0;
    std::uint32_t prev = 0;
    std::uint32_t next = 0;
  };

  void unlink(std::uint32_t node);
  void link_before(std::uint32_t node, std::uint32_t at);
  void evict_one();

  std::int64_t capacity_bytes_;
  std::unordered_map<media::ChunkAddress, std::uint32_t> index_;
  std::vector<Node> nodes_;
  std::int64_t used_bytes_ = 0;
};

}  // namespace sperke::cdn
