// Client-side playback buffer: tracks, per (tile, chunk) cell, what has been
// downloaded (the "Encoded Chunk Cache" of Figure 4) and what quality is
// therefore displayable, and what the fetch path has requested but not yet
// settled.
//
// AVC objects are self-contained: the displayable quality is the best copy
// held. SVC layers compose: the displayable quality is the highest layer i
// such that layers 0..i are all present (§3.1.1).
//
// Storage is a flat array of Cells indexed by chunk * tile_count + tile
// (DESIGN.md §13): the held objects are two 64-bit masks (one bit per AVC
// quality / SVC layer), the requests in flight a third, plus a byte
// counter, so contains/covered/displayable/add are single loads and bit
// tests instead of the former hash-map find over per-cell std::sets — the
// buffer was the hottest lookup structure of the whole session loop. The
// cell array can be owned or borrowed from a core::SessionBatch slot, which
// packs the hot state of a whole shard's sessions contiguously.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "media/chunk.h"
#include "media/video_model.h"

namespace sperke::core {

class PlaybackBuffer {
 public:
  // One (tile, chunk) cell. Zero-initialized == empty.
  struct Cell {
    std::int64_t bytes = 0;      // distinct-object bytes downloaded
    std::uint64_t avc_mask = 0;  // bit q set: AVC copy at quality q held
    std::uint64_t svc_mask = 0;  // bit l set: SVC layer l held
    // Requested, not yet settled: bit q for AVC quality q, bit
    // media::kMaxLevels + l for SVC layer l.
    std::uint64_t in_flight = 0;
  };

  explicit PlaybackBuffer(std::shared_ptr<const media::VideoModel> video);
  // Arena-backed: `cells` (size chunk_count * tile_count, zero-initialized)
  // is borrowed — typically a core::SessionBatch slot — and must outlive
  // the buffer.
  PlaybackBuffer(std::shared_ptr<const media::VideoModel> video,
                 std::span<Cell> cells);

  // Record a completed download. Duplicate adds are idempotent (bytes are
  // only counted once per distinct address).
  void add(const media::ChunkAddress& address);

  // Highest quality that can be decoded for this cell, or -1 if nothing
  // playable is buffered (SVC enhancement layers without the base do not
  // count).
  [[nodiscard]] media::QualityLevel displayable_quality(const media::ChunkKey& key) const;

  [[nodiscard]] bool has_displayable(const media::ChunkKey& key) const {
    return displayable_quality(key) >= 0;
  }

  // Highest contiguous SVC layer held (from 0), or -1: the base an
  // incremental delta upgrade can build on (an AVC copy cannot).
  [[nodiscard]] media::QualityLevel svc_contiguous_quality(
      const media::ChunkKey& key) const;

  [[nodiscard]] bool contains(const media::ChunkAddress& address) const;

  // Mark `address` requested (`flying`) or settled. Below the evict floor
  // this is a no-op: nothing reads an evicted cell.
  void set_in_flight(const media::ChunkAddress& address, bool flying);

  // Held or in flight: nothing to fetch.
  [[nodiscard]] bool covered(const media::ChunkAddress& address) const;

  // Whether any level of this cell is in flight.
  [[nodiscard]] bool in_flight(const media::ChunkKey& key) const {
    const Cell* c = cell(key);
    return c != nullptr && c->in_flight != 0;
  }

  // Total bytes downloaded into this cell.
  [[nodiscard]] std::int64_t cell_bytes(const media::ChunkKey& key) const;

  // Bytes of this cell that contribute to its displayed quality `shown`
  // (the AVC copy of exactly that quality, or SVC layers 0..shown).
  [[nodiscard]] std::int64_t cell_bytes_used(const media::ChunkKey& key,
                                             media::QualityLevel shown) const;

  // Bytes of chunk `index` that playback does not use: everything held in
  // cells outside `visible` (unique tiles) plus what the visible
  // cells hold beyond their displayed quality.
  [[nodiscard]] std::int64_t unused_bytes(media::ChunkIndex index,
                                          std::span<const geo::TileId> visible) const;

  // Drop all cells with chunk index < `index` (already played). The floor
  // is monotone: a smaller `index` than a previous call is a no-op, and
  // adding below the floor is a state-machine violation (the player never
  // fetches into chunks it has discarded).
  void evict_before(media::ChunkIndex index);

  // Number of contiguous chunks starting at `from` for which every tile in
  // `tiles` is displayable.
  [[nodiscard]] int contiguous_chunks(media::ChunkIndex from,
                                      const std::vector<geo::TileId>& tiles) const;

  [[nodiscard]] std::int64_t total_bytes() const { return total_bytes_; }

 private:
  [[nodiscard]] std::size_t offset(const media::ChunkKey& key) const {
    return static_cast<std::size_t>(key.index) *
               static_cast<std::size_t>(tile_count_) +
           static_cast<std::size_t>(key.tile);
  }
  // The cell, or nullptr for out-of-range / evicted indices.
  [[nodiscard]] const Cell* cell(const media::ChunkKey& key) const {
    if (key.index < evict_floor_ || key.index >= chunk_count_ ||
        key.tile < 0 || key.tile >= tile_count_) {
      return nullptr;
    }
    return &cells_[offset(key)];
  }

  std::shared_ptr<const media::VideoModel> video_;
  std::vector<Cell> owned_;  // empty when arena-backed
  std::span<Cell> cells_;
  int tile_count_ = 0;
  media::ChunkIndex chunk_count_ = 0;
  media::ChunkIndex evict_floor_ = 0;
  std::int64_t total_bytes_ = 0;
};

}  // namespace sperke::core
