#include "core/buffer.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "util/check.h"

namespace sperke::core {

namespace {

// Highest set bit, or -1 for an empty mask: the best AVC copy held.
[[nodiscard]] media::QualityLevel best_of(std::uint64_t mask) {
  return static_cast<media::QualityLevel>(std::bit_width(mask)) - 1;
}

// Highest contiguous run from bit 0, or -1: the decodable SVC stack.
[[nodiscard]] media::QualityLevel contiguous_of(std::uint64_t mask) {
  return static_cast<media::QualityLevel>(std::countr_one(mask)) - 1;
}

// `address`'s bit in Cell::in_flight: AVC levels low, SVC layers high.
[[nodiscard]] std::uint64_t in_flight_bit(const media::ChunkAddress& address) {
  SPERKE_DCHECK(address.level >= 0 && address.level < media::kMaxLevels,
                "PlaybackBuffer: quality/layer outside in-flight mask range ",
                address.level);
  const bool avc = address.encoding == media::Encoding::kAvc;
  return std::uint64_t{1} << (avc ? address.level : media::kMaxLevels + address.level);
}

}  // namespace

PlaybackBuffer::PlaybackBuffer(std::shared_ptr<const media::VideoModel> video)
    : video_(std::move(video)) {
  if (!video_) throw std::invalid_argument("PlaybackBuffer: null video");
  tile_count_ = video_->tile_count();
  chunk_count_ = video_->chunk_count();
  owned_.resize(static_cast<std::size_t>(tile_count_) *
                static_cast<std::size_t>(chunk_count_));
  cells_ = owned_;
}

PlaybackBuffer::PlaybackBuffer(std::shared_ptr<const media::VideoModel> video,
                               std::span<Cell> cells)
    : video_(std::move(video)), cells_(cells) {
  if (!video_) throw std::invalid_argument("PlaybackBuffer: null video");
  tile_count_ = video_->tile_count();
  chunk_count_ = video_->chunk_count();
  if (cells_.size() != static_cast<std::size_t>(tile_count_) *
                           static_cast<std::size_t>(chunk_count_)) {
    throw std::invalid_argument("PlaybackBuffer: arena span size mismatch");
  }
}

void PlaybackBuffer::add(const media::ChunkAddress& address) {
  // Chunk state-machine legality: a negative or oversized level would
  // corrupt the held-object masks silently (displayable_quality compares
  // against -1 as "nothing buffered").
  SPERKE_CHECK(address.level >= 0 && address.level < media::kMaxLevels,
               "PlaybackBuffer: quality/layer outside mask range ",
               address.level);
  SPERKE_CHECK(address.key.tile >= 0 && address.key.tile < tile_count_,
               "PlaybackBuffer: tile out of grid: ", address.key.tile);
  SPERKE_CHECK(address.key.index >= 0 && address.key.index < chunk_count_,
               "PlaybackBuffer: chunk index out of range: ", address.key.index);
  SPERKE_CHECK(address.key.index >= evict_floor_,
               "PlaybackBuffer: add into evicted chunk ", address.key.index,
               " (floor ", evict_floor_, ")");
  Cell& cell = cells_[offset(address.key)];
  std::uint64_t& mask =
      address.encoding == media::Encoding::kAvc ? cell.avc_mask : cell.svc_mask;
  const std::uint64_t bit = std::uint64_t{1} << address.level;
  if ((mask & bit) != 0) return;  // duplicate
#if SPERKE_DCHECK_IS_ON
  const media::QualityLevel before = displayable_quality(address.key);
#endif
  mask |= bit;
  const std::int64_t size = video_->size_bytes(address);
  cell.bytes += size;
  total_bytes_ += size;
#if SPERKE_DCHECK_IS_ON
  // Adding an object can only raise (or keep) what the cell can display —
  // the download state machine never moves a cell backwards.
  SPERKE_DCHECK(displayable_quality(address.key) >= before,
                "PlaybackBuffer: add lowered displayable quality of cell");
#endif
  SPERKE_DCHECK(total_bytes_ >= 0, "PlaybackBuffer: negative total bytes");
}

media::QualityLevel PlaybackBuffer::displayable_quality(
    const media::ChunkKey& key) const {
  const Cell* c = cell(key);
  if (c == nullptr) return -1;
  return std::max(best_of(c->avc_mask), contiguous_of(c->svc_mask));
}

media::QualityLevel PlaybackBuffer::svc_contiguous_quality(
    const media::ChunkKey& key) const {
  const Cell* c = cell(key);
  if (c == nullptr) return -1;
  return contiguous_of(c->svc_mask);
}

bool PlaybackBuffer::contains(const media::ChunkAddress& address) const {
  const Cell* c = cell(address.key);
  if (c == nullptr || address.level < 0 || address.level >= media::kMaxLevels) {
    return false;
  }
  const std::uint64_t mask =
      address.encoding == media::Encoding::kAvc ? c->avc_mask : c->svc_mask;
  return (mask & (std::uint64_t{1} << address.level)) != 0;
}

void PlaybackBuffer::set_in_flight(const media::ChunkAddress& address, bool flying) {
  SPERKE_DCHECK(address.key.tile >= 0 && address.key.tile < tile_count_ &&
                    address.key.index >= 0 && address.key.index < chunk_count_,
                "PlaybackBuffer: in-flight cell out of range");
  if (address.key.index < evict_floor_) return;
  std::uint64_t& mask = cells_[offset(address.key)].in_flight;
  mask = flying ? mask | in_flight_bit(address) : mask & ~in_flight_bit(address);
}

bool PlaybackBuffer::covered(const media::ChunkAddress& address) const {
  const Cell* c = cell(address.key);
  return c != nullptr &&
         (contains(address) || (c->in_flight & in_flight_bit(address)) != 0);
}

std::int64_t PlaybackBuffer::cell_bytes(const media::ChunkKey& key) const {
  const Cell* c = cell(key);
  return c == nullptr ? 0 : c->bytes;
}

std::int64_t PlaybackBuffer::unused_bytes(media::ChunkIndex index,
                                          std::span<const geo::TileId> visible) const {
  std::int64_t unused = 0;
  for (geo::TileId tile = 0; tile < tile_count_; ++tile) {
    unused += cell_bytes({tile, index});
  }
  for (geo::TileId tile : visible) {
    const media::ChunkKey key{tile, index};
    unused -= cell_bytes_used(key, displayable_quality(key));
  }
  return unused;
}

std::int64_t PlaybackBuffer::cell_bytes_used(const media::ChunkKey& key,
                                             media::QualityLevel shown) const {
  if (shown < 0 || shown >= media::kMaxLevels) return 0;
  const Cell* c = cell(key);
  if (c == nullptr) return 0;
  // Prefer the interpretation that matches how `shown` was achieved.
  std::int64_t used = 0;
  if (best_of(c->avc_mask) >= shown) {
    used = video_->avc_size_bytes(shown, key);
  } else {
    for (media::LayerIndex l = 0; l <= shown; ++l) {
      if ((c->svc_mask & (std::uint64_t{1} << l)) != 0) {
        used += video_->svc_layer_size_bytes(l, key);
      }
    }
  }
  return used;
}

void PlaybackBuffer::evict_before(media::ChunkIndex index) {
  if (index <= evict_floor_) return;
  const media::ChunkIndex upto = std::min(index, chunk_count_);
  for (media::ChunkIndex i = evict_floor_; i < upto; ++i) {
    for (int t = 0; t < tile_count_; ++t) {
      cells_[offset({t, i})] = Cell{};
    }
  }
  evict_floor_ = index;
}

int PlaybackBuffer::contiguous_chunks(media::ChunkIndex from,
                                      const std::vector<geo::TileId>& tiles) const {
  int count = 0;
  for (media::ChunkIndex i = from; i < chunk_count_; ++i) {
    for (geo::TileId tile : tiles) {
      if (!has_displayable({tile, i})) return count;
    }
    ++count;
  }
  return count;
}

}  // namespace sperke::core
