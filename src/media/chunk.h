// Chunk addressing, exactly the paper's Figure 2 model: a panoramic video is
// encoded at multiple qualities, each quality is spatially cut into tiles,
// and each tile is temporally cut into chunks. The smallest downloadable
// unit is C(q, l, t): quality level q, tile l, chunk start time t.
//
// With SVC (§3.1.1) the quality axis becomes *layers*: one base layer plus
// enhancement layers, where playing at layer i requires layers 0..i.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "geo/tile_grid.h"

namespace sperke::media {

using QualityLevel = std::int32_t;  // 0 = lowest playable quality
using LayerIndex = std::int32_t;    // 0 = SVC base layer
using ChunkIndex = std::int32_t;    // temporal index: start time = index * chunk_duration

// Most quality levels (and so SVC layers) a video may have: the client's
// in-flight mask holds one bit per AVC level and one per SVC layer in 64
// bits (core/buffer.h).
inline constexpr int kMaxLevels = 32;

// Spatial-temporal coordinate of a chunk (the "cell" of Figure 2, without
// the quality axis).
struct ChunkKey {
  geo::TileId tile = 0;
  ChunkIndex index = 0;

  friend auto operator<=>(const ChunkKey&, const ChunkKey&) = default;
};

enum class Encoding : std::uint8_t {
  kAvc,  // conventional single-layer encoding: one full bitstream per quality
  kSvc,  // scalable layered encoding: base + enhancement layers
};

// A concrete downloadable object.
//  * Encoding::kAvc  — the complete chunk at quality `level`.
//  * Encoding::kSvc  — the single layer `level` of the chunk (the delta).
struct ChunkAddress {
  ChunkKey key;
  Encoding encoding = Encoding::kAvc;
  std::int32_t level = 0;

  friend auto operator<=>(const ChunkAddress&, const ChunkAddress&) = default;
};

}  // namespace sperke::media

template <>
struct std::hash<sperke::media::ChunkKey> {
  std::size_t operator()(const sperke::media::ChunkKey& k) const noexcept {
    return std::hash<std::uint64_t>{}(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.tile)) << 32) |
        static_cast<std::uint32_t>(k.index));
  }
};

// Packs the key and the (encoding, level) pair into one 64-bit word each and
// mixes the two once.
template <>
struct std::hash<sperke::media::ChunkAddress> {
  std::size_t operator()(const sperke::media::ChunkAddress& a) const noexcept {
    const auto hi =
        (static_cast<std::uint64_t>(a.encoding) << 32) |
        static_cast<std::uint32_t>(a.level);
    std::uint64_t h = std::hash<sperke::media::ChunkKey>{}(a.key);
    h ^= std::hash<std::uint64_t>{}(hi) +
         0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return static_cast<std::size_t>(h);
  }
};
