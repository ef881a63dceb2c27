// Structure-of-arrays arena for per-session hot state (DESIGN.md §13).
//
// A SessionBatch packs, for up to `capacity` sessions sharing one
// VideoModel, the three arrays the streaming hot loop touches per event:
//   * tile probabilities      — sessions × tiles doubles (HMP fusion out),
//   * planned chunk quality   — sessions × chunks (-1 = not yet planned),
//   * playback-buffer cells   — sessions × chunks × tiles Cell structs,
//     each with its held and in-flight masks.
// Each session claims one slot and receives spans into the shared slabs,
// so the fused probability kernel, the chunk planner, and the buffer
// coverage checks run over contiguous memory instead of per-session
// std::map / std::set nodes, and per-chunk bookkeeping allocates nothing
// after construction. One batch per engine shard (engine/shard.h); a
// standalone session owns a private capacity-1 batch.
//
// Slots are claimed monotonically and never returned: sessions and their
// batch have the same lifetime (a shard, a bench run, a test body).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/buffer.h"
#include "media/chunk.h"
#include "media/video_model.h"

namespace sperke::core {

class SessionBatch {
 public:
  SessionBatch(std::shared_ptr<const media::VideoModel> video, int capacity);

  // Claim the next free slot; throws std::length_error when full.
  [[nodiscard]] int acquire();

  // Per-slot views. Valid for the lifetime of the batch; never reallocated.
  [[nodiscard]] std::span<double> probs(int slot) {
    return {probs_.data() + checked(slot) * static_cast<std::size_t>(tiles_),
            static_cast<std::size_t>(tiles_)};
  }
  [[nodiscard]] std::span<media::QualityLevel> planned_quality(int slot) {
    return {planned_.data() + checked(slot) * static_cast<std::size_t>(chunks_),
            static_cast<std::size_t>(chunks_)};
  }
  [[nodiscard]] std::span<PlaybackBuffer::Cell> cells(int slot) {
    return {cells_.data() + checked(slot) * cell_stride(), cell_stride()};
  }

 private:
  [[nodiscard]] std::size_t checked(int slot) const;
  [[nodiscard]] std::size_t cell_stride() const {
    return static_cast<std::size_t>(chunks_) * static_cast<std::size_t>(tiles_);
  }

  int tiles_ = 0;
  media::ChunkIndex chunks_ = 0;
  int capacity_ = 0;
  int size_ = 0;
  std::vector<double> probs_;
  std::vector<media::QualityLevel> planned_;
  std::vector<PlaybackBuffer::Cell> cells_;
};

}  // namespace sperke::core
