#include "core/session_batch.h"

#include <stdexcept>

#include "util/check.h"

namespace sperke::core {

SessionBatch::SessionBatch(std::shared_ptr<const media::VideoModel> video,
                           int capacity) {
  if (!video) throw std::invalid_argument("SessionBatch: null video");
  if (capacity < 1) throw std::invalid_argument("SessionBatch: capacity < 1");
  tiles_ = video->tile_count();
  chunks_ = video->chunk_count();
  capacity_ = capacity;
  const std::size_t n = static_cast<std::size_t>(capacity);
  probs_.resize(n * static_cast<std::size_t>(tiles_));
  planned_.assign(n * static_cast<std::size_t>(chunks_), -1);
  cells_.resize(n * cell_stride());
}

int SessionBatch::acquire() {
  if (size_ >= capacity_) {
    throw std::length_error("SessionBatch: all slots claimed");
  }
  return size_++;
}

std::size_t SessionBatch::checked(int slot) const {
  SPERKE_CHECK(slot >= 0 && slot < size_,
               "SessionBatch: slot ", slot, " outside [0, ", size_, ")");
  return static_cast<std::size_t>(slot);
}

}  // namespace sperke::core
