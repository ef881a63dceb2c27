// The quality ladder: per-level bitrate for the full panorama, plus a
// perceptual utility mapping used by QoE accounting and rate adaptation.
#pragma once

#include <stdexcept>
#include <vector>

#include "media/chunk.h"

namespace sperke::media {

class QualityLadder {
 public:
  // `panorama_kbps[i]` is the bitrate of the whole panoramic view at
  // quality level i; must be finite, positive, strictly increasing and
  // non-empty.
  explicit QualityLadder(std::vector<double> panorama_kbps);

  [[nodiscard]] int levels() const { return static_cast<int>(kbps_.size()); }
  [[nodiscard]] QualityLevel max_level() const { return levels() - 1; }
  [[nodiscard]] double panorama_kbps(QualityLevel q) const;

  // Perceptual utility of a quality level, normalized so that
  // utility(0) == 0 and utility(max) == 1. Logarithmic in bitrate,
  // matching the diminishing returns of encoded video quality.
  [[nodiscard]] double utility(QualityLevel q) const;

  [[nodiscard]] bool valid_level(QualityLevel q) const {
    return q >= 0 && q < levels();
  }

  // A conventional ladder loosely following YouTube's 360 ladder shape.
  [[nodiscard]] static QualityLadder default_ladder();

 private:
  std::vector<double> kbps_;
  std::vector<double> utility_;  // precomputed normalized utilities
};

}  // namespace sperke::media
