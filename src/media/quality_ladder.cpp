#include "media/quality_ladder.h"

#include <cmath>

namespace sperke::media {

QualityLadder::QualityLadder(std::vector<double> panorama_kbps)
    : kbps_(std::move(panorama_kbps)) {
  if (kbps_.empty()) throw std::invalid_argument("QualityLadder: empty ladder");
  for (std::size_t i = 0; i < kbps_.size(); ++i) {
    // NaN fails both tests.
    if (!(kbps_[i] > 0.0) || !std::isfinite(kbps_[i])) {
      throw std::invalid_argument(
          "QualityLadder: bitrates must be finite and positive");
    }
    if (i > 0 && kbps_[i] <= kbps_[i - 1]) {
      throw std::invalid_argument("QualityLadder: bitrates must be strictly increasing");
    }
  }
  utility_.reserve(kbps_.size());
  const double lo = std::log(kbps_.front());
  const double hi = std::log(kbps_.back());
  for (double k : kbps_) {
    utility_.push_back(hi > lo ? (std::log(k) - lo) / (hi - lo) : 1.0);
  }
}

double QualityLadder::panorama_kbps(QualityLevel q) const {
  if (!valid_level(q)) throw std::out_of_range("QualityLadder: bad level");
  return kbps_[static_cast<std::size_t>(q)];
}

double QualityLadder::utility(QualityLevel q) const {
  if (!valid_level(q)) throw std::out_of_range("QualityLadder: bad level");
  return utility_[static_cast<std::size_t>(q)];
}

QualityLadder QualityLadder::default_ladder() {
  // Full-panorama bitrates (kbps): 360p-ish base up to 4K-ish top rung.
  // 360° video needs ~5x the bitrate of a regular video at the same
  // perceived quality (§1), which is why even the mid rungs are heavy.
  return QualityLadder({1000.0, 2500.0, 5000.0, 10000.0, 20000.0});
}

}  // namespace sperke::media
