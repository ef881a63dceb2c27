// Regular (non-360°) video rate adaptation algorithms.
//
// Part one of the paper's VRA decomposition (§3.1.2): with perfect HMP,
// FoV-guided 360° VRA reduces to regular VRA over *super chunks* (the
// minimum tile set covering the known FoV, all at one quality). These are
// the pluggable "regular VRA" engines:
//   * ThroughputVra — FESTIVE-like [29]: pick the highest level sustainable
//     at a safety-discounted throughput estimate.
//   * FixedVra — one pinned level, for equal-quality comparisons.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "media/quality_ladder.h"

namespace sperke::abr {

// Everything a regular VRA may consider when picking the next quality.
struct VraContext {
  // Cost of the next super chunk at each ladder level, in kbps of effective
  // bitrate (bytes*8 / chunk duration). Index = quality level.
  std::vector<double> level_kbps;
  double estimated_kbps = 0.0;  // throughput estimate (0 = unknown)
};

class RegularVra {
 public:
  virtual ~RegularVra() = default;
  [[nodiscard]] virtual media::QualityLevel choose(const VraContext& ctx) const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
};

class ThroughputVra final : public RegularVra {
 public:
  explicit ThroughputVra(double safety = 0.85);
  [[nodiscard]] media::QualityLevel choose(const VraContext& ctx) const override;
  [[nodiscard]] std::string_view name() const override { return "throughput"; }

 private:
  double safety_;
};

// Pins every chunk to one ladder level. Not a real adaptation policy —
// used by equal-quality comparisons (e.g. measuring FoV-guided bandwidth
// savings at the *same* displayed quality, §2) and as an ablation control.
class FixedVra final : public RegularVra {
 public:
  explicit FixedVra(media::QualityLevel level);
  [[nodiscard]] media::QualityLevel choose(const VraContext& ctx) const override;
  [[nodiscard]] std::string_view name() const override { return "fixed"; }

 private:
  media::QualityLevel level_;
};

[[nodiscard]] std::unique_ptr<RegularVra> make_regular_vra(std::string_view name);

}  // namespace sperke::abr
