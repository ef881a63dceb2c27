#include "abr/regular_vra.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <string>

namespace sperke::abr {
namespace {

media::QualityLevel max_level(const VraContext& ctx) {
  if (ctx.level_kbps.empty()) throw std::invalid_argument("VraContext: empty ladder");
  return static_cast<media::QualityLevel>(ctx.level_kbps.size()) - 1;
}

}  // namespace

ThroughputVra::ThroughputVra(double safety) : safety_(safety) {
  if (safety <= 0.0 || safety > 1.0) throw std::invalid_argument("ThroughputVra: bad safety");
}

media::QualityLevel ThroughputVra::choose(const VraContext& ctx) const {
  const media::QualityLevel top = max_level(ctx);
  if (ctx.estimated_kbps <= 0.0) return 0;
  const double budget = ctx.estimated_kbps * safety_;
  media::QualityLevel pick = 0;
  for (media::QualityLevel q = 0; q <= top; ++q) {
    if (ctx.level_kbps[static_cast<std::size_t>(q)] <= budget) pick = q;
  }
  return pick;
}

FixedVra::FixedVra(media::QualityLevel level) : level_(level) {
  if (level < 0) throw std::invalid_argument("FixedVra: negative level");
}

media::QualityLevel FixedVra::choose(const VraContext& ctx) const {
  return std::min(level_, max_level(ctx));
}

std::unique_ptr<RegularVra> make_regular_vra(std::string_view name) {
  if (name == "throughput") return std::make_unique<ThroughputVra>();
  // "fixed-<level>" pins the quality, e.g. "fixed-2". A malformed level
  // ("fixed-", "fixed-x", "fixed--1") falls through to the listing error
  // below instead of whatever std::stoi would have thrown.
  if (name.starts_with("fixed-")) {
    const std::string_view digits = name.substr(6);
    int level = 0;
    const auto [ptr, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), level);
    if (ec == std::errc{} && ptr == digits.data() + digits.size() &&
        level >= 0) {
      return std::make_unique<FixedVra>(level);
    }
  }
  throw std::invalid_argument("make_regular_vra: unknown VRA \"" +
                              std::string(name) +
                              "\"; valid names: throughput, fixed-<level>");
}

}  // namespace sperke::abr
