#include "abr/factory.h"

#include <array>
#include <stdexcept>
#include <utility>

namespace sperke::abr {

namespace {

constexpr std::array<std::string_view, 4> kPolicyNames = {
    "sperke", "knapsack", "consistency", "fullpano"};

}  // namespace

std::span<const std::string_view> policy_names() noexcept {
  return kPolicyNames;
}

void validate_policy_name(const std::string& name) {
  for (std::string_view known : policy_names()) {
    if (name == known) return;
  }
  std::string valid;
  for (std::string_view known : policy_names()) {
    if (!valid.empty()) valid += ", ";
    valid += known;
  }
  throw std::invalid_argument("make_policy: unknown tile-ABR policy \"" + name +
                              "\"; valid names: " + valid);
}

std::unique_ptr<TileAbrPolicy> make_policy(
    std::shared_ptr<const media::VideoModel> video,
    const TileAbrConfig& config) {
  validate_policy_name(config.policy);
  if (config.policy == "sperke") {
    return std::make_unique<SperkeVra>(std::move(video), config.sperke);
  }
  if (config.policy == "knapsack") {
    return std::make_unique<KnapsackVra>(std::move(video));
  }
  if (config.policy == "consistency") {
    return std::make_unique<ConsistencyVra>(std::move(video));
  }
  return std::make_unique<FullPanoramaVra>(std::move(video), config.fullpano);
}

}  // namespace sperke::abr
