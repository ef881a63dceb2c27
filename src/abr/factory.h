// The tile-ABR policy factory: name + per-policy params in one value-
// semantics config, resolved to a TileAbrPolicy instance by make_policy.
//
// TileAbrConfig is what travels through core::SessionConfig,
// live::TiledLiveConfig and engine::WorldSpec: shards and sessions each
// construct their *own* policy instance from the shared config, so no
// mutable ABR state ever crosses a shard boundary and merged engine
// metrics stay byte-identical at any thread count.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "abr/consistency_vra.h"
#include "abr/knapsack_vra.h"
#include "abr/panorama_vra.h"
#include "abr/policy.h"
#include "abr/sperke_vra.h"

namespace sperke::abr {

struct TileAbrConfig {
  // One of policy_names(): "sperke" (the paper's VRA), "knapsack"
  // (Ghosh–Aggarwal–Qian), "consistency" (Yuan et al.), "fullpano"
  // (monolithic baseline). Only the matching params struct is read;
  // "knapsack" and "consistency" take none.
  std::string policy = "sperke";
  SperkeVraConfig sperke;
  FullPanoramaConfig fullpano;
};

// Valid policy names, in factory order. Views into a constexpr table —
// no construction-order or shared-mutable-state hazards (sperke_analyze).
[[nodiscard]] std::span<const std::string_view> policy_names() noexcept;

// Throws std::invalid_argument listing the valid names on an unknown one.
// engine::validate calls this so a typo'd spec fails before shards spin up.
void validate_policy_name(const std::string& name);

// Build the named policy over `video`. Throws on an unknown name or a
// policy config its implementation rejects.
[[nodiscard]] std::unique_ptr<TileAbrPolicy> make_policy(
    std::shared_ptr<const media::VideoModel> video, const TileAbrConfig& config);

}  // namespace sperke::abr
