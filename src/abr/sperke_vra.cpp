#include "abr/sperke_vra.h"

#include <algorithm>
#include <span>

namespace sperke::abr {
namespace {

// Upgrade policy (part 3). The probability test is a *lift over uniform*:
// a tile qualifies when its visibility probability is at least
// kUpgradeProbThreshold / tile_count (plain probabilities spread thin
// across the ~10 tiles of a FoV, so an absolute cut would never fire).
constexpr double kUpgradeProbThreshold = 1.5;
// Cost-benefit gate: the expected utility gain (lift x utility delta) must
// clear this floor, so bandwidth is not spent on marginal upgrades.
constexpr double kUpgradeMinBenefit = 0.35;
// Fraction of the deadline slack an upgrade download may use.
constexpr double kUpgradeSafety = 0.8;

}  // namespace

std::string to_string(EncodingMode mode) {
  switch (mode) {
    case EncodingMode::kAvcNoUpgrade: return "avc-no-upgrade";
    case EncodingMode::kAvcRefetch: return "avc-refetch";
    case EncodingMode::kSvc: return "svc";
    case EncodingMode::kHybrid: return "hybrid";
  }
  return "?";
}

SperkeVra::SperkeVra(std::shared_ptr<const media::VideoModel> video,
                     SperkeVraConfig config)
    : TileAbrPolicy(std::move(video)),
      config_(std::move(config)),
      pinned_(parse_regular_vra(config_.regular_vra)),
      oos_(config_.oos) {}

media::Encoding SperkeVra::fov_encoding() const {
  // Only pure-SVC mode pays the layering tax on FoV tiles; hybrid treats
  // them as "not likely to upgrade" and fetches the plain AVC copy.
  return config_.mode == EncodingMode::kSvc ? media::Encoding::kSvc
                                            : media::Encoding::kAvc;
}

media::Encoding SperkeVra::oos_encoding() const {
  switch (config_.mode) {
    case EncodingMode::kAvcNoUpgrade:
    case EncodingMode::kAvcRefetch:
      return media::Encoding::kAvc;
    case EncodingMode::kSvc:
    case EncodingMode::kHybrid:
      return media::Encoding::kSvc;  // upgrade candidates stay layered
  }
  return media::Encoding::kAvc;
}

void SperkeVra::plan_into(media::ChunkIndex index,
                          const std::vector<geo::TileId>& predicted_fov,
                          std::span<const double> tile_probabilities,
                          double estimated_kbps, sim::Duration /*buffer_level*/,
                          media::QualityLevel /*last_quality*/,
                          PlanWorkspace& workspace, ChunkPlan& out) const {
  const media::VideoModel& video = this->video();
  const auto& ladder = video.ladder();
  const double chunk_s = sim::to_seconds(video.chunk_duration());

  // Part 1: super-chunk cost per quality level -> regular VRA choice.
  std::vector<double>& level_kbps = workspace.level_kbps;
  level_kbps.clear();
  for (media::QualityLevel q = 0; q < ladder.levels(); ++q) {
    std::int64_t bytes = 0;
    for (geo::TileId tile : predicted_fov) {
      const media::ChunkKey key{tile, index};
      bytes += (fov_encoding() == media::Encoding::kSvc)
                   ? video.svc_cumulative_size_bytes(q, key)
                   : video.avc_size_bytes(q, key);
    }
    level_kbps.push_back(static_cast<double>(bytes) * 8.0 / chunk_s / 1000.0);
  }
  const media::QualityLevel q_fov =
      regular_vra_level(level_kbps, estimated_kbps, pinned_);

  out.index = index;
  out.fov_quality = q_fov;
  out.fetches.clear();

  for (geo::TileId tile : predicted_fov) {
    const double prob = tile_probabilities[static_cast<std::size_t>(tile)];
    const media::ChunkKey key{tile, index};
    if (fov_encoding() == media::Encoding::kAvc) {
      out.fetches.push_back(
          {{key, media::Encoding::kAvc, q_fov}, SpatialClass::kFov, prob});
    } else {
      for (media::LayerIndex l = 0; l <= q_fov; ++l) {
        out.fetches.push_back(
            {{key, media::Encoding::kSvc, l}, SpatialClass::kFov, prob});
      }
    }
  }

  // Part 2: OOS margin.
  oos_.select(out, video, predicted_fov, tile_probabilities, oos_encoding(),
              workspace.oos);
}

void SperkeVra::decide_upgrade(const media::ChunkKey& key,
                               media::QualityLevel current,
                               media::QualityLevel svc_layer_base,
                               media::QualityLevel target,
                               double visible_probability,
                               sim::Duration time_to_deadline,
                               double estimated_kbps, UpgradeDecision& out) const {
  if (target <= current) return;
  if (config_.mode == EncodingMode::kAvcNoUpgrade) return;
  if (time_to_deadline <= sim::Duration{0}) return;
  // Too early: HMP may still change; wait until inside the upgrade window.
  if (time_to_deadline > kUpgradeWindow) return;
  const double lift = visible_probability * video().tile_count();
  if (lift < kUpgradeProbThreshold) return;
  const double gain = video().ladder().utility(target) -
                      video().ladder().utility(std::max(current, 0));
  if (lift * gain < kUpgradeMinBenefit) return;

  // Candidate paths: a delta stack on the buffered SVC base, or a full AVC
  // refetch of the target quality. SVC mode takes the delta, refetch mode
  // the full copy, hybrid whichever is cheaper from the buffered state.
  std::int64_t delta_bytes = 0;
  for (media::LayerIndex l = svc_layer_base + 1; l <= target; ++l) {
    delta_bytes += video().svc_layer_size_bytes(l, key);
  }
  const std::int64_t refetch_bytes = video().avc_size_bytes(target, key);
  const bool delta = config_.mode == EncodingMode::kSvc ||
                     (config_.mode == EncodingMode::kHybrid &&
                      delta_bytes <= refetch_bytes);
  // A base already at the target leaves no delta to fetch.
  if (delta && svc_layer_base >= target) return;
  const std::int64_t bytes = delta ? delta_bytes : refetch_bytes;

  // Feasibility: the bytes must arrive inside the safety-discounted slack.
  if (estimated_kbps <= 0.0) return;
  const double download_s = static_cast<double>(bytes) * 8.0 / (estimated_kbps * 1000.0);
  if (download_s > kUpgradeSafety * sim::to_seconds(time_to_deadline)) return;
  out.upgrade = true;
  out.bytes = bytes;
  if (!delta) {
    out.fetches.push_back({key, media::Encoding::kAvc, target});
    return;
  }
  for (media::LayerIndex l = svc_layer_base + 1; l <= target; ++l) {
    out.fetches.push_back({key, media::Encoding::kSvc, l});
  }
}

}  // namespace sperke::abr
