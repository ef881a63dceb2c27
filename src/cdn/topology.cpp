#include "cdn/topology.h"

#include <array>
#include <stdexcept>
#include <utility>

#include "util/check.h"

namespace sperke::cdn {

namespace {

std::string joined_field_names() {
  std::string out;
  for (std::string_view f : topology_field_names()) {
    if (!out.empty()) out += ", ";
    out += f;
  }
  return out;
}

[[noreturn]] void fail_field(const std::string& message) {
  throw std::invalid_argument("TopologySpec: " + message +
                              "; valid fields: " + joined_field_names());
}

}  // namespace

std::span<const std::string_view> topology_field_names() noexcept {
  static constexpr std::array<std::string_view, 6> kNames = {
      "sessions_per_edge",    "backhaul",             "cache_policy",
      "cache_capacity_bytes", "warm_tiles_per_chunk", "warm_level"};
  return kNames;
}

void validate(const TopologySpec& spec, int sessions_per_link,
              const hmp::ViewingHeatmap* crowd,
              const media::VideoModelConfig& video) {
  if (!spec.enabled()) {
    if (spec.sessions_per_edge < 0) {
      fail_field("sessions_per_edge < 0 (0 disables the CDN tier)");
    }
    return;
  }
  SPERKE_CHECK(sessions_per_link > 0,
               "cdn::validate: sessions_per_link must be positive");
  if (spec.sessions_per_edge % sessions_per_link != 0) {
    fail_field("sessions_per_edge (= " + std::to_string(spec.sessions_per_edge) +
               ") must be a multiple of sessions_per_link (= " +
               std::to_string(sessions_per_link) +
               ") so whole link groups share an edge");
  }
  if (spec.cache_capacity_bytes <= 0) {
    fail_field("cache_capacity_bytes must be positive when the tier is enabled");
  }
  if (spec.cache_policy != "lru") {
    fail_field("cache_policy: unknown cache policy \"" + spec.cache_policy +
               "\"; the edge cache is LRU, so the only valid name is lru");
  }
  try {
    net::validate(spec.backhaul);
  } catch (const std::invalid_argument& e) {
    fail_field("backhaul: " + std::string(e.what()));
  }
  if (spec.warm_tiles_per_chunk < 0) {
    fail_field("warm_tiles_per_chunk < 0");
  }
  if (spec.warm_tiles_per_chunk > 0) {
    if (crowd == nullptr) {
      fail_field("warm_tiles_per_chunk > 0 needs a crowd heatmap "
                 "(WorldSpec::crowd) to rank tiles");
    }
    const std::int64_t tiles =
        std::int64_t{video.tile_rows} * video.tile_cols;  // not yet validated
    if (crowd->tile_count() != tiles) {
      fail_field("warm_tiles_per_chunk > 0 needs a crowd heatmap of the "
                 "video's " + std::to_string(tiles) + " tiles (it has " +
                 std::to_string(crowd->tile_count()) + ")");
    }
    if (!video.ladder.valid_level(spec.warm_level)) {
      fail_field("warm_level (= " + std::to_string(spec.warm_level) +
                 ") must be a rung of the video's " +
                 std::to_string(video.ladder.levels()) + "-rung ladder");
    }
  }
}

Topology::Topology(sim::Simulator& simulator, const TopologySpec& spec,
                   obs::Telemetry* telemetry, const media::VideoModel* video,
                   const hmp::ViewingHeatmap* crowd)
    : simulator_(simulator),
      spec_(spec),
      telemetry_(telemetry),
      video_(video),
      crowd_(crowd) {}

net::ChunkSource& Topology::add_group(int edge, net::LinkConfig access) {
  access_links_.push_back(
      std::make_unique<net::Link>(simulator_, std::move(access)));
  net::Link& link = *access_links_.back();
  if (!spec_.enabled() || edge < 0) return link;
  sources_.push_back(std::make_unique<EdgeSource>(link, edge_for(edge)));
  return *sources_.back();
}

Edge& Topology::edge_for(int edge_id) {
  auto it = edge_index_.find(edge_id);
  if (it != edge_index_.end()) return *edges_[it->second];
  backhaul_links_.push_back(
      std::make_unique<net::Link>(simulator_, spec_.backhaul));
  edges_.push_back(std::make_unique<Edge>(
      *backhaul_links_.back(), spec_.cache_capacity_bytes, telemetry_));
  edge_index_.emplace(edge_id, edges_.size() - 1);
  Edge& built = *edges_.back();
  if (spec_.warm_tiles_per_chunk > 0) {
    SPERKE_CHECK(video_ != nullptr && crowd_ != nullptr,
                 "Topology: warming requires a video model and a crowd heatmap");
    built.warm(*video_, *crowd_, spec_.warm_tiles_per_chunk, spec_.warm_level);
  }
  return built;
}

}  // namespace sperke::cdn
