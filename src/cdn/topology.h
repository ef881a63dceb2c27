// Declarative CDN topology and its per-shard materializer (DESIGN.md §15).
//
// TopologySpec is the section engine::WorldSpec embeds: it says how many
// consecutive sessions share one edge, what the edge's backhaul link looks
// like, which cache policy/budget the edge runs, and how aggressively the
// crowd heatmap pre-warms it. sessions_per_edge == 0 disables the tier —
// every link group then fetches straight off its access net::Link, byte-
// identical to the pre-CDN engine.
//
// Topology is the builder a shard owns: it constructs every net::Link the
// shard's sessions touch (access links and backhauls — the only places
// outside src/net that links are born, which the link-construction lint
// rule enforces) and hands each link group the ChunkSource its transport
// should consume. Determinism: the engine partitions whole edges onto
// shards (engine::shard_of_group), so an edge's cache dynamics depend only
// on its own groups' sessions — never on which thread runs the shard.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cdn/cache.h"
#include "cdn/edge.h"
#include "hmp/heatmap.h"
#include "media/chunk.h"
#include "media/video_model.h"
#include "net/chunk_source.h"
#include "net/link.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace sperke::cdn {

struct TopologySpec {
  // Consecutive link groups covering this many sessions share one edge
  // (cache + backhaul). Must be a positive multiple of the world's
  // sessions_per_link when enabled; 0 disables the CDN tier.
  int sessions_per_edge = 0;

  // Backhaul (edge -> origin) link, one per edge built from this config.
  // Backhaul faults ride in the config's FaultPlan.
  net::LinkConfig backhaul;

  // Edge cache: eviction policy name and byte budget. The edge cache is
  // LRU, so "lru" is the only name validate() accepts.
  std::string cache_policy = "lru";
  std::int64_t cache_capacity_bytes = 256LL * 1024 * 1024;

  // Crowd-driven warming: preload the AVC copies at `warm_level` of the
  // top-N tiles per chunk from the world's hmp::ViewingHeatmap before any
  // session starts. 0 = cold cache.
  int warm_tiles_per_chunk = 0;
  std::int32_t warm_level = 0;

  [[nodiscard]] bool enabled() const { return sessions_per_edge > 0; }
};

// The section's field names, as every validation error lists them. Views
// into a constexpr table — no shared mutable state (sperke_analyze).
[[nodiscard]] std::span<const std::string_view> topology_field_names() noexcept;

// Throws std::invalid_argument on a nonsensical section; every message
// names the offending field and lists the valid field names (the
// abr::validate_policy_name convention). Warming needs `crowd` (nullable:
// the embedding world's heatmap) to cover the tiles of `video`, and
// warm_level to be a rung of its ladder.
void validate(const TopologySpec& spec, int sessions_per_link,
              const hmp::ViewingHeatmap* crowd,
              const media::VideoModelConfig& video);

// Per-shard fetch fabric: owns the shard's access links, backhaul links,
// edges and EdgeSources. Build order is the caller's ascending group
// order, which makes link/edge construction deterministic per shard.
class Topology {
 public:
  // All referees must outlive the topology. `telemetry` is nullable (no
  // cdn.* counters); `video`/`crowd` are nullable and only read when the
  // spec warms (validate() guarantees crowd exists when warming is on).
  Topology(sim::Simulator& simulator, const TopologySpec& spec,
           obs::Telemetry* telemetry, const media::VideoModel* video,
           const hmp::ViewingHeatmap* crowd);
  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  // Build the access link for one client link group and return the
  // ChunkSource its transport should consume: an EdgeSource through edge
  // `edge` when the tier is enabled (the edge and its backhaul are created
  // and warmed on first use), else the access link itself. `edge` < 0
  // forces the direct path.
  net::ChunkSource& add_group(int edge, net::LinkConfig access);

  // Access links in add_group order (for the engine's fault observability).
  [[nodiscard]] int access_link_count() const {
    return static_cast<int>(access_links_.size());
  }
  [[nodiscard]] const net::Link& access_link(int index) const {
    return *access_links_[static_cast<std::size_t>(index)];
  }

  // Edges in creation (first-use) order.
  [[nodiscard]] int edge_count() const { return static_cast<int>(edges_.size()); }
  [[nodiscard]] const Edge& edge(int index) const {
    return *edges_[static_cast<std::size_t>(index)];
  }

 private:
  [[nodiscard]] Edge& edge_for(int edge_id);

  sim::Simulator& simulator_;
  const TopologySpec& spec_;
  obs::Telemetry* telemetry_;
  const media::VideoModel* video_;
  const hmp::ViewingHeatmap* crowd_;
  std::vector<std::unique_ptr<net::Link>> access_links_;
  std::vector<std::unique_ptr<net::Link>> backhaul_links_;
  std::vector<std::unique_ptr<Edge>> edges_;
  std::map<int, std::size_t> edge_index_;  // edge id -> edges_ slot
  std::vector<std::unique_ptr<EdgeSource>> sources_;
};

}  // namespace sperke::cdn
