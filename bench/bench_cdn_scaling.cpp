// CDN edge-cache scaling sweep (DESIGN.md §15, EXPERIMENTS.md R4): how the
// shared edge behaves as the user population behind it grows, and what
// crowd-driven warming buys in the first minute.
//
// Arm 1 — population sweep: one edge, N ∈ {8, 16, 32} sessions behind it
// (4 per access link). As N grows the sessions' request streams overlap
// more, so the edge hit-rate rises and the per-user origin egress falls —
// the multi-tier claim the cdn/ module exists to demonstrate.
//
// Arm 2 — warming: the same world cold vs pre-warmed from a crowd heatmap
// built from the exact trace pool the sessions play (a best-case prior),
// measured over the first minute only — the window where a cold cache pays
// its compulsory misses.
//
// Everything is a deterministic simulation: hit/miss/egress counts are
// bit-stable across machines, so bench/baselines/cdn_scaling.json is gated
// by tools/bench_compare.py — *hit_rate rows via --higher-better (a drop
// beyond threshold = the cache tier regressed), egress rows in the default
// lower-is-better direction.
//
// Usage: bench_cdn_scaling [--smoke] [--json PATH]
//
//   --smoke      smallest population + the warming pair only
//   --json PATH  google-benchmark-compatible JSON for bench_compare.py
//
// Any other argument prints the usage line and exits 2.
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"
#include "engine/engine.h"
#include "engine/world.h"
#include "hmp/head_trace.h"
#include "hmp/heatmap.h"
#include "media/video_model.h"
#include "net/bandwidth_trace.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace {

using namespace sperke;

engine::WorldSpec edge_world(int sessions) {
  engine::WorldSpec spec = bench::fleet_world();
  spec.link.bandwidth = net::BandwidthTrace::constant(20'000.0);
  spec.sessions_per_link = 4;
  spec.sessions = sessions;
  spec.shards = 1;  // one edge => one partition unit

  // One edge for the whole fleet, whatever its size.
  spec.cdn.sessions_per_edge = sessions;
  spec.cdn.backhaul.name = "backhaul";
  spec.cdn.backhaul.bandwidth = net::BandwidthTrace::constant(100'000.0);
  spec.cdn.backhaul.rtt = sim::milliseconds(20);
  spec.cdn.cache_capacity_bytes = 64LL << 20;
  return spec;
}

struct CellResult {
  std::int64_t hits = 0;
  std::int64_t misses = 0;
  std::int64_t coalesced = 0;
  std::int64_t warmed = 0;
  double egress_mb = 0.0;
  int completed = 0;

  [[nodiscard]] double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

CellResult run_cell(const engine::WorldSpec& spec) {
  engine::EngineResult result = engine::run_world(spec, {.threads = 1});
  CellResult cell;
  const auto counter = [&result](const char* name) {
    const obs::Counter* c = result.metrics.find_counter(name);
    return c == nullptr ? std::int64_t{0} : c->value();
  };
  cell.hits = counter("cdn.edge.hits");
  cell.misses = counter("cdn.edge.misses");
  cell.coalesced = counter("cdn.edge.coalesced");
  cell.warmed = counter("cdn.edge.warmed");
  cell.egress_mb =
      static_cast<double>(counter("cdn.origin.egress_bytes")) / 1e6;
  cell.completed = result.completed;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  bench::parse_args(argc, argv, "bench_cdn_scaling [--smoke] [--json PATH]",
                    {{.name = "--smoke", .on = &smoke},
                     {.name = "--json", .value = &json_path}});

  std::vector<bench::BaselineRow> rows;

  // Arm 1: population sweep behind one shared edge.
  const std::vector<int> populations = smoke ? std::vector<int>{8}
                                             : std::vector<int>{8, 16, 32};
  std::printf("CDN edge scaling: one edge, 4 sessions per access link\n");
  std::printf("  %5s %8s %8s %9s %7s %10s %12s %6s\n", "users", "hits",
              "misses", "coalesce", "hit %", "egress MB", "MB per user",
              "done");
  for (const int users : populations) {
    const CellResult cell = run_cell(edge_world(users));
    const double mb_per_user = cell.egress_mb / users;
    std::printf("  %5d %8lld %8lld %9lld %6.1f%% %10.1f %12.2f %4d/%d\n",
                users, static_cast<long long>(cell.hits),
                static_cast<long long>(cell.misses),
                static_cast<long long>(cell.coalesced), 100.0 * cell.hit_rate(),
                cell.egress_mb, mb_per_user, cell.completed, users);
    const std::string prefix = "CdnScaling/users=" + std::to_string(users);
    rows.push_back({prefix + "/hit_rate", cell.hit_rate()});
    rows.push_back({prefix + "/origin_mb_per_user", mb_per_user});
  }

  // Arm 2: crowd-warmed vs cold cache over the first minute.
  engine::WorldSpec cold = edge_world(8);
  cold.horizon = sim::seconds(60.0);
  const media::VideoModel video(cold.video);
  hmp::ViewingHeatmap crowd(video.tile_count(), video.chunk_count());
  for (const hmp::HeadTrace& trace : engine::build_trace_pool(cold)) {
    crowd.add_trace(trace, video.geometry(), {100.0, 90.0},
                    video.chunk_duration());
  }
  engine::WorldSpec warm = cold;
  warm.crowd = &crowd;
  warm.cdn.warm_tiles_per_chunk = video.tile_count();
  warm.cdn.warm_level = 0;

  const CellResult cold_cell = run_cell(cold);
  const CellResult warm_cell = run_cell(warm);
  std::printf("\nFirst-minute warming (8 users, top-%d tiles per chunk):\n",
              warm.cdn.warm_tiles_per_chunk);
  std::printf("  cold  hit-rate %5.1f%%  egress %6.1f MB\n",
              100.0 * cold_cell.hit_rate(), cold_cell.egress_mb);
  std::printf("  warm  hit-rate %5.1f%%  egress %6.1f MB  (%lld warmed)\n",
              100.0 * warm_cell.hit_rate(), warm_cell.egress_mb,
              static_cast<long long>(warm_cell.warmed));
  rows.push_back({"CdnScaling/cold/first_minute_hit_rate",
                  cold_cell.hit_rate()});
  rows.push_back({"CdnScaling/warm/first_minute_hit_rate",
                  warm_cell.hit_rate()});

  if (!json_path.empty()) {
    bench::write_baseline_json(
        json_path, R"({"executable": "bench_cdn_scaling"})", rows);
  }
  return 0;
}
