// Experiment F5 — reproduces Figure 5: FPS of the Sperke player on a 2K
// video with 2x4 tiles and 8 parallel H.264-class decoders, in the paper's
// three configurations, plus the ablation rows our model makes possible.
//
// Paper values (SGS7): (1) 11 FPS, (2) 53 FPS, (3) 120 FPS (display cap).
// Both the analytic model and the event-driven pipeline simulation are
// reported; the event-driven numbers include FoV movement from a real
// synthetic head trace.
#include <iostream>
#include <memory>

#include "geo/visibility.h"
#include "hmp/head_trace.h"
#include "player/decoder_model.h"
#include "player/pipeline.h"
#include "sim/simulator.h"
#include "util/table.h"

namespace {

using namespace sperke;

struct Measured {
  double fps = 0.0;
  int misses = 0;
};

Measured measure(std::shared_ptr<const geo::TileGeometry> geometry,
                 const hmp::HeadTrace& trace, player::PipelineConfig pipeline,
                 bool margin_ring = false) {
  sim::Simulator simulator;
  player::PlayerSimulation::Config cfg;
  cfg.pipeline = pipeline;
  cfg.cache_margin_ring = margin_ring;
  player::PlayerSimulation sim_player(simulator, geometry, trace, cfg);
  sim_player.start();
  simulator.run_until(sim::seconds(20.0));
  return {sim_player.measured_fps(), sim_player.render_misses()};
}

}  // namespace

int main() {
  // The paper's setup: 2K video, 2x4 tiles, 8 decoders, SGS7 display.
  auto geometry = std::make_shared<geo::TileGeometry>(geo::TileGrid(2, 4));
  hmp::HeadTraceConfig trace_cfg;
  trace_cfg.duration_s = 30.0;
  trace_cfg.sample_rate_hz = 25.0;
  trace_cfg.profile = hmp::UserProfile::adult();
  trace_cfg.seed = 5;
  const auto trace = hmp::generate_head_trace(trace_cfg);

  const player::DecoderModelConfig model;
  const int all_tiles = geometry->grid().tile_count();
  const int fov_tiles = static_cast<int>(
      geometry->visible_tiles({0.0, 0.0, 0.0}, {100.0, 90.0}).size());

  std::cout << "Figure 5: Sperke player FPS (2K video, 2x4 tiles, 8 decoders)\n"
            << "(paper: config1 = 11, config2 = 53, config3 = 120 FPS)\n\n";
  TextTable table({"Configuration", "Analytic FPS", "Event-sim FPS"});

  struct Row {
    const char* name;
    player::PipelineConfig pipeline;
    int tiles;
  };
  const Row rows[] = {
      {"1. Render all tiles w/o optimization", {false, false, false}, all_tiles},
      {"   (ablation) parallel decode only", {true, false, false}, all_tiles},
      {"2. Render all tiles with optimization", {true, true, false}, all_tiles},
      {"3. Render only FoV tiles with optimization", {true, true, true}, fov_tiles},
  };
  for (const Row& row : rows) {
    table.add_row({row.name,
                   TextTable::num(player::analytic_fps(model, row.pipeline, row.tiles), 1),
                   TextTable::num(measure(geometry, trace, row.pipeline).fps, 1)});
  }
  std::cout << table.str() << '\n'
            << "FoV tiles at front-center: " << fov_tiles << " of " << all_tiles
            << "\n\n";

  // §3.5 cache-margin ablation: decoding one ring of margin tiles lets a
  // FoV shift reuse cached neighbours ("changing only the delta tiles")
  // instead of surprising the render loop. Evaluated where it matters — a
  // fast-moving head on a finer grid (margin cost is small, shifts common).
  auto fine_geometry = std::make_shared<geo::TileGeometry>(geo::TileGrid(4, 8));
  hmp::HeadTraceConfig fast_cfg;
  fast_cfg.duration_s = 30.0;
  fast_cfg.profile = hmp::UserProfile::teenager();
  fast_cfg.seed = 6;
  const auto fast_trace = hmp::generate_head_trace(fast_cfg);
  std::cout << "Decoded-frame-cache margin ablation (FoV-only, fast head, 4x8):\n";
  TextTable margin({"Margin ring", "FPS", "FoV-shift surprises / 20 s"});
  const auto without = measure(fine_geometry, fast_trace, {true, true, true}, false);
  const auto with = measure(fine_geometry, fast_trace, {true, true, true}, true);
  margin.add_row({"off", TextTable::num(without.fps, 1),
                  std::to_string(without.misses)});
  margin.add_row({"on", TextTable::num(with.fps, 1), std::to_string(with.misses)});
  std::cout << margin.str();
  return 0;
}
