// Microbenchmarks (google-benchmark) for the hot paths of the streaming
// stack: FoV visibility sampling, fusion probability maps, VRA and knapsack
// planning, and the fluid link's reflow under concurrent transfers. These
// guard against performance regressions — the client-side logic must stay
// far cheaper than the 4-10 ms frame budget it models.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "abr/factory.h"
#include "geo/visibility.h"
#include "hmp/fusion.h"
#include "hmp/head_trace.h"
#include "media/video_model.h"
#include "net/link.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace {

using namespace sperke;

std::shared_ptr<geo::TileGeometry> geometry_for(int rows, int cols) {
  return std::make_shared<geo::TileGeometry>(geo::TileGrid(rows, cols));
}

void BM_VisibleTiles(benchmark::State& state) {
  const auto geometry = geometry_for(static_cast<int>(state.range(0)),
                                     static_cast<int>(state.range(1)));
  const geo::Viewport viewport{100.0, 90.0};
  double yaw = 0.0;
  for (auto _ : state) {
    yaw += 7.3;
    benchmark::DoNotOptimize(
        geometry->visible_tiles({yaw, 10.0, 0.0}, viewport));
  }
}
BENCHMARK(BM_VisibleTiles)->Args({4, 6})->Args({8, 12});

void BM_OosRings(benchmark::State& state) {
  const auto geometry = geometry_for(8, 12);
  const auto visible = geometry->visible_tiles({0.0, 0.0, 0.0}, {100.0, 90.0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(geometry->oos_rings(visible));
  }
}
BENCHMARK(BM_OosRings);

void BM_FusionProbabilities(benchmark::State& state) {
  const auto geometry = geometry_for(4, 6);
  hmp::FusionPredictor fusion(geometry, {100.0, 90.0},
                              hmp::make_orientation_predictor("linear-regression"),
                              nullptr, {});
  for (int i = 0; i < 25; ++i) {
    fusion.observe({sim::milliseconds(40 * i), {i * 1.0, 0.0, 0.0}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fusion.tile_probabilities(sim::seconds(1.0), 0));
  }
}
BENCHMARK(BM_FusionProbabilities);

void BM_PlanChunk(benchmark::State& state) {
  media::VideoModelConfig cfg;
  cfg.duration_s = 30.0;
  cfg.tile_rows = 4;
  cfg.tile_cols = 6;
  auto video = std::make_shared<media::VideoModel>(cfg);
  const auto policy = abr::make_policy(video, {});
  const auto fov = video->geometry().visible_tiles({0.0, 0.0, 0.0}, {100.0, 90.0});
  std::vector<double> probs(static_cast<std::size_t>(video->tile_count()),
                            1.0 / video->tile_count());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy->plan_chunk(3, fov, probs, 15'000.0, sim::seconds(2.0), 2));
  }
}
BENCHMARK(BM_PlanChunk);

void BM_KnapsackPlan(benchmark::State& state) {
  // The knapsack greedy on a non-uniform map: the visible tiles dominate
  // and the rest spread over 0.002..0.014, some below the 0.005 entry
  // floor. The budget leaves part of the ladder unreachable.
  media::VideoModelConfig cfg;
  cfg.duration_s = 30.0;
  cfg.tile_rows = static_cast<int>(state.range(0));
  cfg.tile_cols = static_cast<int>(state.range(1));
  auto video = std::make_shared<media::VideoModel>(cfg);
  abr::TileAbrConfig config;
  config.policy = "knapsack";
  const auto policy = abr::make_policy(video, config);
  const auto fov =
      video->geometry().visible_tiles({0.0, 0.0, 0.0}, {100.0, 90.0});
  std::vector<double> probs(static_cast<std::size_t>(video->tile_count()));
  for (std::size_t t = 0; t < probs.size(); ++t) {
    probs[t] = 0.002 * static_cast<double>(1 + t % 7);
  }
  for (geo::TileId t : fov) probs[static_cast<std::size_t>(t)] = 0.2;
  abr::TileAbrPolicy::PlanWorkspace workspace;
  abr::ChunkPlan plan;
  for (auto _ : state) {
    policy->plan_chunk_into(3, fov, probs, 15'000.0, sim::seconds(2.0), 2,
                            workspace, plan);
    benchmark::DoNotOptimize(plan.fetches.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_KnapsackPlan)->Args({4, 6})->Args({8, 12});

void BM_LinkReflowUnderLoad(benchmark::State& state) {
  // Cost of running a full simulated second with N concurrent transfers
  // churning on one link.
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulator simulator;
    net::Link link(simulator,
                   net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(50'000.0),
                                   .rtt = sim::milliseconds(10), .faults = {}});
    for (int i = 0; i < n; ++i) {
      // Staggered small transfers keep the active set changing.
      simulator.schedule_at(sim::milliseconds(i * 7), [&link] {
        link.fetch({.id = {}, .bytes = 60'000},
                   [&link](const net::TransferResult&) {
          link.fetch({.id = {}, .bytes = 60'000},
                     [](const net::TransferResult&) {});
        });
      });
    }
    simulator.run_until(sim::seconds(1.0));
    benchmark::DoNotOptimize(link.bytes_delivered());
  }
}
BENCHMARK(BM_LinkReflowUnderLoad)->Arg(8)->Arg(64);

void BM_LinkWarmupHeavy(benchmark::State& state) {
  // The link shape of perfbench's vod_direct: a session's tile bursts keep
  // about 15 transfers unsettled on a 100 Mbps, 30 ms link, only about 2 of
  // them past their RTT warmup. Bursts of 7 small transfers every 16 ms,
  // one simulated second per iteration (434 transfers).
  for (auto _ : state) {
    sim::Simulator simulator;
    net::Link link(simulator,
                   net::LinkConfig{.bandwidth = net::BandwidthTrace::constant(100'000.0),
                                   .rtt = sim::milliseconds(30), .faults = {}});
    for (int burst = 0; burst < 62; ++burst) {
      simulator.schedule_at(sim::milliseconds(burst * 16), [&link] {
        for (int k = 0; k < 7; ++k) {
          link.fetch({.id = {}, .bytes = 12'000, .weight = 1.0 + k % 3},
                     [](const net::TransferResult&) {});
        }
      });
    }
    simulator.run_until(sim::seconds(1.0));
    benchmark::DoNotOptimize(link.bytes_delivered());
  }
}
BENCHMARK(BM_LinkWarmupHeavy);

void BM_SimulatorEventQueue(benchmark::State& state) {
  // Calendar-queue throughput: a schedule/cancel/pop mix over 1e6 events.
  // Arg 0 selects the timestamp distribution: 0 = uniform over a wide
  // horizon (events spread across many buckets), 1 = bursty (batches
  // land on shared instants, stressing the per-bucket FIFO chains and the
  // width heuristic). Roughly one in eight events is cancelled instead of
  // fired, exercising the O(bucket) cancel path.
  const bool bursty = state.range(0) != 0;
  constexpr int kEvents = 1'000'000;
  constexpr int kWindow = 4096;  // live events the driver keeps in flight
  for (auto _ : state) {
    sim::Simulator simulator;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;  // splitmix64 stream
    auto next = [&rng] {
      std::uint64_t z = (rng += 0x9e3779b97f4a7c15ull);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
      return z ^ (z >> 31);
    };
    std::uint64_t fired = 0;
    std::vector<sim::EventId> window;
    window.reserve(kWindow);
    int scheduled = 0;
    auto schedule_one = [&] {
      const std::uint64_t r = next();
      const sim::Duration delay =
          bursty ? sim::milliseconds(static_cast<std::int64_t>(r % 16) * 10)
                 : sim::Duration{static_cast<std::int64_t>(r % 10'000'000)};
      window.push_back(
          simulator.schedule_after(delay, [&fired] { ++fired; }));
      ++scheduled;
    };
    for (int i = 0; i < kWindow; ++i) schedule_one();
    while (scheduled < kEvents) {
      // Pop a batch, then refill; cancel one of every eight refills.
      simulator.run_until(simulator.now());  // drain everything due now
      const std::size_t pending = simulator.pending_events();
      while (scheduled < kEvents &&
             simulator.pending_events() < pending + kWindow / 4) {
        schedule_one();
        if ((scheduled & 7) == 0 && !window.empty()) {
          simulator.cancel(window[next() % window.size()]);
        }
      }
      simulator.run();
      window.clear();
    }
    simulator.run();
    benchmark::DoNotOptimize(fired);
    benchmark::DoNotOptimize(simulator.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_SimulatorEventQueue)->Arg(0)->Arg(1);

void BM_MetricsUpdate(benchmark::State& state) {
  // Cost of one counter bump + one histogram observation through stable
  // handles — what an instrumented hot path pays with telemetry attached.
  obs::Telemetry telemetry;
  obs::Counter& counter = telemetry.metrics().counter("bench.counter");
  obs::Histogram& histogram = telemetry.metrics().histogram("bench.histogram");
  double x = 0.0;
  for (auto _ : state) {
    counter.increment();
    histogram.observe(x += 1.5);
    benchmark::DoNotOptimize(counter.value());
  }
}
BENCHMARK(BM_MetricsUpdate);

void BM_TraceRecord(benchmark::State& state) {
  // Cost of appending one typed timeline event to an attached recorder.
  obs::Telemetry telemetry;
  std::int64_t ts = 0;
  for (auto _ : state) {
    telemetry.trace().record({.type = obs::TraceEventType::kFetchDone,
                              .ts = sim::Time{++ts},
                              .tile = 3,
                              .chunk = 7,
                              .quality = 2,
                              .bytes = 100'000});
    if (telemetry.trace().size() >= (std::size_t{1} << 20)) telemetry.trace().clear();
  }
  benchmark::DoNotOptimize(telemetry.trace().size());
}
BENCHMARK(BM_TraceRecord);

void BM_HeadTraceGeneration(benchmark::State& state) {
  hmp::HeadTraceConfig cfg;
  cfg.duration_s = 60.0;
  cfg.attractors = hmp::default_attractors(60.0, 3);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    cfg.seed = ++seed;
    benchmark::DoNotOptimize(hmp::generate_head_trace(cfg));
  }
}
BENCHMARK(BM_HeadTraceGeneration);

}  // namespace

BENCHMARK_MAIN();
