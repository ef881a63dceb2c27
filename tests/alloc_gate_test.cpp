// Allocation gate for the fetch path (DESIGN.md §13). Once warm, a fetch
// from TileFetcher::dispatch to the settle hook, through a
// SingleLinkTransport over a CDN edge (a hit, a miss and a coalesced join)
// or over a bare link, may perform at most one heap allocation. Every
// callback on the way is a util::InlineFunction sized for its closure, so
// what is left is container churn (the transport's queue nodes, the edge
// cache's index node on a miss).
//
// The binary replaces the global operator new to count allocations, so it
// holds this test alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "abr/factory.h"
#include "cdn/edge.h"
#include "core/buffer.h"
#include "core/tile_fetcher.h"
#include "core/transport.h"
#include "media/video_model.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace {

std::int64_t g_allocations = 0;

}  // namespace

// Out of line: inlined into a library deallocation, free() on memory from
// operator new trips GCC's -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept {
  std::free(p);
}

namespace sperke::core {
namespace {

using media::ChunkAddress;
using media::Encoding;

std::shared_ptr<media::VideoModel> make_video() {
  media::VideoModelConfig cfg;
  cfg.duration_s = 20.0;
  cfg.tile_rows = 2;
  cfg.tile_cols = 4;
  cfg.seed = 7;
  return std::make_shared<media::VideoModel>(cfg);
}

net::LinkConfig link_config(double kbps) {
  return {.name = "link",
          .bandwidth = net::BandwidthTrace::constant(kbps),
          .rtt = sim::milliseconds(20),
          .loss_rate = 0.0,
          .faults = {}};
}

// One player's fetch path: a TileFetcher over its own SingleLinkTransport
// on `source`, counting what reaches the settle hook. The buffer is never
// filled, so an address can be fetched again once it settles.
struct Client {
  Client(sim::Simulator& simulator, std::shared_ptr<const media::VideoModel> video,
         net::ChunkSource& source)
      : transport(source),
        buffer(video),
        policy(abr::make_policy(video, {})),
        in_flight(static_cast<std::size_t>(video->chunk_count() * video->tile_count())),
        fetcher(simulator, *video, transport, buffer, *policy, nullptr,
                std::span<std::uint64_t>(in_flight), sim::seconds(1.0),
                /*recovery=*/false,
                [this](const TileFetcher::Fetch&, FetchOutcome outcome) {
                  ++settled;
                  if (delivered(outcome)) ++completed;
                }) {}

  void fetch(const ChunkAddress& address, sim::Time now) {
    fetcher.dispatch(address, abr::SpatialClass::kFov, now + sim::seconds(10.0));
  }

  SingleLinkTransport transport;
  PlaybackBuffer buffer;
  std::unique_ptr<abr::TileAbrPolicy> policy;
  std::vector<std::uint64_t> in_flight;
  TileFetcher fetcher;
  int settled = 0;
  int completed = 0;
};

// Allocations per settled fetch over `cycles` rounds of `round`, each run
// until everything settles, after `warmup` rounds that grow every table to
// its steady size.
template <typename Round>
double allocations_per_fetch(sim::Simulator& simulator, int warmup, int cycles,
                             const std::vector<Client*>& clients, Round round) {
  for (int i = 0; i < warmup; ++i) {
    round(i);
    simulator.run();
  }
  int settled_before = 0;
  for (const Client* client : clients) settled_before += client->settled;
  const std::int64_t before = g_allocations;
  for (int i = warmup; i < warmup + cycles; ++i) {
    round(i);
    simulator.run();
  }
  const std::int64_t allocations = g_allocations - before;
  int settled = -settled_before;
  for (const Client* client : clients) settled += client->settled;
  return static_cast<double>(allocations) / static_cast<double>(settled);
}

constexpr int kWarmup = 200;
constexpr int kCycles = 1000;

TEST(FetchPathAllocations, EdgeHitMissAndCoalescedJoin) {
  sim::Simulator simulator;
  const auto video = make_video();
  net::Link backhaul(simulator, link_config(200'000.0));
  net::Link access(simulator, link_config(100'000.0));
  // Room for the hot object and a few cold ones: every cold address
  // recurs only after many others, so it is always a miss.
  const ChunkAddress hot{{0, 0}, Encoding::kAvc, 0};
  std::int64_t largest = 0;
  for (geo::TileId tile = 0; tile < video->tile_count(); ++tile) {
    for (media::ChunkIndex chunk = 0; chunk < video->chunk_count(); ++chunk) {
      largest = std::max(largest, video->size_bytes({{tile, chunk}, Encoding::kAvc, 1}));
    }
  }
  cdn::Edge edge(backhaul, 4 * largest, nullptr);
  cdn::EdgeSource source(access, edge);
  Client first(simulator, video, source);
  Client second(simulator, video, source);
  const auto cold = [&](int i) {
    const int cells = video->tile_count() * video->chunk_count();
    const int cell = 1 + i % (cells - 1);  // never the hot cell
    return ChunkAddress{{cell % video->tile_count(), cell / video->tile_count()},
                        Encoding::kAvc, 1};
  };
  const double per_fetch = allocations_per_fetch(
      simulator, kWarmup, kCycles, {&first, &second}, [&](int i) {
        first.fetch(hot, simulator.now());       // hit
        first.fetch(cold(i), simulator.now());   // miss: starts the fill
        second.fetch(cold(i), simulator.now());  // joins that fill
      });
  // The check build's double-fire detector records every link transfer:
  // per round, 3 fetches over 4 transfers (the hit's and two serves on the
  // access link, the fill on the backhaul).
  const double dcheck_allowance = SPERKE_DCHECK_IS_ON ? 4.0 / 3.0 : 0.0;
  EXPECT_LE(per_fetch, 1.0 + dcheck_allowance);
  const cdn::EdgeStats& stats = edge.stats();
  EXPECT_EQ(stats.hits, kWarmup + kCycles - 1);  // round 0 misses the hot object
  EXPECT_EQ(stats.coalesced, kWarmup + kCycles);
  EXPECT_EQ(first.completed + second.completed, 3 * (kWarmup + kCycles));
}

TEST(FetchPathAllocations, BareLink) {
  sim::Simulator simulator;
  const auto video = make_video();
  net::Link link(simulator, link_config(100'000.0));
  Client client(simulator, video, link);
  const double per_fetch = allocations_per_fetch(
      simulator, kWarmup, kCycles, {&client}, [&](int i) {
        for (geo::TileId tile = 0; tile < 3; ++tile) {
          client.fetch({{tile, i % video->chunk_count()}, Encoding::kAvc, 2},
                       simulator.now());
        }
      });
  const double dcheck_allowance = SPERKE_DCHECK_IS_ON ? 1.0 : 0.0;  // one per transfer
  EXPECT_LE(per_fetch, 1.0 + dcheck_allowance);
  EXPECT_EQ(client.completed, 3 * (kWarmup + kCycles));
}

}  // namespace
}  // namespace sperke::core
