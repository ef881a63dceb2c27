// Allocation gate for the fetch path (DESIGN.md §13). Once warm, a fetch
// from core::Viewer::dispatch to its on_settle, through a
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
#include <vector>

#include "cdn/edge.h"
#include "core/session.h"
#include "core/transport.h"
#include "hmp/head_trace.h"
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

// One player's fetch path: a never-started Viewer over its own
// `transport`, counting what reaches on_settle. The buffer is never filled,
// so an address can be fetched again once it settles. The config is a
// parameter because GCC 12 at -O3 misreports a SessionConfig temporary
// built in the initializer list as maybe-uninitialized.
class Client : public Viewer {
 public:
  Client(sim::Simulator& simulator, std::shared_ptr<const media::VideoModel> video,
         ChunkTransport& transport, const hmp::HeadTrace& head,
         SessionConfig config = {})
      : Viewer(simulator, std::move(video), transport, head, std::move(config),
               /*crowd=*/nullptr, /*batch=*/nullptr, sim::seconds(1.0)) {}

  void fetch(const ChunkAddress& address, sim::Time now) {
    dispatch(address, abr::SpatialClass::kFov, now + sim::seconds(10.0));
  }

  int settled = 0;
  int completed = 0;

 private:
  [[nodiscard]] sim::Time content_now() const override { return sim::kTimeZero; }
  [[nodiscard]] sim::Time deadline_of(media::ChunkIndex /*index*/) const override {
    return sim::kTimeZero;
  }
  [[nodiscard]] media::ChunkIndex first_unplayed() const override { return 0; }
  void on_settle(const Fetch& /*fetch*/, FetchOutcome outcome) override {
    ++settled;
    if (delivered(outcome)) ++completed;
  }
};

// A viewer that never turns its head.
hmp::HeadTrace still_head() { return hmp::HeadTrace({{sim::kTimeZero, {}}}, 25.0); }

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
  const hmp::HeadTrace head = still_head();
  SingleLinkTransport first_transport(source);
  SingleLinkTransport second_transport(source);
  Client first(simulator, video, first_transport, head);
  Client second(simulator, video, second_transport, head);
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
  const hmp::HeadTrace head = still_head();
  SingleLinkTransport transport(link);
  Client client(simulator, video, transport, head);
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
