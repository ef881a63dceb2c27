#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cdn/cache.h"
#include "cdn/edge.h"
#include "cdn/topology.h"
#include "geo/visibility.h"
#include "hmp/heatmap.h"
#include "media/chunk.h"
#include "media/video_model.h"
#include "net/chunk_source.h"
#include "net/link.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/rng.h"

namespace sperke::cdn {
namespace {

using media::ChunkAddress;
using net::TransferResult;
using net::TransferStatus;

// Shorthand for single-video AVC objects: the tests only need one axis.
ChunkAddress cid(std::int32_t tile, std::int32_t chunk = 0,
                 std::int32_t quality = 0) {
  return {.key = {.tile = tile, .index = chunk}, .level = quality};
}

net::LinkConfig link_config(const std::string& name, double kbps = 80'000.0) {
  net::LinkConfig config;
  config.name = name;
  config.bandwidth = net::BandwidthTrace::constant(kbps);
  config.rtt = sim::milliseconds(20);
  return config;
}

// ----------------------------------------------------------------- EdgeCache

TEST(EdgeCache, RejectsNonPositiveCapacity) {
  EXPECT_THROW(EdgeCache(0), std::invalid_argument);
  EXPECT_THROW(EdgeCache(-1), std::invalid_argument);
}

TEST(EdgeCache, LruGoldenEvictionSequence) {
  EdgeCache cache(300);
  EXPECT_EQ(cache.insert(cid(0), 100), 0);
  EXPECT_EQ(cache.insert(cid(1), 100), 0);
  EXPECT_EQ(cache.insert(cid(2), 100), 0);
  EXPECT_EQ(cache.used_bytes(), 300);

  // Touching 0 makes 1 the least recently used.
  EXPECT_TRUE(cache.touch(cid(0)));
  EXPECT_EQ(cache.insert(cid(3), 100), 1);
  EXPECT_FALSE(cache.contains(cid(1)));
  EXPECT_EQ(cache.resident(),
            (std::vector<ChunkAddress>{cid(0), cid(2), cid(3)}));

  // A 150-byte object displaces the two least recent residents: 2, then 0.
  EXPECT_EQ(cache.insert(cid(4), 150), 2);
  EXPECT_EQ(cache.resident(), (std::vector<ChunkAddress>{cid(3), cid(4)}));
  EXPECT_EQ(cache.used_bytes(), 250);
}

TEST(EdgeCache, ReinsertCountsAsTouch) {
  EdgeCache cache(300);
  (void)cache.insert(cid(0), 100);
  (void)cache.insert(cid(1), 100);
  EXPECT_EQ(cache.insert(cid(0), 100), 0);  // already resident: a touch
  EXPECT_EQ(cache.used_bytes(), 200);
  EXPECT_EQ(cache.size(), 2);
  // The re-insert refreshed 0's recency, so 1 is now the LRU victim.
  (void)cache.insert(cid(2), 100);
  EXPECT_EQ(cache.insert(cid(3), 100), 1);
  EXPECT_FALSE(cache.contains(cid(1)));
  EXPECT_TRUE(cache.contains(cid(0)));
}

TEST(EdgeCache, OversizedObjectIsNeverAdmitted) {
  EdgeCache cache(300);
  (void)cache.insert(cid(0), 100);
  EXPECT_EQ(cache.insert(cid(9), 301), -1);
  // Nothing was evicted to make room for an object that can never fit.
  EXPECT_TRUE(cache.contains(cid(0)));
  EXPECT_EQ(cache.used_bytes(), 100);
  EXPECT_EQ(cache.size(), 1);
}

TEST(EdgeCache, CapacityNearInt64MaxDoesNotOverflow) {
  // used + bytes would pass INT64_MAX: the budget check must compare
  // against what is left instead.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  constexpr std::int64_t kHalf = kMax / 2 + 1;
  EdgeCache cache(kMax);
  EXPECT_EQ(cache.insert(cid(0), kHalf), 0);
  EXPECT_EQ(cache.insert(cid(1), kHalf), 1);
  EXPECT_EQ(cache.resident(), (std::vector<ChunkAddress>{cid(1)}));
  EXPECT_EQ(cache.used_bytes(), kHalf);
  EXPECT_EQ(cache.insert(cid(2), kMax - kHalf), 0);
  EXPECT_EQ(cache.used_bytes(), kMax);
}

// The cache as it was first written: a std::map of entries and a std::set
// of (seq, id) eviction keys, seq a tick bumped by every touch and insert.
class OrderedReferenceCache {
 public:
  explicit OrderedReferenceCache(std::int64_t capacity) : capacity_(capacity) {}

  [[nodiscard]] bool contains(const ChunkAddress& id) const {
    return entries_.contains(id);
  }

  bool touch(const ChunkAddress& id) {
    auto it = entries_.find(id);
    if (it == entries_.end()) return false;
    order_.erase({it->second.seq, id});
    it->second.seq = ++clock_;
    order_.insert({it->second.seq, id});
    return true;
  }

  int insert(const ChunkAddress& id, std::int64_t bytes) {
    if (touch(id)) return 0;
    if (bytes > capacity_) return -1;
    int evicted = 0;
    while (bytes > capacity_ - used_) {
      const ChunkAddress victim = order_.begin()->second;
      order_.erase(order_.begin());
      used_ -= entries_.at(victim).bytes;
      entries_.erase(victim);
      ++evicted;
    }
    const Entry entry{.bytes = bytes, .seq = ++clock_};
    order_.insert({entry.seq, id});
    entries_.emplace(id, entry);
    used_ += bytes;
    return evicted;
  }

  [[nodiscard]] std::int64_t used_bytes() const { return used_; }
  [[nodiscard]] int size() const { return static_cast<int>(entries_.size()); }
  [[nodiscard]] std::vector<ChunkAddress> resident() const {
    std::vector<ChunkAddress> ids;
    for (const auto& [id, entry] : entries_) ids.push_back(id);
    return ids;
  }

 private:
  struct Entry {
    std::int64_t bytes = 0;
    std::uint64_t seq = 0;
  };

  std::int64_t capacity_;
  std::map<ChunkAddress, Entry> entries_;
  std::set<std::pair<std::uint64_t, ChunkAddress>> order_;
  std::int64_t used_ = 0;
  std::uint64_t clock_ = 0;
};

TEST(EdgeCache, MatchesOrderedReferenceModel) {
  // Random operation sequences over a dozen ids on caches of a few
  // objects: repeated ids, objects larger than the whole cache, and
  // inserts that evict several residents. After every operation both
  // caches must agree on the result and on the resident set.
  Rng rng(11);
  for (int sequence = 0; sequence < 1500; ++sequence) {
    const std::int64_t capacity = rng.uniform_int(1, 600);
    EdgeCache cache(capacity);
    OrderedReferenceCache reference(capacity);
    for (int op = 0; op < 60; ++op) {
      const auto tile = static_cast<std::int32_t>(rng.uniform_int(0, 5));
      const auto chunk = static_cast<std::int32_t>(rng.uniform_int(0, 1));
      const ChunkAddress id = cid(tile, chunk);
      const std::int64_t kind = rng.uniform_int(0, 9);
      if (kind < 4) {
        EXPECT_EQ(cache.touch(id), reference.touch(id));
      } else if (kind < 9) {
        const std::int64_t bytes = rng.uniform_int(1, capacity * 5 / 4 + 1);
        EXPECT_EQ(cache.insert(id, bytes), reference.insert(id, bytes));
      } else {
        EXPECT_EQ(cache.contains(id), reference.contains(id));
      }
      EXPECT_EQ(cache.used_bytes(), reference.used_bytes());
      EXPECT_EQ(cache.size(), reference.size());
      ASSERT_EQ(cache.resident(), reference.resident())
          << "sequence " << sequence << " op " << op;
    }
  }
}

// ---------------------------------------------------------------------- Edge

// One edge shared by two link groups, each with its own access link.
struct EdgeHarness {
  sim::Simulator simulator;
  obs::Telemetry telemetry;
  net::Link backhaul;
  net::Link access;
  net::Link other_access;
  Edge edge;
  EdgeSource source;
  EdgeSource other;

  explicit EdgeHarness(
      net::LinkConfig backhaul_config = link_config("backhaul"))
      : backhaul(simulator, std::move(backhaul_config)),
        access(simulator, link_config("access")),
        other_access(simulator, link_config("other_access")),
        edge(backhaul, 1 << 20, &telemetry),
        source(access, edge),
        other(other_access, edge) {}

  [[nodiscard]] std::int64_t counter(const char* name) {
    return telemetry.metrics().counter(name).value();
  }
};

TEST(EdgeSource, MissFillsCacheThenHitSkipsBackhaul) {
  EdgeHarness h;
  const ChunkAddress id = cid(2, 1);

  TransferResult miss{};
  h.source.fetch({.id = id, .bytes = 60'000}, [&](const TransferResult& r) {
    miss = r;
  });
  h.simulator.run();
  EXPECT_TRUE(miss.completed());
  EXPECT_EQ(miss.bytes_delivered, 60'000);
  EXPECT_TRUE(h.edge.cache().contains(id));
  EXPECT_EQ(h.edge.stats().misses, 1);
  EXPECT_EQ(h.edge.stats().hits, 0);
  EXPECT_EQ(h.edge.stats().egress_bytes, 60'000);
  const sim::Time miss_done = miss.time;

  TransferResult hit{};
  h.source.fetch({.id = id, .bytes = 60'000}, [&](const TransferResult& r) {
    hit = r;
  });
  h.simulator.run();
  EXPECT_TRUE(hit.completed());
  EXPECT_EQ(h.edge.stats().hits, 1);
  // The hit never touched the backhaul…
  EXPECT_EQ(h.edge.stats().egress_bytes, 60'000);
  // …and finished faster than the miss, which paid backhaul + access.
  EXPECT_LT(hit.time - miss_done, miss_done - sim::kTimeZero);

  EXPECT_EQ(h.counter("cdn.edge.hits"), 1);
  EXPECT_EQ(h.counter("cdn.edge.misses"), 1);
}

TEST(EdgeSource, ConcurrentMissesCoalesceOnTheBackhaul) {
  EdgeHarness h;
  const ChunkAddress id = cid(4);
  std::vector<TransferResult> results(2);
  for (int w = 0; w < 2; ++w) {
    h.source.fetch({.id = id, .bytes = 70'000}, [&, w](const TransferResult& r) {
      results[static_cast<std::size_t>(w)] = r;
    });
  }
  EXPECT_EQ(h.edge.stats().misses, 2);
  EXPECT_EQ(h.edge.stats().coalesced, 1);  // the second miss joined in flight

  h.simulator.run();
  for (const TransferResult& r : results) {
    EXPECT_TRUE(r.completed());
    EXPECT_EQ(r.bytes_delivered, 70'000);  // each client got the full object
  }
  EXPECT_EQ(h.edge.stats().egress_bytes, 70'000);  // backhaul paid once
  EXPECT_EQ(h.backhaul.bytes_delivered(), 70'000);
  EXPECT_EQ(h.counter("cdn.edge.coalesced"), 1);
  EXPECT_EQ(h.counter("cdn.origin.egress_bytes"), 70'000);
}

TEST(EdgeSource, SharedEdgeFillsOnceAndIsResidentBeforeAnyServe) {
  // Two link groups miss on the same object: one backhaul transfer serves
  // both, and the cache holds the object before either waiter is served.
  EdgeHarness h;
  const ChunkAddress id = cid(3);
  std::vector<TransferResult> results(3);
  std::vector<int> fired(3, 0);
  const auto record = [&](int w) {
    return [&, w](const TransferResult& r) {
      ++fired[static_cast<std::size_t>(w)];
      results[static_cast<std::size_t>(w)] = r;
    };
  };
  h.source.fetch({.id = id, .bytes = 100'000}, record(0));
  h.other.fetch({.id = id, .bytes = 100'000}, record(1));
  EXPECT_EQ(h.edge.stats().misses, 2);
  EXPECT_EQ(h.edge.stats().coalesced, 1);

  // Advance to the fill: both serves have just started on their access
  // links and neither has finished.
  while (h.edge.stats().egress_bytes == 0) {
    h.simulator.run_until(h.simulator.now() + sim::milliseconds(1));
  }
  EXPECT_TRUE(h.edge.cache().contains(id));
  EXPECT_EQ(fired, (std::vector<int>{0, 0, 0}));
  // A fetch issued now is a hit: the fill landed before the serves.
  h.source.fetch({.id = id, .bytes = 100'000}, record(2));
  EXPECT_EQ(h.edge.stats().hits, 1);

  h.simulator.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 1, 1}));
  for (const TransferResult& r : results) {
    EXPECT_TRUE(r.completed());
    EXPECT_EQ(r.bytes_delivered, 100'000);
  }
  // Two misses, one backhaul transfer: its bytes are counted once.
  EXPECT_EQ(h.backhaul.bytes_delivered(), 100'000);
  EXPECT_EQ(h.edge.stats().egress_bytes, 100'000);
  EXPECT_EQ(h.counter("cdn.origin.egress_bytes"), 100'000);
}

TEST(EdgeSource, BackhaulFaultFailsEveryCoalescedWaiterOnce) {
  net::LinkConfig backhaul = link_config("backhaul");
  backhaul.faults.outages.push_back({.start_s = 0.0, .duration_s = 5.0});
  EdgeHarness h(backhaul);
  const ChunkAddress id = cid(1);
  std::vector<int> order;
  const auto record = [&](int w) {
    return [&, w](const TransferResult& r) {
      EXPECT_EQ(r.status, TransferStatus::kFailed);
      EXPECT_EQ(r.bytes_delivered, 0);
      order.push_back(w);
    };
  };
  h.source.fetch({.id = id, .bytes = 50'000}, record(0));
  h.other.fetch({.id = id, .bytes = 50'000}, [&](const TransferResult& r) {
    record(1)(r);
    // The dead fill is gone before its waiters fire: a fetch issued here,
    // still inside the outage, starts a fresh fill instead of joining it.
    h.other.fetch({.id = id, .bytes = 50'000}, record(2));
    EXPECT_EQ(h.edge.stats().coalesced, 1);
  });
  EXPECT_EQ(h.edge.stats().coalesced, 1);
  h.simulator.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));  // once each, in join order
  EXPECT_EQ(h.edge.stats().egress_bytes, 0);
  EXPECT_FALSE(h.edge.cache().contains(id));

  // A retry after the outage starts a fresh fill instead of joining the
  // one that died, and completes.
  TransferResult retry{};
  h.other.fetch({.id = id, .bytes = 50'000}, [&](const TransferResult& r) {
    retry = r;
  });
  EXPECT_EQ(h.edge.stats().misses, 4);
  EXPECT_EQ(h.edge.stats().coalesced, 1);
  h.simulator.run();
  EXPECT_TRUE(retry.completed());
  EXPECT_EQ(retry.bytes_delivered, 50'000);
  EXPECT_EQ(h.edge.stats().egress_bytes, 50'000);  // counted once
  EXPECT_EQ(h.counter("cdn.origin.egress_bytes"), 50'000);
  EXPECT_EQ(h.backhaul.bytes_delivered(), 50'000);
}

TEST(EdgeSource, CancelDetachesOneOfTwoSharedWaiters) {
  EdgeHarness h;
  const ChunkAddress id = cid(6);
  TransferResult kept{};
  TransferResult dropped{};
  int kept_fired = 0;
  int dropped_fired = 0;
  const net::FetchId keep = h.source.fetch(
      {.id = id, .bytes = 80'000}, [&](const TransferResult& r) {
        kept = r;
        ++kept_fired;
      });
  const net::FetchId drop = h.other.fetch(
      {.id = id, .bytes = 80'000}, [&](const TransferResult& r) {
        dropped = r;
        ++dropped_fired;
      });
  // Fetch ids are per source: the fill tells the waiters apart by source.
  ASSERT_EQ(keep, drop);

  // Cancelling fires the dropped waiter synchronously with kCancelled…
  EXPECT_TRUE(h.other.cancel(drop));
  EXPECT_EQ(dropped_fired, 1);
  EXPECT_EQ(dropped.status, TransferStatus::kCancelled);
  EXPECT_EQ(dropped.bytes_delivered, 0);
  EXPECT_FALSE(h.other.cancel(drop));  // already settled: fires nothing
  EXPECT_EQ(kept_fired, 0);

  // …while the fill keeps running for the remaining waiter.
  h.simulator.run();
  EXPECT_EQ(kept_fired, 1);
  EXPECT_TRUE(kept.completed());
  EXPECT_EQ(kept.bytes_delivered, 80'000);
  EXPECT_EQ(dropped_fired, 1);
  EXPECT_EQ(h.edge.stats().egress_bytes, 80'000);
  EXPECT_FALSE(h.source.cancel(keep));  // settled fetches cannot cancel
}

TEST(EdgeSource, BackhaulFaultReachesClientAsFailure) {
  // A backhaul outage covers the first fetch: the miss fails upstream of
  // the access link and the client sees kFailed with zero bytes.
  sim::Simulator simulator;
  net::LinkConfig config = link_config("backhaul");
  config.faults.outages.push_back({.start_s = 0.0, .duration_s = 3.0});
  net::Link backhaul(simulator, config);
  net::Link access(simulator, link_config("access"));
  Edge edge(backhaul, 1 << 20, nullptr);
  EdgeSource source(access, edge);

  TransferResult result{};
  int fired = 0;
  source.fetch({.id = cid(1), .bytes = 40'000}, [&](const TransferResult& r) {
    result = r;
    ++fired;
  });
  simulator.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(result.status, TransferStatus::kFailed);
  EXPECT_EQ(result.bytes_delivered, 0);  // nothing reached the client
  EXPECT_FALSE(edge.cache().contains(cid(1)));
}

TEST(EdgeSource, CancelWhileWaitingOnOriginStillFillsCache) {
  EdgeHarness h;
  const ChunkAddress id = cid(8);
  TransferResult result{};
  int fired = 0;
  const net::FetchId fetch = h.source.fetch(
      {.id = id, .bytes = 90'000}, [&](const TransferResult& r) {
        result = r;
        ++fired;
      });

  EXPECT_TRUE(h.source.cancel(fetch));
  EXPECT_EQ(fired, 1);  // synchronous, exactly once
  EXPECT_EQ(result.status, TransferStatus::kCancelled);
  EXPECT_EQ(result.bytes_delivered, 0);
  EXPECT_FALSE(h.source.cancel(fetch));  // already settled

  // The backhaul transfer kept running: the cache still gets the object.
  h.simulator.run();
  EXPECT_TRUE(h.edge.cache().contains(id));
  EXPECT_EQ(fired, 1);
}

TEST(EdgeSource, CancelWhileServingAbortsTheAccessTransfer) {
  EdgeHarness h;
  const ChunkAddress id = cid(5);
  ASSERT_EQ(h.edge.cache().insert(id, 90'000), 0);  // pre-seed: fetch hits

  TransferResult result{};
  int fired = 0;
  const net::FetchId fetch = h.source.fetch(
      {.id = id, .bytes = 90'000}, [&](const TransferResult& r) {
        result = r;
        ++fired;
      });
  EXPECT_EQ(h.edge.stats().hits, 1);

  EXPECT_TRUE(h.source.cancel(fetch));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(result.status, TransferStatus::kCancelled);
  EXPECT_FALSE(h.source.cancel(fetch));
  h.simulator.run();
  EXPECT_EQ(fired, 1);
}

// ------------------------------------------------------------------- warming

media::VideoModelConfig tiny_video() {
  media::VideoModelConfig cfg;
  cfg.duration_s = 4.0;
  cfg.chunk_duration_s = 1.0;
  cfg.tile_rows = 2;
  cfg.tile_cols = 3;
  cfg.seed = 17;
  return cfg;
}

// A crowd that overwhelmingly watched tile `hot` in every chunk.
hmp::ViewingHeatmap hot_tile_crowd(const media::VideoModel& video,
                                   geo::TileId hot) {
  hmp::ViewingHeatmap crowd(video.tile_count(), video.chunk_count());
  const std::vector<geo::TileId> visible = {hot};
  for (media::ChunkIndex chunk = 0; chunk < video.chunk_count(); ++chunk) {
    for (int views = 0; views < 50; ++views) crowd.add_view(chunk, visible);
  }
  return crowd;
}

TEST(EdgeWarm, PreloadsTheCrowdsFavouriteTiles) {
  sim::Simulator simulator;
  net::Link backhaul(simulator, link_config("backhaul"));
  obs::Telemetry telemetry;
  Edge edge(backhaul, 1LL << 30, &telemetry);

  const media::VideoModel video(tiny_video());
  const hmp::ViewingHeatmap crowd = hot_tile_crowd(video, /*hot=*/4);
  const int warmed =
      edge.warm(video, crowd, /*tiles_per_chunk=*/2, /*level=*/1);
  // 2 tiles per chunk x 4 chunks, one AVC object each.
  EXPECT_EQ(warmed, 8);
  EXPECT_EQ(edge.stats().warmed, 8);
  EXPECT_EQ(telemetry.metrics().counter("cdn.edge.warmed").value(), 8);
  // The hot tile is resident for every chunk, at the requested rung.
  for (std::int32_t chunk = 0; chunk < 4; ++chunk) {
    EXPECT_TRUE(edge.cache().contains(cid(4, chunk, 1))) << "chunk " << chunk;
  }
  EXPECT_EQ(edge.stats().evictions, 0);  // warming never evicts
}

TEST(EdgeWarm, IsDeterministicAcrossEdges) {
  const media::VideoModel video(tiny_video());
  const hmp::ViewingHeatmap crowd = hot_tile_crowd(video, /*hot=*/1);
  sim::Simulator simulator;
  net::Link backhaul(simulator, link_config("backhaul"));

  Edge a(backhaul, 200'000, nullptr);
  Edge b(backhaul, 200'000, nullptr);
  EXPECT_EQ(a.warm(video, crowd, 3, 2), b.warm(video, crowd, 3, 2));
  EXPECT_EQ(a.cache().resident(), b.cache().resident());
  EXPECT_EQ(a.cache().used_bytes(), b.cache().used_bytes());
}

TEST(EdgeWarm, StopsAtTheByteBudgetWithoutEvicting) {
  const media::VideoModel video(tiny_video());
  const hmp::ViewingHeatmap crowd = hot_tile_crowd(video, /*hot=*/0);
  sim::Simulator simulator;
  net::Link backhaul(simulator, link_config("backhaul"));

  // A budget big enough for roughly one object: warming stops at the first
  // non-fit instead of churning what it just preloaded.
  const std::int64_t one_object =
      video.size_bytes({.key = {.tile = 0, .index = 0},
                        .encoding = media::Encoding::kAvc,
                        .level = 0});
  Edge edge(backhaul, one_object, nullptr);
  const int warmed =
      edge.warm(video, crowd, /*tiles_per_chunk=*/6, /*level=*/0);
  EXPECT_GE(warmed, 1);
  EXPECT_EQ(edge.stats().evictions, 0);
  EXPECT_LE(edge.cache().used_bytes(), edge.cache().capacity_bytes());
  // The single highest-probability object made it in.
  EXPECT_TRUE(edge.cache().contains(cid(0, 0, 0)));
}

TEST(EdgeWarm, WarmsOnlyTheAvcCopyAtTheLevel) {
  const media::VideoModel video(tiny_video());
  const hmp::ViewingHeatmap crowd = hot_tile_crowd(video, /*hot=*/3);
  sim::Simulator simulator;
  net::Link backhaul(simulator, link_config("backhaul"));
  Edge edge(backhaul, 1LL << 30, nullptr);

  EXPECT_EQ(edge.warm(video, crowd, /*tiles_per_chunk=*/1, /*level=*/2), 4);
  // One object per chunk, the level-2 AVC copy under the default video
  // coordinate: no lower rung and no SVC layer.
  EXPECT_EQ(edge.cache().size(), 4);
  for (std::int32_t chunk = 0; chunk < 4; ++chunk) {
    EXPECT_TRUE(edge.cache().contains(cid(3, chunk, 2))) << "chunk " << chunk;
  }
}

TEST(EdgeWarm, CapacityNearInt64MaxDoesNotOverflow) {
  // With a nearly full INT64_MAX budget, used + bytes would wrap negative
  // and warming would admit objects that do not fit.
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const media::VideoModel video(tiny_video());
  const hmp::ViewingHeatmap crowd = hot_tile_crowd(video, /*hot=*/2);
  sim::Simulator simulator;
  net::Link backhaul(simulator, link_config("backhaul"));
  Edge edge(backhaul, kMax, nullptr);
  // An SVC layer: warming loads AVC only.
  const ChunkAddress resident{.key = {}, .encoding = media::Encoding::kSvc};
  EXPECT_EQ(edge.cache().insert(resident, kMax - 10), 0);
  EXPECT_EQ(edge.warm(video, crowd, /*tiles_per_chunk=*/2, /*level=*/0), 0);
  EXPECT_EQ(edge.cache().resident(), (std::vector<ChunkAddress>{resident}));
  EXPECT_EQ(edge.cache().used_bytes(), kMax - 10);
}

TEST(EdgeWarm, RejectsAHeatmapOfAnotherTileCount) {
  // A heatmap smaller than the video would be read past its end.
  const media::VideoModel video(tiny_video());
  const hmp::ViewingHeatmap crowd(/*tile_count=*/2, video.chunk_count());
  sim::Simulator simulator;
  net::Link backhaul(simulator, link_config("backhaul"));
  Edge edge(backhaul, 1LL << 30, nullptr);
  EXPECT_THROW((void)edge.warm(video, crowd, 2, 0), std::invalid_argument);
  EXPECT_EQ(edge.cache().size(), 0);
}

// ------------------------------------------------------------------ topology

TEST(TopologyValidate, ErrorsListTheValidFieldNames) {
  const media::VideoModelConfig video;  // 4x6 tiles, 5-rung ladder
  const hmp::ViewingHeatmap crowd(24, 4);
  const hmp::ViewingHeatmap small_crowd(2, 4);
  const auto expect_fields = [&](TopologySpec spec,
                                 const hmp::ViewingHeatmap* heatmap,
                                 const std::string& needle) {
    try {
      validate(spec, /*sessions_per_link=*/4, heatmap, video);
      FAIL() << "expected std::invalid_argument for " << needle;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(needle), std::string::npos) << what;
      EXPECT_NE(what.find("valid fields: sessions_per_edge, backhaul, "
                          "cache_policy, cache_capacity_bytes, "
                          "warm_tiles_per_chunk, warm_level"),
                std::string::npos)
          << what;
    }
  };

  TopologySpec negative;
  negative.sessions_per_edge = -1;
  expect_fields(negative, nullptr, "sessions_per_edge");

  TopologySpec indivisible;
  indivisible.sessions_per_edge = 6;  // not a multiple of 4
  expect_fields(indivisible, nullptr, "multiple of sessions_per_link");

  TopologySpec no_budget;
  no_budget.sessions_per_edge = 8;
  no_budget.cache_capacity_bytes = 0;
  expect_fields(no_budget, nullptr, "cache_capacity_bytes");

  TopologySpec bad_policy;
  bad_policy.sessions_per_edge = 8;
  bad_policy.cache_policy = "arc";
  expect_fields(bad_policy, nullptr, "the only valid name is lru");
  bad_policy.cache_policy = "lfu";
  expect_fields(bad_policy, nullptr, "unknown cache policy \"lfu\"");

  TopologySpec warm_without_crowd;
  warm_without_crowd.sessions_per_edge = 8;
  warm_without_crowd.warm_tiles_per_chunk = 2;
  expect_fields(warm_without_crowd, nullptr, "crowd heatmap");

  TopologySpec bad_level;
  bad_level.sessions_per_edge = 8;
  bad_level.warm_tiles_per_chunk = 2;
  bad_level.warm_level = -1;
  expect_fields(bad_level, &crowd, "warm_level");
  bad_level.warm_level = 5;  // one past the top rung
  expect_fields(bad_level, &crowd, "warm_level (= 5)");

  TopologySpec warm_small_crowd;
  warm_small_crowd.sessions_per_edge = 8;
  warm_small_crowd.warm_tiles_per_chunk = 2;
  expect_fields(warm_small_crowd, &small_crowd, "video's 24 tiles (it has 2)");

  // Well-formed sections pass: disabled, enabled, enabled + warming.
  EXPECT_NO_THROW(validate(TopologySpec{}, 4, nullptr, video));
  TopologySpec enabled;
  enabled.sessions_per_edge = 8;
  EXPECT_NO_THROW(validate(enabled, 4, nullptr, video));
  // Without warming the crowd is not read, whatever its tile count.
  EXPECT_NO_THROW(validate(enabled, 4, &small_crowd, video));
  enabled.warm_tiles_per_chunk = 2;
  enabled.warm_level = 4;
  EXPECT_NO_THROW(validate(enabled, 4, &crowd, video));
}

TEST(Topology, DisabledTierFetchesOverAccessLinks) {
  sim::Simulator simulator;
  TopologySpec spec;  // disabled
  Topology topology(simulator, spec, nullptr, nullptr, nullptr);
  net::ChunkSource& source = topology.add_group(-1, link_config("access"));
  // A disabled tier ignores the edge id: every group gets its link back.
  net::ChunkSource& other = topology.add_group(3, link_config("access1"));
  EXPECT_EQ(&source, &topology.access_link(0));  // the link is the source
  EXPECT_EQ(&other, &topology.access_link(1));
  EXPECT_EQ(topology.access_link_count(), 2);
  EXPECT_EQ(topology.edge_count(), 0);  // no edge, no backhaul

  TransferResult result{};
  source.fetch({.id = cid(0), .bytes = 10'000}, [&](const TransferResult& r) {
    result = r;
  });
  simulator.run();
  EXPECT_TRUE(result.completed());
  EXPECT_EQ(result.bytes_delivered, 10'000);
}

TEST(Topology, NegativeEdgeIdOnEnabledTierGetsItsAccessLink) {
  // With the tier on, a group can still opt out of the edge: it fetches
  // straight over its own access link, and only edge groups build an edge.
  sim::Simulator simulator;
  TopologySpec spec;
  spec.sessions_per_edge = 8;
  spec.backhaul = link_config("backhaul");
  Topology topology(simulator, spec, nullptr, nullptr, nullptr);
  net::ChunkSource& direct = topology.add_group(-1, link_config("direct"));
  EXPECT_EQ(&direct, &topology.access_link(0));
  EXPECT_EQ(topology.edge_count(), 0);
  net::ChunkSource& edged = topology.add_group(0, link_config("edged"));
  EXPECT_NE(&edged, &topology.access_link(1));
  EXPECT_EQ(topology.edge_count(), 1);

  TransferResult result{};
  direct.fetch({.id = cid(2), .bytes = 12'000}, [&](const TransferResult& r) {
    result = r;
  });
  simulator.run();
  EXPECT_TRUE(result.completed());
  EXPECT_EQ(result.bytes_delivered, 12'000);
  EXPECT_EQ(topology.edge(0).stats().misses, 0);  // never touched the edge
  EXPECT_EQ(topology.access_link(0).bytes_delivered(), 12'000);
}

TEST(Topology, DirectSourcesStayValidAsGroupsGrow) {
  // The topology owns each direct source (its access link); a reference
  // handed out by add_group must survive every later add_group.
  sim::Simulator simulator;
  TopologySpec spec;
  spec.sessions_per_edge = 4;
  spec.backhaul = link_config("backhaul");
  Topology topology(simulator, spec, nullptr, nullptr, nullptr);
  net::ChunkSource& first = topology.add_group(-1, link_config("first"));
  for (int i = 1; i < 64; ++i) {
    (void)topology.add_group(i % 2 == 0 ? -1 : i % 3, link_config("g"));
  }
  ASSERT_EQ(topology.access_link_count(), 64);
  EXPECT_EQ(&first, &topology.access_link(0));
  EXPECT_EQ(&first.simulator(), &simulator);
  EXPECT_EQ(first.rtt(), sim::milliseconds(20));

  TransferResult result{};
  first.fetch({.id = cid(5), .bytes = 8'000}, [&](const TransferResult& r) {
    result = r;
  });
  simulator.run();
  EXPECT_TRUE(result.completed());
  EXPECT_EQ(result.bytes_delivered, 8'000);
}

TEST(Topology, GroupsOfOneEdgeShareItsCache) {
  sim::Simulator simulator;
  obs::Telemetry telemetry;
  TopologySpec spec;
  spec.sessions_per_edge = 8;
  spec.backhaul = link_config("backhaul");
  spec.cache_capacity_bytes = 1 << 20;
  Topology topology(simulator, spec, &telemetry, nullptr, nullptr);

  net::ChunkSource& group0 = topology.add_group(0, link_config("access0"));
  net::ChunkSource& group1 = topology.add_group(0, link_config("access1"));
  EXPECT_EQ(topology.access_link_count(), 2);
  EXPECT_EQ(topology.edge_count(), 1);  // one shared edge, built lazily

  // Group 0's miss fills the shared cache; group 1's fetch of the same
  // object is a pure hit — that is exactly how sessions share an edge.
  const ChunkAddress id = cid(7, 2);
  TransferResult first{};
  group0.fetch({.id = id, .bytes = 30'000}, [&](const TransferResult& r) {
    first = r;
  });
  simulator.run();
  TransferResult second{};
  group1.fetch({.id = id, .bytes = 30'000}, [&](const TransferResult& r) {
    second = r;
  });
  simulator.run();

  EXPECT_TRUE(first.completed());
  EXPECT_TRUE(second.completed());
  const EdgeStats& stats = topology.edge(0).stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(telemetry.metrics().counter("cdn.edge.hits").value(), 1);
  EXPECT_EQ(telemetry.metrics().counter("cdn.origin.egress_bytes").value(),
            30'000);
}

TEST(Topology, DistinctEdgeIdsGetDistinctCaches) {
  sim::Simulator simulator;
  TopologySpec spec;
  spec.sessions_per_edge = 4;
  spec.backhaul = link_config("backhaul");
  Topology topology(simulator, spec, nullptr, nullptr, nullptr);
  net::ChunkSource& edge0 = topology.add_group(0, link_config("a0"));
  net::ChunkSource& edge1 = topology.add_group(1, link_config("a1"));
  EXPECT_EQ(topology.edge_count(), 2);

  const ChunkAddress id = cid(1);
  TransferResult r0{};
  TransferResult r1{};
  edge0.fetch({.id = id, .bytes = 20'000}, [&](const TransferResult& r) { r0 = r; });
  simulator.run();
  edge1.fetch({.id = id, .bytes = 20'000}, [&](const TransferResult& r) { r1 = r; });
  simulator.run();
  EXPECT_TRUE(r0.completed());
  EXPECT_TRUE(r1.completed());
  // No sharing across edges: both were misses against their own cache.
  EXPECT_EQ(topology.edge(0).stats().misses, 1);
  EXPECT_EQ(topology.edge(1).stats().misses, 1);
  EXPECT_EQ(topology.edge(1).stats().hits, 0);
}

}  // namespace
}  // namespace sperke::cdn
