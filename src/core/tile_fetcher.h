// TileFetcher: the Sperke client's one fetch path (Figure 4's fetch
// scheduler), shared by the VOD player (core/session.h) and the live one
// (live/tiled_viewer.h). It owns in-flight dedupe (one bit per chunk, tile
// and level in a mask span the player lends, DESIGN.md §13), dispatch with
// request ids, the Table 1 urgency test, the fetch counters and fetch trace
// events, the §3.1.1 upgrade pass over one chunk, and the base-tier
// degraded retry (DESIGN.md §10). What a settled request means for playback
// stays with the player: each settle, once its in-flight bit is cleared and
// it is traced, goes to the player's settle hook.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "abr/policy.h"
#include "core/buffer.h"
#include "core/transport.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"
#include "util/inline_function.h"

namespace sperke::core {

class TileFetcher {
 public:
  // One dispatched request, as the settle hook sees it.
  struct Fetch {
    media::ChunkAddress address;
    abr::SpatialClass spatial = abr::SpatialClass::kFov;
    bool urgent = false;
    sim::Time deadline{sim::kTimeZero};
    sim::Time dispatched{sim::kTimeZero};
    std::int64_t bytes = 0;
    std::int64_t request_id = 0;  // 0 = untraced
    std::int64_t parent_id = 0;   // the failed request a retry replaces
  };
  using SettleHook = util::InlineFunction<void(const Fetch&, FetchOutcome), 16>;

  struct Counters {
    int fetches = 0;
    int urgent_fetches = 0;
    int upgrades = 0;          // §3.1.1 incremental upgrades performed
    int late_corrections = 0;  // tiles first fetched inside the window
    int fetch_failures = 0;    // fetches that timed out / failed outright
    int degraded_retries = 0;  // failed FoV fetches re-issued at base tier
  };

  // Metric handles mirroring the counters; null = not exported. The owner
  // binds them, so its metric registration (= export) order is its own.
  struct Metrics {
    obs::Counter* fetches = nullptr;
    obs::Counter* urgent_fetches = nullptr;
    obs::Counter* upgrades = nullptr;
    obs::Counter* late_corrections = nullptr;
    obs::Counter* fetch_failures = nullptr;
    obs::Counter* degraded_retries = nullptr;
    obs::Histogram* fetch_latency_ms = nullptr;
  };

  // `in_flight` holds one zeroed mask per cell, flat at chunk * tile_count
  // + tile. A fetch is urgent when its deadline is less than `urgent_slack`
  // away; `recovery` enables the degraded retry. Referenced objects must
  // outlive the fetcher; requests settling after it is gone are ignored.
  TileFetcher(sim::Simulator& simulator, const media::VideoModel& video,
              ChunkTransport& transport, const PlaybackBuffer& buffer,
              const abr::TileAbrPolicy& policy, obs::Telemetry* telemetry,
              std::span<std::uint64_t> in_flight, sim::Duration urgent_slack,
              bool recovery, SettleHook on_settle);
  ~TileFetcher() { *alive_ = false; }
  TileFetcher(const TileFetcher&) = delete;
  TileFetcher& operator=(const TileFetcher&) = delete;

  // Fetch `address` unless it is buffered or already in flight.
  void dispatch(const media::ChunkAddress& address, abr::SpatialClass spatial,
                sim::Time deadline) {
    send(address, spatial, deadline, Kind::kPlain, 0);
  }

  // Whether a chunk due at `deadline` is inside the policy's upgrade window.
  // Outside it the policy rejects every tile on slack alone, so players test
  // this before fusing the chunk's probabilities.
  [[nodiscard]] bool in_upgrade_window(sim::Time deadline) const {
    const sim::Duration slack = deadline - simulator_.now();
    return slack > sim::Duration{0} && slack <= policy_.upgrade_window();
  }

  // The sorted visible tiles of the chunk being upgraded, computed on demand.
  using VisibleTiles = util::InlineFunction<std::span<const geo::TileId>(), 16>;

  // The §3.1.1 upgrade pass over planned chunk `index`: every tile displayed
  // below `target` is offered to the policy, in ascending tile order, at its
  // probability in `probs`. A decision that would send something, one with
  // a fetch neither buffered nor in flight, is acted on only if its tile is
  // visible: it is traced, then its fetches are dispatched. `visible` is
  // called at most once, at the first such decision, and not at all when no
  // tile would send, so players compute the frustum only then; the span it
  // returns must stay valid for the rest of the pass.
  void upgrade(media::ChunkIndex index, std::span<const double> probs,
               media::QualityLevel target, sim::Time deadline,
               double estimated_kbps, const VisibleTiles& visible);

  // Count `fetch`'s fault loss. With recovery on, a failed FoV fetch of a
  // chunk at or after `playhead` whose deadline still stands is re-requested
  // at the base tier, citing the failed request as its causal parent.
  void recover(const Fetch& fetch, media::ChunkIndex playhead);

  // Whether any level of this (chunk, tile) cell is in flight.
  [[nodiscard]] bool in_flight(const media::ChunkKey& key) const {
    return in_flight_[cell(key)] != 0;
  }

  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] Metrics& metrics() { return metrics_; }

 private:
  enum class Kind : std::uint8_t { kPlain, kUpgrade, kCorrection };

  void send(const media::ChunkAddress& address, abr::SpatialClass spatial,
            sim::Time deadline, Kind kind, std::int64_t parent_id);
  void settle(const Fetch& fetch, sim::Time at, FetchOutcome outcome);
  void trace(obs::TraceEventType type, const Fetch& fetch, sim::Time ts,
             double value);
  // Buffered or in flight: nothing to fetch.
  [[nodiscard]] bool covered(const media::ChunkAddress& address) const;
  [[nodiscard]] std::size_t cell(const media::ChunkKey& key) const;
  [[nodiscard]] static std::uint64_t bit(const media::ChunkAddress& address);

  sim::Simulator& simulator_;
  const media::VideoModel& video_;
  ChunkTransport& transport_;
  const PlaybackBuffer& buffer_;
  const abr::TileAbrPolicy& policy_;
  obs::Telemetry* telemetry_;
  std::span<std::uint64_t> in_flight_;
  sim::Duration urgent_slack_;
  bool recovery_;
  SettleHook on_settle_;
  // upgrade()'s policy answer, reused so a decision allocates nothing.
  abr::TileAbrPolicy::UpgradeDecision decision_;
  Counters counters_;
  Metrics metrics_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sperke::core
