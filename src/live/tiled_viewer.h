// Tiled FoV-guided *live* viewing (§3.4.2's endpoint): the Sperke client
// of the VOD player (core::Viewer, core/session.h) on a live clock. Chunks
// appear at the ingest edge as the event unfolds and playback deadlines are
// wall-clock-hard — a chunk that is not ready when its deadline arrives is
// skipped (or shown with blank tiles), never rebuffered. Fetches go through
// the VOD player's fetch path, with the chunk duration as the urgency
// slack; this file keeps only what the live clock changes: when a chunk is
// planned and played, what a settled fetch is worth, and the blend of the
// time-gated live crowd into the fused tile probabilities.
//
// Several TiledLiveSession instances can share one simulator, one video
// (the live content) and one LiveCrowdHmp: low-latency viewers' displayed
// tiles become, in wall-clock order, the crowd prior that high-latency
// viewers use for FoV-guided prefetch — the paper's crowd-sourced live HMP
// made end-to-end.
#pragma once

#include <memory>

#include "abr/factory.h"
#include "abr/qoe.h"
#include "core/session.h"
#include "core/transport.h"
#include "live/crowd.h"
#include "obs/telemetry.h"
#include "sim/simulator.h"

namespace sperke::live {

struct TiledLiveConfig {
  // The viewer plays chunk i at wall time chunk_start(i) + e2e_target.
  // Chunk i becomes fetchable at chunk_end(i) + 3 s (capture, upload and
  // transcode), so the target must leave room for that ingest delay plus
  // at least one chunk of fetching.
  double e2e_target_s = 8.0;
  // Tile-ABR policy (name + per-policy params), built via abr::make_policy.
  abr::TileAbrConfig abr;
  // Telemetry sink (not owned; must outlive the session). Null = disabled.
  // When set, the fetch path traces every dispatch, settle and upgrade
  // decision with causal request ids, so blank re-requests nest under the
  // fetch they replace in the exported trace.
  obs::Telemetry* telemetry = nullptr;
  // Graceful degradation on fetch failures (DESIGN.md §10): re-request a
  // failed FoV tile at the base quality tier while its live deadline still
  // stands. Off by default (byte-identical without faults).
  bool fetch_recovery = false;
};

// Chunks played and skipped, and the blank fraction, are in `qoe`.
struct TiledLiveReport {
  abr::QoeSummary qoe;
  int fetches = 0;
  int upgrades = 0;
  int fetch_failures = 0;    // fetches that timed out / failed outright
  int degraded_retries = 0;  // failed FoV fetches re-issued at base tier
  bool finished = false;
};

class TiledLiveSession : public core::Viewer {
 public:
  // `crowd` (optional) is both read (prefetch prior) and written (this
  // viewer's displayed tiles, after a short report delay) and must cover
  // every chunk of the video. All referenced objects must outlive the
  // session. Throws std::invalid_argument for a null video.
  TiledLiveSession(sim::Simulator& simulator,
                   std::shared_ptr<const media::VideoModel> video,
                   core::ChunkTransport& transport,
                   const hmp::HeadTrace& head_trace, TiledLiveConfig config,
                   LiveCrowdHmp* crowd = nullptr);

  void start();

  [[nodiscard]] TiledLiveReport report() const;

 private:
  [[nodiscard]] sim::Time deadline_of(media::ChunkIndex index) const override;
  [[nodiscard]] sim::Time content_now() const override;
  [[nodiscard]] media::ChunkIndex first_unplayed() const override {
    return next_play_;
  }
  // Settles after the last chunk plays count for nothing.
  void on_settle(const Fetch& fetch, core::FetchOutcome outcome) override;
  // Motion and context fusion, blended with the time-gated live crowd.
  void fuse(media::ChunkIndex index, sim::Duration horizon) override;

  void plan_chunk(media::ChunkIndex index);
  void play_chunk(media::ChunkIndex index);

  double e2e_target_s_;
  LiveCrowdHmp* crowd_;
  media::ChunkIndex next_play_ = 0;
};

}  // namespace sperke::live
