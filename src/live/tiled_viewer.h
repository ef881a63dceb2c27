// Tiled FoV-guided *live* viewing (§3.4.2's endpoint): the Sperke VOD
// machinery applied to a live stream, where chunks appear at the ingest
// edge as the event unfolds and playback deadlines are wall-clock-hard —
// a chunk that is not ready when its deadline arrives is skipped (or shown
// with blank tiles), never rebuffered. Fetches go through the fetch path the
// VOD player uses (core/tile_fetcher.h), with the chunk duration as the
// urgency slack; this file keeps only what the live clock changes: when a
// chunk is planned and played, and what a settled fetch is worth.
//
// Several TiledLiveSession instances can share one simulator, one video
// (the live content) and one LiveCrowdHmp: low-latency viewers' displayed
// tiles become, in wall-clock order, the crowd prior that high-latency
// viewers use for FoV-guided prefetch — the paper's crowd-sourced live HMP
// made end-to-end.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "abr/factory.h"
#include "abr/qoe.h"
#include "core/buffer.h"
#include "core/tile_fetcher.h"
#include "core/transport.h"
#include "hmp/fusion.h"
#include "live/crowd.h"
#include "obs/telemetry.h"
#include "sim/periodic.h"
#include "sim/simulator.h"

namespace sperke::live {

struct TiledLiveConfig {
  // The viewer plays chunk i at wall time chunk_start(i) + e2e_target.
  // Chunk i becomes fetchable at chunk_end(i) + 3 s (capture, upload and
  // transcode), so the target must leave room for that ingest delay plus
  // at least one chunk of fetching.
  double e2e_target_s = 8.0;
  geo::Viewport viewport{100.0, 90.0};
  // Tile-ABR policy (name + per-policy params), built via abr::make_policy.
  abr::TileAbrConfig abr;
  std::string predictor = "linear-regression";
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

struct TiledLiveReport {
  abr::QoeSummary qoe;
  int chunks_played = 0;      // displayed (possibly with blanks)
  int chunks_skipped = 0;     // nothing displayable at the deadline
  double mean_blank_fraction = 0.0;
  int fetches = 0;
  int upgrades = 0;
  int fetch_failures = 0;    // fetches that timed out / failed outright
  int degraded_retries = 0;  // failed FoV fetches re-issued at base tier
  bool finished = false;
};

class TiledLiveSession {
 public:
  // `crowd` (optional) is both read (prefetch prior) and written (this
  // viewer's displayed tiles, after a short report delay). All referenced
  // objects must outlive the session.
  TiledLiveSession(sim::Simulator& simulator,
                   std::shared_ptr<const media::VideoModel> video,
                   core::ChunkTransport& transport,
                   const hmp::HeadTrace& head_trace, TiledLiveConfig config,
                   LiveCrowdHmp* crowd = nullptr);
  // Clears the liveness token, so plans, plays and crowd reports scheduled
  // before the viewer is destroyed do nothing after it. The fetcher guards
  // the requests the transport still holds the same way.
  ~TiledLiveSession() { *alive_ = false; }
  TiledLiveSession(const TiledLiveSession&) = delete;
  TiledLiveSession& operator=(const TiledLiveSession&) = delete;

  void start();

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] TiledLiveReport report() const;

 private:
  [[nodiscard]] sim::Time availability_of(media::ChunkIndex index) const;
  [[nodiscard]] sim::Time deadline_of(media::ChunkIndex index) const;
  [[nodiscard]] sim::Time content_now() const;

  void observe_head();
  [[nodiscard]] std::vector<double> fused_probabilities(media::ChunkIndex index,
                                                        sim::Duration horizon) const;
  void plan_chunk(media::ChunkIndex index);
  // What a settled request means for playback (TileFetcher's settle hook).
  // Settles after finish() count for nothing.
  void on_settle(const core::TileFetcher::Fetch& fetch, core::FetchOutcome outcome);
  void play_chunk(media::ChunkIndex index);
  void scan_upgrades();
  void finish();

  sim::Simulator& simulator_;
  std::shared_ptr<const media::VideoModel> video_;
  core::ChunkTransport& transport_;
  const hmp::HeadTrace& head_trace_;
  TiledLiveConfig config_;
  LiveCrowdHmp* crowd_;
  hmp::FusionPredictor fusion_;
  core::PlaybackBuffer buffer_;
  std::unique_ptr<abr::TileAbrPolicy> policy_;
  abr::QoeTracker qoe_;
  // One in-flight mask per (chunk, tile) cell, lent to fetcher_.
  std::vector<std::uint64_t> in_flight_;
  core::TileFetcher fetcher_;

  bool started_ = false;
  bool finished_ = false;
  media::ChunkIndex next_play_ = 0;
  media::QualityLevel last_fov_quality_ = 0;
  // Planned FoV quality per chunk; -1 = not yet planned.
  std::vector<media::QualityLevel> planned_;
  sim::Time last_observed_{sim::Duration{-1}};

  int chunks_played_ = 0;
  int chunks_skipped_ = 0;
  double blank_sum_ = 0.0;

  std::optional<sim::PeriodicTask> head_task_;
  std::optional<sim::PeriodicTask> upgrade_task_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sperke::live
