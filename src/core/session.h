// StreamingSession: the Sperke client (Figure 4), wired for on-demand 360°
// streaming over a simulated network.
//
// Responsibilities per the figure:
//   * head sensor sampling -> HMP fusion (hmp/fusion.h),
//   * fetch scheduling driven by the pluggable tile-ABR policy
//     (abr/policy.h; the paper's VRA is abr/sperke_vra.h behind it),
//   * the encoded-chunk cache (core/buffer.h), which also records what is
//     in flight,
//   * playback with stall semantics and QoE accounting (abr/qoe.h),
//   * runtime incremental upgrades of mispredicted tiles (§3.1.1).
// All but playback live in the Viewer base class, which the live player
// (live/tiled_viewer.h) derives from as well.
//
// Head orientation is indexed by *content time* (as in public head-trace
// datasets): a stall freezes both the playhead and the sensor stream.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "abr/factory.h"
#include "abr/qoe.h"
#include "core/buffer.h"
#include "core/session_batch.h"
#include "core/transport.h"
#include "hmp/fusion.h"
#include "obs/telemetry.h"
#include "sim/periodic.h"
#include "sim/simulator.h"
#include "util/inline_function.h"

namespace sperke::core {

struct SessionConfig {
  // Tile-ABR policy (name + per-policy params); the session builds its own
  // instance via abr::make_policy at construction. The FoV-agnostic
  // YouTube/Facebook baseline (§2) is policy "fullpano".
  abr::TileAbrConfig abr;
  geo::Viewport viewport{100.0, 90.0};
  // HMP is only trustworthy a short window ahead (§3.2), which bounds how
  // far the planner runs ahead of the playhead.
  int prefetch_horizon_chunks = 4;
  std::string predictor = "linear-regression";
  hmp::FusionConfig fusion;
  hmp::ViewingContext context;
  // User-configured session data budget (§3.1.2's "bandwidth budget
  // configured by the user", e.g. a cellular data cap). 0 = unlimited.
  // As spending approaches the budget the planner caps quality
  // progressively, so the video still finishes within the allowance.
  std::int64_t data_budget_bytes = 0;
  // Telemetry sink (not owned; must outlive the session). Null = disabled,
  // the no-op fast path.
  obs::Telemetry* telemetry = nullptr;
  // Graceful degradation on fetch failures (DESIGN.md §10): when true, an
  // FoV chunk whose fetch failed or timed out is re-requested at the base
  // quality tier while its deadline still stands; OOS losses are abandoned.
  // Off by default — fault-free worlds behave byte-identically either way.
  bool fetch_recovery = false;
};

// Throws std::invalid_argument naming the first field a session cannot
// run with. The Viewer constructor (so both the VOD and the live player)
// and engine::validate call it, so a bad config fails before any event is
// scheduled.
void validate(const SessionConfig& config);

struct SessionReport {
  abr::QoeSummary qoe;
  sim::Duration startup_delay{0};
  sim::Duration wall_duration{0};
  int fetches = 0;
  int urgent_fetches = 0;
  int upgrades = 0;             // §3.1.1 incremental upgrades performed
  int late_corrections = 0;     // tiles first fetched inside the window
  int fetch_failures = 0;       // fetches that timed out / failed outright
  int degraded_retries = 0;     // failed FoV fetches re-issued at base tier
  std::vector<double> viewport_utility_per_chunk;
  bool completed = false;
};

// Viewer: the clock-independent half of the Sperke client (Figure 4),
// shared by the VOD player below and the live one (live/tiled_viewer.h).
// It owns head sampling into HMP fusion, the predicted view, chunk
// planning through the tile-ABR policy, the §3.1.1 upgrade scan and the
// fetch path (Figure 4's fetch scheduler): dispatch with request ids and
// the Table 1 urgency test, in-flight dedupe in the buffer's cells, the
// fetch counters and trace events, and the base-tier degraded retry
// (DESIGN.md §10). A player derived from it supplies its clock (content
// time, chunk deadlines, the first unplayed chunk) and what a settled fetch
// means for playback.
class Viewer {
 public:
  Viewer(const Viewer&) = delete;
  Viewer& operator=(const Viewer&) = delete;

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] const PlaybackBuffer& buffer() const { return buffer_; }

 protected:
  // One dispatched request, as on_settle sees it.
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

  struct Counters {
    int fetches = 0;
    int urgent_fetches = 0;
    int upgrades = 0;          // §3.1.1 incremental upgrades performed
    int late_corrections = 0;  // tiles first fetched inside the window
    int fetch_failures = 0;    // fetches that timed out / failed outright
    int degraded_retries = 0;  // failed FoV fetches re-issued at base tier
  };

  // Metric handles mirroring the counters; null = not exported. The player
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

  // `transport` and `head_trace` must outlive the viewer. `crowd` (may be
  // null) provides the cross-user prior for HMP fusion and must cover every
  // chunk of the video. `batch` (may be null) is the shared SoA arena the
  // viewer claims a slot in — its hot state (tile probabilities, planned
  // qualities, buffer cells) then lives in the batch's contiguous slabs
  // next to its shard neighbours; without one the viewer owns a private
  // capacity-1 batch. A fetch is urgent when its deadline is less than
  // `urgent_slack` away. Throws std::invalid_argument for a null video.
  Viewer(sim::Simulator& simulator, std::shared_ptr<const media::VideoModel> video,
         ChunkTransport& transport, const hmp::HeadTrace& head_trace,
         SessionConfig config, const hmp::ViewingHeatmap* crowd,
         SessionBatch* batch, sim::Duration urgent_slack);
  // Clears the liveness token, so events scheduled before the viewer is
  // destroyed, and requests the transport still holds, do nothing after it.
  virtual ~Viewer() { *alive_ = false; }

  // The player's clock: the content time being shown now, when chunk
  // `index` must be displayable, and the first chunk not yet shown.
  [[nodiscard]] virtual sim::Time content_now() const = 0;
  [[nodiscard]] virtual sim::Time deadline_of(media::ChunkIndex index) const = 0;
  [[nodiscard]] virtual media::ChunkIndex first_unplayed() const = 0;
  // What a settled request means for playback, called once its in-flight
  // bit is cleared and it is traced.
  virtual void on_settle(const Fetch& fetch, FetchOutcome outcome) = 0;
  // Writes the fused tile probabilities of chunk `index`, played `horizon`
  // from now, into probs_.
  virtual void fuse(media::ChunkIndex index, sim::Duration horizon);

  // Throws std::logic_error on a second call. Primes fusion with the
  // current pose, then starts head sampling and, for a policy that
  // upgrades, the upgrade scan.
  void start_tasks();
  // Marks the viewer finished and stops both tasks.
  void stop();
  // Records `event` when telemetry is on.
  void record_trace(const obs::TraceEvent& event);

  // Ground truth for chunk `index`, kept until another chunk is asked for
  // (DESIGN.md §13).
  [[nodiscard]] const std::vector<geo::TileId>& visible_at(media::ChunkIndex index);
  // Predicted orientation and visible tiles for a prefetch-window chunk,
  // computed afresh; the answer is valid until the next call.
  struct PredictedView {
    geo::Orientation orientation{};
    std::vector<geo::TileId> visible;
  };
  [[nodiscard]] const PredictedView& predicted_view(media::ChunkIndex index);

  // Plans chunk `index` (the next one to plan) at `buffer_level` and
  // `kbps`: the FoV set is sized from the motion-predicted viewport but
  // picked from the fused probability map. Records the planned quality and
  // returns the plan, which stays valid until the next plan() call.
  const abr::ChunkPlan& plan(media::ChunkIndex index, sim::Duration buffer_level,
                             double kbps);

  // Fetch `address` unless it is buffered or already in flight; returns
  // whether it was sent. A retry names the failed request it replaces as
  // `parent_id`.
  bool dispatch(const media::ChunkAddress& address, abr::SpatialClass spatial,
                sim::Time deadline, std::int64_t parent_id = 0);

  // Count `fetch`'s fault loss. With fetch_recovery on, a failed FoV fetch
  // of a chunk at or after `playhead` whose deadline still stands is
  // re-requested at the base tier, citing the failed request as its causal
  // parent.
  void recover(const Fetch& fetch, media::ChunkIndex playhead);

  // The sorted visible tiles of the chunk being upgraded, computed on demand.
  using VisibleTiles = util::InlineFunction<std::span<const geo::TileId>(), 16>;

  // The §3.1.1 upgrade pass over planned chunk `index`: every tile displayed
  // below `target` is offered to the policy, in ascending tile order, at its
  // probability in `probs`. A decision that would send something, one with
  // a fetch neither buffered nor in flight, is acted on only if its tile is
  // visible: it is traced, then its fetches are dispatched. `visible` is
  // called at most once, at the first such decision, and not at all when no
  // tile would send, so the frustum is computed only then; the span it
  // returns must stay valid for the rest of the pass.
  void upgrade(media::ChunkIndex index, std::span<const double> probs,
               media::QualityLevel target, sim::Time deadline,
               double estimated_kbps, const VisibleTiles& visible);

  sim::Simulator& simulator_;
  std::shared_ptr<const media::VideoModel> video_;
  ChunkTransport& transport_;
  const hmp::HeadTrace& head_trace_;
  SessionConfig config_;
  hmp::FusionPredictor fusion_;
  // SoA hot-state arena (DESIGN.md §13): the shard's shared batch, or a
  // private capacity-1 batch. Declared before buffer_, which borrows its
  // cell slab from the claimed slot.
  std::unique_ptr<SessionBatch> own_batch_;
  SessionBatch* batch_;
  int slot_;
  PlaybackBuffer buffer_;
  std::unique_ptr<abr::TileAbrPolicy> policy_;
  abr::QoeTracker qoe_;
  Counters fetch_counters_;
  Metrics fetch_metrics_;

  bool started_ = false;
  bool finished_ = false;
  // Planning state: planned quality per chunk, a batch slot span (-1 = not
  // yet planned; qualities are never negative). Chunks are planned in
  // order, so every chunk before next_plan_ is planned.
  media::ChunkIndex next_plan_ = 0;
  media::QualityLevel last_fov_quality_ = 0;
  // The predicted orientation the last plan() sized its super chunk from.
  geo::Orientation plan_orientation_{};
  std::span<media::QualityLevel> planned_;
  std::span<double> probs_;  // batch probability slot (HMP fusion output)
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

 private:
  void observe_head();
  void scan_upgrades();
  void settle(const Fetch& fetch, sim::Time at, FetchOutcome outcome);
  void trace(obs::TraceEventType type, const Fetch& fetch, sim::Time ts,
             double value);

  sim::Duration urgent_slack_;
  sim::Time last_observed_{sim::Duration{-1}};

  // visible_at's kept answer and predicted_view's latest one.
  media::ChunkIndex visible_chunk_ = -1;
  std::vector<geo::TileId> visible_;
  PredictedView predicted_;

  // Reusable hot-path buffers (DESIGN.md §8). The simulator is
  // single-threaded and the transport never completes a fetch
  // synchronously, so no two live uses of the same buffer ever overlap:
  // plan and scan_upgrades own the fov/probs/plan set, and each finishes
  // with its buffers before anything that reuses them can run.
  geo::TileGeometry::Scratch geo_scratch_;
  std::vector<geo::TileId> fov_scratch_;
  abr::ChunkPlan plan_scratch_;
  abr::TileAbrPolicy::PlanWorkspace vra_workspace_;
  // upgrade()'s policy answer, reused so a decision allocates nothing.
  abr::TileAbrPolicy::UpgradeDecision decision_;

  std::optional<sim::PeriodicTask> head_task_;
  std::optional<sim::PeriodicTask> upgrade_task_;
};

// The on-demand player: content time follows the playhead, which a stall
// freezes, and a chunk that is not displayable at its deadline stalls
// playback until it is.
class StreamingSession : public Viewer {
 public:
  // See Viewer for the arguments.
  StreamingSession(sim::Simulator& simulator,
                   std::shared_ptr<const media::VideoModel> video,
                   ChunkTransport& transport, const hmp::HeadTrace& head_trace,
                   SessionConfig config,
                   const hmp::ViewingHeatmap* crowd = nullptr,
                   SessionBatch* batch = nullptr);

  // Schedule the session's activity; drive with simulator.run()/run_until().
  void start();

  [[nodiscard]] SessionReport report() const;

 private:
  [[nodiscard]] sim::Time content_now() const override;
  [[nodiscard]] sim::Time deadline_of(media::ChunkIndex index) const override;
  [[nodiscard]] media::ChunkIndex first_unplayed() const override {
    return current_chunk_ + (playing_ ? 1 : 0);
  }
  void on_settle(const Fetch& fetch, FetchOutcome outcome) override;

  void maybe_plan();
  void attempt_start();
  // Re-request, at the base tier, every startup tile that is neither
  // displayable nor being fetched at any level.
  void request_missing_startup_tiles();
  void play_chunk();
  void try_resume_from_stall();
  void finish();

  // Playback state.
  bool playing_ = false;
  bool stalled_ = false;
  media::ChunkIndex current_chunk_ = 0;     // chunk being (or next to be) played
  sim::Time chunk_play_started_{sim::kTimeZero};
  sim::Time stall_started_{sim::kTimeZero};
  sim::Time session_started_{sim::kTimeZero};
  sim::Time session_ended_{sim::kTimeZero};
  sim::Time startup_done_{sim::kTimeZero};

  std::vector<double> utility_per_chunk_;

  // Telemetry (metric handles resolved once at construction; all null when
  // config_.telemetry is null). The metric values mirror the counters and
  // QoE sums exactly — same increments at the same call sites. The fetch
  // counters' handles are bound into fetch_metrics_ in between these,
  // keeping the session's registration (= export) order.
  struct SessionMetrics {
    obs::Counter* chunks_played = nullptr;
    obs::Counter* stall_events = nullptr;
    // Level gauge: 1 while this session is stalled, 0 otherwise. Sampled
    // into the time series, it gives SLOs a stall signal that is live
    // *during* an outage (the stall_s histogram only observes at stall
    // end, after recovery).
    obs::Gauge* stalled = nullptr;
    obs::Histogram* stall_s = nullptr;
    obs::Histogram* viewport_utility = nullptr;
    obs::Histogram* hmp_error_deg = nullptr;
    // Byte accounting mirrored from the QoE tracker, so run-scope tooling
    // (the ABR arena bench) reads wasted bytes from the merged registry.
    obs::Counter* bytes_downloaded = nullptr;
    obs::Counter* bytes_wasted = nullptr;
    // Policy-scoped plan counter: the metric name embeds the policy name,
    // giving mixed-population worlds one merged row per policy.
    obs::Counter* abr_plans = nullptr;
  };
  SessionMetrics metrics_;
  // Orientation predicted at plan time, per chunk, for the HMP angular-error
  // metric scored (once) when the chunk actually plays. Sized and filled
  // only with telemetry on.
  std::vector<std::optional<geo::Orientation>> predicted_at_plan_;

  // Play-time scratch (DESIGN.md §8): play_chunk owns the missing set.
  std::vector<geo::TileId> missing_scratch_;
};

}  // namespace sperke::core
