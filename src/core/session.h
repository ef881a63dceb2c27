// StreamingSession: the Sperke client (Figure 4), wired for on-demand 360°
// streaming over a simulated network.
//
// Responsibilities per the figure:
//   * head sensor sampling -> HMP fusion (hmp/fusion.h),
//   * fetch scheduling driven by the pluggable tile-ABR policy
//     (abr/policy.h; the paper's VRA is abr/sperke_vra.h behind it),
//   * the encoded-chunk cache (core/buffer.h),
//   * playback with stall semantics and QoE accounting (abr/qoe.h),
//   * runtime incremental upgrades of mispredicted tiles (§3.1.1).
//
// Head orientation is indexed by *content time* (as in public head-trace
// datasets): a stall freezes both the playhead and the sensor stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
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

namespace sperke::core {

struct SessionConfig {
  // Tile-ABR policy (name + per-policy params); the session builds its own
  // instance via abr::make_policy at construction. The FoV-agnostic
  // YouTube/Facebook baseline (§2) is policy "fullpano".
  abr::TileAbrConfig abr;
  geo::Viewport viewport{100.0, 90.0};
  double head_sample_hz = 25.0;
  // HMP is only trustworthy a short window ahead (§3.2), which bounds how
  // far the planner runs ahead of the playhead.
  int prefetch_horizon_chunks = 4;
  int startup_chunks = 1;
  // Below this deadline slack a fetch is dispatched as "urgent" (Table 1).
  sim::Duration urgent_slack{sim::seconds(1.0)};
  sim::Duration upgrade_scan_period{sim::milliseconds(250)};
  bool enable_upgrades = true;
  abr::QoeWeights qoe;
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
// run with. The StreamingSession constructor and engine::validate call it,
// so a bad config fails before any event is scheduled.
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

class StreamingSession {
 public:
  // `transport` and `head_trace` must outlive the session. `crowd` (may be
  // null) provides the cross-user prior for HMP fusion. `batch` (may be
  // null) is the shared SoA arena the session claims a slot in — its hot
  // state (tile probabilities, planned qualities, in-flight masks, buffer
  // cells) then lives in the batch's contiguous slabs next to its shard
  // neighbours; without one the session owns a private capacity-1 batch.
  StreamingSession(sim::Simulator& simulator,
                   std::shared_ptr<const media::VideoModel> video,
                   ChunkTransport& transport, const hmp::HeadTrace& head_trace,
                   SessionConfig config,
                   const hmp::ViewingHeatmap* crowd = nullptr,
                   SessionBatch* batch = nullptr);

  // Schedule the session's activity; drive with simulator.run()/run_until().
  void start();

  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] SessionReport report() const;

  [[nodiscard]] const PlaybackBuffer& buffer() const { return buffer_; }

 private:
  [[nodiscard]] sim::Time media_now() const;
  [[nodiscard]] sim::Time deadline_of(media::ChunkIndex index) const;

  // The two visibility answers the session reuses (DESIGN.md §13).
  // Ground truth at the playhead chunk; before playback starts that is
  // chunk 0, the startup set. Evaluated once per chunk.
  [[nodiscard]] const std::vector<geo::TileId>& playhead_visible();
  // Predicted orientation and visible tiles for a prefetch-window chunk.
  struct PredictedView {
    media::ChunkIndex chunk = -1;  // -1 = empty entry
    sim::Time media{};             // media_now() at prediction
    sim::Time observed{};          // last_observed_ at prediction
    geo::Orientation orientation{};
    std::vector<geo::TileId> visible;
  };
  [[nodiscard]] const PredictedView& predicted_view(media::ChunkIndex index);

  void observe_head();
  void maybe_plan();
  void record_trace(const obs::TraceEvent& event);
  void dispatch(const media::ChunkAddress& address, abr::SpatialClass spatial,
                sim::Time deadline, bool count_as_upgrade, bool count_as_correction,
                std::int64_t parent_request_id = 0);
  void on_fetch_done(const media::ChunkAddress& address, std::int64_t bytes);
  void attempt_start();
  // Re-request, at the base tier, every startup tile that is neither
  // displayable nor being fetched at any level.
  void request_missing_startup_tiles();
  void play_chunk();
  void try_resume_from_stall();
  void scan_upgrades();
  void finish();

  // In-flight bit for an address in the batch's per-(chunk, tile) masks:
  // AVC levels occupy the low half, SVC layers the high half.
  [[nodiscard]] static std::uint64_t inflight_bit(const media::ChunkAddress& address);
  [[nodiscard]] std::size_t inflight_cell(const media::ChunkKey& key) const;
  [[nodiscard]] bool inflight_contains(const media::ChunkAddress& address) const;

  sim::Simulator& simulator_;
  std::shared_ptr<const media::VideoModel> video_;
  ChunkTransport& transport_;
  const hmp::HeadTrace& head_trace_;
  SessionConfig config_;
  hmp::FusionPredictor fusion_;
  // SoA hot-state arena (DESIGN.md §13): the shard's shared batch, or a
  // private capacity-1 batch for standalone sessions. Declared before
  // buffer_, which borrows its cell slab from the claimed slot.
  std::unique_ptr<SessionBatch> own_batch_;
  SessionBatch* batch_;
  int slot_;
  PlaybackBuffer buffer_;
  std::unique_ptr<abr::TileAbrPolicy> policy_;
  abr::QoeTracker qoe_;

  // Playback state.
  bool started_ = false;
  bool playing_ = false;
  bool stalled_ = false;
  bool finished_ = false;
  media::ChunkIndex current_chunk_ = 0;     // chunk being (or next to be) played
  sim::Time chunk_play_started_{sim::kTimeZero};
  sim::Time stall_started_{sim::kTimeZero};
  sim::Time session_started_{sim::kTimeZero};
  sim::Time session_ended_{sim::kTimeZero};
  sim::Time startup_done_{sim::kTimeZero};

  // Planning state, viewed through batch slot spans: planned quality per
  // chunk (-1 = not yet planned; qualities are never negative) and one
  // in-flight request mask per (chunk, tile) cell.
  media::ChunkIndex next_plan_ = 0;
  media::QualityLevel last_fov_quality_ = 0;
  std::span<media::QualityLevel> planned_;
  std::span<std::uint64_t> in_flight_;

  // Counters.
  int fetches_ = 0;
  int urgent_fetches_ = 0;
  int upgrades_ = 0;
  int late_corrections_ = 0;
  int fetch_failures_ = 0;
  int degraded_retries_ = 0;
  std::vector<double> utility_per_chunk_;
  sim::Time last_observed_{sim::Duration{-1}};

  // Telemetry (metric handles resolved once at construction; all null when
  // config_.telemetry is null). The metric values mirror the counters and
  // QoE sums above exactly — same increments at the same call sites.
  struct SessionMetrics {
    obs::Counter* fetches = nullptr;
    obs::Counter* urgent_fetches = nullptr;
    obs::Counter* upgrades = nullptr;
    obs::Counter* late_corrections = nullptr;
    obs::Counter* chunks_played = nullptr;
    obs::Counter* stall_events = nullptr;
    // Level gauge: 1 while this session is stalled, 0 otherwise. Sampled
    // into the time series, it gives SLOs a stall signal that is live
    // *during* an outage (the stall_s histogram only observes at stall
    // end, after recovery).
    obs::Gauge* stalled = nullptr;
    // Bound iff fetch_recovery is on, so fault-free worlds keep their
    // exact pre-fault metric set.
    obs::Counter* fetch_failures = nullptr;
    obs::Counter* degraded_retries = nullptr;
    obs::Histogram* fetch_latency_ms = nullptr;
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
  // Orientation predicted at plan time, for the HMP angular-error metric
  // scored when the chunk actually plays. Populated only with telemetry on.
  std::map<media::ChunkIndex, geo::Orientation> predicted_at_plan_;

  // Kept answers (see playhead_visible / predicted_view). The playhead set
  // changes only when the playhead advances. A predicted view is reused
  // only while its chunk, media_now() and last_observed_ are unchanged:
  // fusion state changes only in observe_head, so those three fix the
  // prediction exactly. Media time alone is not enough: the first head
  // sample after a stall starts moves the prediction while media time
  // stays frozen. One ring entry per prefetch-window chunk, slot = chunk
  // modulo prefetch_horizon_chunks.
  media::ChunkIndex playhead_chunk_ = -1;
  std::vector<geo::TileId> playhead_visible_;
  std::vector<PredictedView> predicted_;

  // Reusable hot-path buffers (DESIGN.md §8). The simulator is
  // single-threaded and the transport never completes a fetch synchronously,
  // so no two live uses of the same buffer ever overlap: maybe_plan and
  // scan_upgrades own the fov/probs/plan set, play_chunk owns the
  // missing/is_visible set, and each finishes with its buffers before
  // anything that reuses them can run.
  geo::TileGeometry::Scratch geo_scratch_;
  std::vector<geo::TileId> fov_scratch_;
  std::span<double> probs_;  // batch probability slot (HMP fusion output)
  std::vector<geo::TileId> missing_scratch_;
  std::vector<char> is_visible_scratch_;
  abr::ChunkPlan plan_scratch_;
  abr::TileAbrPolicy::PlanWorkspace vra_workspace_;

  std::optional<sim::PeriodicTask> head_task_;
  std::optional<sim::PeriodicTask> upgrade_task_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace sperke::core
