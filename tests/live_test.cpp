#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "live/broadcast.h"
#include "live/crowd.h"
#include "live/platform.h"
#include "live/upload_vra.h"

namespace sperke::live {
namespace {

LiveBroadcastSession::Config config_for(const PlatformProfile& platform,
                                        NetworkConditions network) {
  LiveBroadcastSession::Config cfg;
  cfg.platform = platform;
  cfg.network = network;
  return cfg;
}

TEST(Platform, ProfilesAreDistinct) {
  const auto fb = PlatformProfile::facebook();
  const auto yt = PlatformProfile::youtube();
  const auto ps = PlatformProfile::periscope();
  EXPECT_EQ(fb.delivery, Delivery::kDashPull);
  EXPECT_EQ(yt.delivery, Delivery::kDashPull);
  EXPECT_EQ(ps.delivery, Delivery::kRtmpPush);
  EXPECT_EQ(fb.ladder_kbps.size(), 2u);   // 720p/1080p
  EXPECT_EQ(yt.ladder_kbps.size(), 6u);   // 144p..1080p
  EXPECT_GT(yt.segment_s, fb.segment_s);
}

TEST(Platform, Table2HasFiveConditions) {
  const auto conditions = table2_conditions();
  ASSERT_EQ(conditions.size(), 5u);
  EXPECT_EQ(conditions[0].label(), "No limit up / No limit down");
  EXPECT_EQ(conditions[3].up_kbps, 500.0);
  EXPECT_EQ(conditions[4].down_kbps, 500.0);
}

TEST(LiveBroadcast, UnconstrainedBaseLatencyOrdering) {
  // Table 2 row 1: Facebook < Periscope < YouTube.
  const auto fb =
      LiveBroadcastSession(config_for(PlatformProfile::facebook(), {})).run();
  const auto ps =
      LiveBroadcastSession(config_for(PlatformProfile::periscope(), {})).run();
  const auto yt =
      LiveBroadcastSession(config_for(PlatformProfile::youtube(), {})).run();
  ASSERT_GT(fb.segments_displayed, 10);
  ASSERT_GT(ps.segments_displayed, 10);
  ASSERT_GT(yt.segments_displayed, 10);
  EXPECT_LT(fb.mean_e2e_latency_s, ps.mean_e2e_latency_s);
  EXPECT_LT(ps.mean_e2e_latency_s, yt.mean_e2e_latency_s);
  // Base latencies are non-trivial (several seconds) even unconstrained.
  EXPECT_GT(fb.mean_e2e_latency_s, 3.0);
}

TEST(LiveBroadcast, UplinkThrottlingInflatesLatency) {
  const auto base =
      LiveBroadcastSession(config_for(PlatformProfile::facebook(), {})).run();
  const auto constrained = LiveBroadcastSession(
                               config_for(PlatformProfile::facebook(),
                                          {.up_kbps = 500.0, .down_kbps = 0.0}))
                               .run();
  EXPECT_GT(constrained.mean_e2e_latency_s, base.mean_e2e_latency_s + 1.0);
  // The fixed-bitrate broadcaster must drop segments at 0.5 Mbps.
  EXPECT_GT(constrained.segments_dropped_at_broadcaster, 0);
}

TEST(LiveBroadcast, MildUplinkThrottleInflatesLessThanSevere) {
  const auto mild = LiveBroadcastSession(
                        config_for(PlatformProfile::facebook(),
                                   {.up_kbps = 2000.0, .down_kbps = 0.0}))
                        .run();
  const auto severe = LiveBroadcastSession(
                          config_for(PlatformProfile::facebook(),
                                     {.up_kbps = 500.0, .down_kbps = 0.0}))
                          .run();
  EXPECT_LT(mild.mean_e2e_latency_s, severe.mean_e2e_latency_s);
}

TEST(LiveBroadcast, DownlinkThrottlingTriggersRateAdaptation) {
  const auto constrained = LiveBroadcastSession(
                               config_for(PlatformProfile::facebook(),
                                          {.up_kbps = 0.0, .down_kbps = 2000.0}))
                               .run();
  ASSERT_GT(constrained.segments_displayed, 5);
  // DASH adaptation must settle on the 1.5 Mbps rung (1080p needs 4 Mbps).
  EXPECT_LT(constrained.mean_displayed_kbps, 4000.0);
}

TEST(LiveBroadcast, SevereDownlinkInflatesLatency) {
  const auto base =
      LiveBroadcastSession(config_for(PlatformProfile::facebook(), {})).run();
  const auto constrained = LiveBroadcastSession(
                               config_for(PlatformProfile::facebook(),
                                          {.up_kbps = 0.0, .down_kbps = 500.0}))
                               .run();
  // 0.5 Mbps cannot even carry the lowest Facebook rung in real time.
  EXPECT_GT(constrained.mean_e2e_latency_s, base.mean_e2e_latency_s * 2.0);
}

TEST(LiveBroadcast, RejectsBadConfig) {
  auto cfg = config_for(PlatformProfile::facebook(), {});
  cfg.platform.ladder_kbps.clear();
  EXPECT_THROW(LiveBroadcastSession{cfg}, std::invalid_argument);
  cfg = config_for(PlatformProfile::facebook(), {});
  cfg.platform.segment_s = 0.0;
  EXPECT_THROW(LiveBroadcastSession{cfg}, std::invalid_argument);
}

// One row per numeric input of a live session or an upload policy. Every
// bad value must throw std::invalid_argument at construction, before any
// of them reaches a cast to the clock or to a byte count; NaN and the
// infinities must fail every check.
struct LiveField {
  const char* name;
  void (*build)(double);  // constructs the session or policy with the value
  std::vector<double> bad;
  double good;  // the nearest legal value, still accepted
};

void PrintTo(const LiveField& field, std::ostream* os) { *os << field.name; }

class LiveFieldValidation : public ::testing::TestWithParam<LiveField> {};

TEST_P(LiveFieldValidation, ConstructorRejectsEveryBadValue) {
  const LiveField& field = GetParam();
  for (const double value : field.bad) {
    EXPECT_THROW(field.build(value), std::invalid_argument) << field.name << " = " << value;
  }
  EXPECT_NO_THROW(field.build(field.good)) << field.name << " = " << field.good;
}

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Builds a Facebook session after `set` changes one field of its config.
template <auto set>
void build_session(double value) {
  auto cfg = config_for(PlatformProfile::facebook(), {});
  set(cfg, value);
  const LiveBroadcastSession session(cfg);
}

sim::Duration us(double value) { return sim::microseconds(static_cast<std::int64_t>(value)); }

using Cfg = LiveBroadcastSession::Config;

INSTANTIATE_TEST_SUITE_P(
    Fields, LiveFieldValidation,
    ::testing::Values(
        LiveField{"upload_kbps",
                  build_session<[](Cfg& c, double v) { c.platform.upload_kbps = v; }>,
                  {kNan, 0.0, -1.0, kInf, -kInf, 1e300}, 1.0},
        LiveField{"segment_s",
                  build_session<[](Cfg& c, double v) { c.platform.segment_s = v; }>,
                  {kNan, kInf, 1e300}, 1e-6},
        LiveField{"broadcaster_queue_mbits",
                  build_session<[](Cfg& c, double v) {
                    c.platform.broadcaster_queue_mbits = v;
                  }>,
                  {kNan, -1.0, kInf, -kInf}, 0.0},
        LiveField{"ladder_kbps",
                  build_session<[](Cfg& c, double v) { c.platform.ladder_kbps = {v}; }>,
                  {kNan, 0.0, -1.0, kInf, 1e300}, 1.0},
        LiveField{"transcode_delay_us",
                  build_session<[](Cfg& c, double v) { c.platform.transcode_delay = us(v); }>,
                  {-1.0, 4.7e18}, 0.0},
        LiveField{"mpd_poll_period_us",
                  build_session<[](Cfg& c, double v) { c.platform.mpd_poll_period = us(v); }>,
                  {0.0, -1.0}, 1.0},
        LiveField{"viewer_buffer_segments",
                  build_session<[](Cfg& c, double v) {
                    c.platform.viewer_buffer_segments = static_cast<int>(v);
                  }>,
                  {-1.0}, 0.0},
        LiveField{"push_max_backlog",
                  build_session<[](Cfg& c, double v) {
                    c.platform.push_max_backlog = static_cast<int>(v);
                  }>,
                  {-1.0}, 0.0},
        LiveField{"viewer_max_behind_s",
                  build_session<[](Cfg& c, double v) { c.platform.viewer_max_behind_s = v; }>,
                  {kNan, -1.0, kInf, -kInf}, 0.0},
        LiveField{"initial_downlink_estimate_kbps",
                  build_session<[](Cfg& c, double v) {
                    c.platform.initial_downlink_estimate_kbps = v;
                  }>,
                  {kNan, -1.0, kInf, -kInf}, 0.0},
        // +inf already fails in the link's bandwidth trace; 0 = unconstrained.
        LiveField{"up_kbps",
                  build_session<[](Cfg& c, double v) { c.network.up_kbps = v; }>,
                  {kNan, -1.0, -kInf}, 0.0},
        LiveField{"down_kbps",
                  build_session<[](Cfg& c, double v) { c.network.down_kbps = v; }>,
                  {kNan, -1.0, -kInf}, 0.0},
        LiveField{"broadcast_length_us",
                  build_session<[](Cfg& c, double v) { c.broadcast_length = us(v); }>,
                  {-1.0, 9.223372036854774e18}, 0.0},
        LiveField{"measure_from_s",
                  build_session<[](Cfg& c, double v) { c.measure_from = sim::seconds(v); }>,
                  {-1.0, 141.0}, 140.0},
        LiveField{"measure_to_s",
                  build_session<[](Cfg& c, double v) { c.measure_to = sim::seconds(v); }>,
                  {39.0}, 40.0},
        LiveField{"fixed_target_kbps", [](double v) { FixedQualityPolicy policy(v); },
                  {kNan, kInf}, 1e-3},
        LiveField{"quality_adaptive_target_kbps",
                  [](double v) { QualityAdaptivePolicy policy(v, 1.0); },
                  {kNan, kInf}, 1.0},
        LiveField{"quality_adaptive_min_kbps",
                  [](double v) { QualityAdaptivePolicy policy(1000.0, v); },
                  {kNan}, 1000.0},
        LiveField{"quality_adaptive_safety",
                  [](double v) { QualityAdaptivePolicy policy(1000.0, 100.0, v); },
                  {kNan}, 1.0},
        LiveField{"spatial_fallback_target_kbps",
                  [](double v) { SpatialFallbackPolicy policy(v, 90.0); },
                  {kNan, kInf}, 1e-3},
        LiveField{"spatial_fallback_min_horizon_deg",
                  [](double v) { SpatialFallbackPolicy policy(1000.0, v); },
                  {kNan}, 360.0},
        LiveField{"spatial_fallback_safety",
                  [](double v) { SpatialFallbackPolicy policy(1000.0, 90.0, v); },
                  {kNan}, 1.0}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(LiveBroadcast, UploadPolicyPreventsBroadcasterDrops) {
  // A 4 Mbps feed over a 1 Mbps uplink: without adaptation the encoder
  // must drop; with spatial fallback it fits by shrinking the horizon.
  auto cfg = config_for(PlatformProfile::facebook(),
                        {.up_kbps = 1000.0, .down_kbps = 0.0});
  cfg.platform.upload_kbps = 4000.0;
  const auto fixed = LiveBroadcastSession(cfg).run();
  EXPECT_GT(fixed.segments_dropped_at_broadcaster, 0);
  EXPECT_DOUBLE_EQ(fixed.mean_uploaded_horizon_deg, 360.0);

  SpatialFallbackPolicy policy(4000.0, 120.0);
  cfg.upload_policy = &policy;
  const auto adapted = LiveBroadcastSession(cfg).run();
  EXPECT_EQ(adapted.segments_dropped_at_broadcaster, 0);
  EXPECT_LT(adapted.mean_uploaded_horizon_deg, 360.0);
  EXPECT_LT(adapted.mean_e2e_latency_s, fixed.mean_e2e_latency_s);
}

TEST(LiveBroadcast, UplinkDisruptionTriggersSpatialFallback) {
  // A 4 Mbps feed over an ample 6 Mbps uplink — healthy until a scheduled
  // mid-broadcast collapse to a quarter capacity (DESIGN.md §10). Without
  // adaptation the encoder backlog grows and segments drop; the paper's
  // spatial fallback rides out the disruption by shrinking the uploaded
  // horizon only while the fault lasts.
  auto cfg = config_for(PlatformProfile::facebook(),
                        {.up_kbps = 6000.0, .down_kbps = 0.0});
  cfg.platform.upload_kbps = 4000.0;
  cfg.uplink_faults.capacity_collapses.push_back(
      {.start_s = 50.0, .duration_s = 40.0, .factor = 0.25});
  const auto fixed = LiveBroadcastSession(cfg).run();
  EXPECT_GT(fixed.segments_dropped_at_broadcaster, 0);
  EXPECT_DOUBLE_EQ(fixed.mean_uploaded_horizon_deg, 360.0);

  SpatialFallbackPolicy policy(4000.0, 120.0);
  cfg.upload_policy = &policy;
  const auto adapted = LiveBroadcastSession(cfg).run();
  // Only the segment straddling the collapse edge (decided at the pre-fault
  // capacity) may still drop; every segment decided inside the window fits.
  EXPECT_LE(adapted.segments_dropped_at_broadcaster, 1);
  EXPECT_LT(adapted.segments_dropped_at_broadcaster,
            fixed.segments_dropped_at_broadcaster);
  // Shrunk during the disruption, full 360° outside it — the mean sits
  // strictly between the fault-window horizon and the healthy one.
  EXPECT_LT(adapted.mean_uploaded_horizon_deg, 360.0);
  EXPECT_GT(adapted.mean_uploaded_horizon_deg, 130.0);
}

TEST(LiveBroadcast, DownlinkOutageIsRetriedNotFatal) {
  // A hard mid-broadcast downlink outage kills the in-flight segment
  // transfer; the viewer re-requests from the same index once the link
  // returns, so the broadcast still plays out (at worse latency).
  auto clean_cfg = config_for(PlatformProfile::facebook(), {});
  const auto clean = LiveBroadcastSession(clean_cfg).run();

  auto faulted_cfg = config_for(PlatformProfile::facebook(), {});
  faulted_cfg.downlink_faults.outages.push_back(
      {.start_s = 60.0, .duration_s = 8.0});
  const auto faulted = LiveBroadcastSession(faulted_cfg).run();
  EXPECT_GT(faulted.segments_displayed, 0);
  EXPECT_GE(clean.segments_displayed, faulted.segments_displayed);
  EXPECT_GT(faulted.mean_e2e_latency_s, clean.mean_e2e_latency_s);
}

TEST(UploadVra, FixedPolicyIgnoresCapacity) {
  FixedQualityPolicy policy(4000.0);
  const auto d = policy.decide(100.0);
  EXPECT_DOUBLE_EQ(d.horizon_deg, 360.0);
  EXPECT_DOUBLE_EQ(d.upload_kbps, 4000.0);
}

TEST(UploadVra, QualityAdaptiveSqueezesBitrate) {
  QualityAdaptivePolicy policy(4000.0, 500.0);
  EXPECT_DOUBLE_EQ(policy.decide(50'000.0).upload_kbps, 4000.0);  // capped at target
  const auto d = policy.decide(2000.0);
  EXPECT_DOUBLE_EQ(d.horizon_deg, 360.0);
  EXPECT_NEAR(d.upload_kbps, 1800.0, 1e-9);
  EXPECT_DOUBLE_EQ(policy.decide(100.0).upload_kbps, 500.0);  // floor
}

TEST(UploadVra, SpatialFallbackShrinksHorizonNotQuality) {
  SpatialFallbackPolicy policy(4000.0, 120.0);
  const auto full = policy.decide(50'000.0);
  EXPECT_DOUBLE_EQ(full.horizon_deg, 360.0);
  const auto half = policy.decide(2000.0);
  EXPECT_NEAR(half.horizon_deg, 162.0, 1.0);  // 360*1800/4000
  // Per-degree density preserved at the target.
  EXPECT_NEAR(half.upload_kbps / half.horizon_deg, 4000.0 / 360.0, 1e-6);
  // Floor: never narrower than the stage.
  const auto tiny = policy.decide(300.0);
  EXPECT_DOUBLE_EQ(tiny.horizon_deg, 120.0);
}

TEST(UploadVra, CoverageProbabilityBehaves) {
  EXPECT_DOUBLE_EQ(horizon_coverage_probability(360.0, 40.0), 1.0);
  EXPECT_NEAR(horizon_coverage_probability(80.0, 40.0), 0.6827, 0.01);  // +-1 sigma
  EXPECT_GT(horizon_coverage_probability(180.0, 40.0),
            horizon_coverage_probability(90.0, 40.0));
  EXPECT_DOUBLE_EQ(horizon_coverage_probability(0.0, 40.0), 0.0);
}

TEST(UploadVra, DensityUtilityMonotone) {
  const double target = 4000.0 / 360.0;
  EXPECT_DOUBLE_EQ(density_utility(target, target), 1.0);
  EXPECT_GT(density_utility(target, target), density_utility(target / 2.0, target));
  EXPECT_DOUBLE_EQ(density_utility(target / 32.0, target), 0.0);
}

TEST(UploadVra, SpatialFallbackBeatsQualityDropOnNarrowInterest) {
  // Concert scenario: gaze concentrated (sigma 40 deg); uplink at 1.5 Mbps.
  const double target = 4000.0;
  const double sigma = 40.0;
  QualityAdaptivePolicy quality(target, 250.0);
  SpatialFallbackPolicy spatial(target, 120.0);
  const double u_quality =
      expected_viewer_utility(quality.decide(1500.0), target, sigma);
  const double u_spatial =
      expected_viewer_utility(spatial.decide(1500.0), target, sigma);
  EXPECT_GT(u_spatial, u_quality);
}

TEST(UploadVra, QualityDropWinsWhenInterestIsEverywhere) {
  // Wide interest (sigma 170 deg): cutting the horizon loses viewers.
  const double target = 4000.0;
  QualityAdaptivePolicy quality(target, 250.0);
  SpatialFallbackPolicy spatial(target, 120.0);
  const double u_quality =
      expected_viewer_utility(quality.decide(2500.0), target, 170.0);
  const double u_spatial =
      expected_viewer_utility(spatial.decide(2500.0), target, 170.0);
  EXPECT_GT(u_quality, u_spatial);
}

TEST(LiveBroadcast, RejectsABadUploadDecision) {
  // A policy's constructor accepts any finite target, so the session
  // checks each decision before a segment's byte count is cast from it.
  struct Canned final : UploadPolicy {
    UploadDecision decision;
    explicit Canned(UploadDecision d) : decision(d) {}
    UploadDecision decide(double) const override { return decision; }
    std::string_view name() const override { return "canned"; }
  };
  const FixedQualityPolicy huge(1e300);
  const Canned bad[] = {Canned({360.0, kNan}), Canned({360.0, 0.0}),
                       Canned({kNan, 1000.0}), Canned({0.0, 1000.0}),
                       Canned({361.0, 1000.0})};
  std::vector<const UploadPolicy*> policies{&huge};
  for (const Canned& policy : bad) policies.push_back(&policy);
  for (const UploadPolicy* policy : policies) {
    auto cfg = config_for(PlatformProfile::facebook(), {});
    cfg.upload_policy = policy;
    LiveBroadcastSession session(cfg);
    EXPECT_THROW(static_cast<void>(session.run()), std::invalid_argument);
  }
  const Canned good({120.0, 1000.0});
  auto cfg = config_for(PlatformProfile::facebook(), {});
  cfg.upload_policy = &good;
  EXPECT_GT(LiveBroadcastSession(cfg).run().segments_displayed, 0);
}

TEST(LiveBroadcast, CollapsedUplinkNeverIngestsItsBacklog) {
  // From 30 s the uplink carries 1e-200 of its capacity. The 10 Mbit
  // encoder queue still takes the segments captured at 30 s and 32 s, whose
  // uploads would take ~1e199 s, far past the end of the run (and past the
  // clock's range); every later one is dropped. The 14 segments captured
  // before the collapse are all that is ever displayed.
  auto cfg = config_for(PlatformProfile::facebook(), {});
  cfg.platform.broadcaster_queue_mbits = 10.0;
  cfg.measure_from = sim::Duration{0};
  cfg.measure_to = cfg.broadcast_length;
  cfg.uplink_faults.capacity_collapses.push_back(
      {.start_s = 30.0, .duration_s = 200.0, .factor = 1e-200});
  const auto result = LiveBroadcastSession(cfg).run();
  EXPECT_EQ(result.segments_displayed, 14);
  EXPECT_EQ(result.segments_dropped_at_broadcaster, 59);
}

TEST(LiveBroadcast, PrebufferTimerPastTheRunNeverFires) {
  // 1e12 s segments: the prebuffer timer (twice 11 segments) lies past the
  // end of the run and past the clock's range, so the viewer, who holds
  // fewer than 11 segments, never starts playing.
  auto cfg = config_for(PlatformProfile::periscope(), {});
  cfg.platform.segment_s = 1e12;
  cfg.broadcast_length = sim::seconds(3e12);
  cfg.measure_from = sim::Duration{0};
  cfg.measure_to = cfg.broadcast_length;
  const auto result = LiveBroadcastSession(cfg).run();
  EXPECT_EQ(result.segments_displayed, 0);
  EXPECT_EQ(result.segments_dropped_at_broadcaster, 0);
}

TEST(UploadVra, RejectsBadParameters) {
  EXPECT_THROW(FixedQualityPolicy(0.0), std::invalid_argument);
  EXPECT_THROW(QualityAdaptivePolicy(1000.0, 2000.0), std::invalid_argument);
  EXPECT_THROW(SpatialFallbackPolicy(1000.0, 0.0), std::invalid_argument);
  EXPECT_THROW(SpatialFallbackPolicy(1000.0, 400.0), std::invalid_argument);
}

TEST(LiveCrowdHmp, TimeGatedVisibility) {
  LiveCrowdHmp crowd(8, 10);
  const std::vector<geo::TileId> tiles{3};
  crowd.record(2, tiles, sim::seconds(10.0));
  EXPECT_EQ(crowd.observations(2, sim::seconds(5.0)), 0);
  EXPECT_EQ(crowd.observations(2, sim::seconds(10.0)), 1);
  const auto early = crowd.probabilities(2, sim::seconds(5.0));
  const auto late = crowd.probabilities(2, sim::seconds(15.0));
  EXPECT_NEAR(early[3], 1.0 / 8.0, 1e-9);  // uniform before the record lands
  EXPECT_GT(late[3], early[3]);
}

TEST(LiveCrowdHmp, ProbabilitiesSumToOne) {
  LiveCrowdHmp crowd(8, 4);
  const std::vector<geo::TileId> tiles{0, 1, 2};
  crowd.record(0, tiles, sim::seconds(1.0));
  crowd.record(0, tiles, sim::seconds(2.0));
  const auto probs = crowd.probabilities(0, sim::seconds(3.0));
  double sum = 0.0;
  for (double p : probs) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(LiveCrowdHmp, OutOfOrderRecordsSort) {
  LiveCrowdHmp crowd(4, 2);
  const std::vector<geo::TileId> a{0};
  const std::vector<geo::TileId> b{1};
  crowd.record(0, a, sim::seconds(10.0));
  crowd.record(0, b, sim::seconds(5.0));
  EXPECT_EQ(crowd.observations(0, sim::seconds(6.0)), 1);
  EXPECT_EQ(crowd.observations(0, sim::seconds(11.0)), 2);
}

TEST(LiveCrowdHmp, RangeChecks) {
  LiveCrowdHmp crowd(4, 2);
  const std::vector<geo::TileId> bad{9};
  EXPECT_THROW(crowd.record(0, bad, sim::kTimeZero), std::out_of_range);
  const std::vector<geo::TileId> ok{0};
  EXPECT_THROW(crowd.record(5, ok, sim::kTimeZero), std::out_of_range);
  EXPECT_THROW((void)crowd.probabilities(-1, sim::kTimeZero), std::out_of_range);
}

}  // namespace
}  // namespace sperke::live
