#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "media/mpd.h"
#include "media/quality_ladder.h"
#include "media/video_model.h"
#include "mutation.h"

namespace sperke::media {
namespace {

VideoModelConfig small_config() {
  VideoModelConfig cfg;
  cfg.duration_s = 10.0;
  cfg.chunk_duration_s = 1.0;
  cfg.tile_rows = 2;
  cfg.tile_cols = 4;
  cfg.seed = 99;
  return cfg;
}

TEST(QualityLadder, RejectsBadLadders) {
  EXPECT_THROW(QualityLadder({}), std::invalid_argument);
  EXPECT_THROW(QualityLadder({1000.0, 1000.0}), std::invalid_argument);
  EXPECT_THROW(QualityLadder({1000.0, 500.0}), std::invalid_argument);
  EXPECT_THROW(QualityLadder({-1.0}), std::invalid_argument);
  // NaN fails every comparison, so it must be rejected explicitly, as
  // must infinities.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& bad :
       {std::vector<double>{nan}, std::vector<double>{inf},
        std::vector<double>{-inf}, std::vector<double>{1000.0, nan},
        std::vector<double>{nan, 1000.0}, std::vector<double>{1000.0, inf}}) {
    EXPECT_THROW(QualityLadder{bad}, std::invalid_argument) << bad.back();
  }
}

TEST(QualityLadder, UtilityNormalizedAndMonotone) {
  const auto ladder = QualityLadder::default_ladder();
  EXPECT_DOUBLE_EQ(ladder.utility(0), 0.0);
  EXPECT_DOUBLE_EQ(ladder.utility(ladder.max_level()), 1.0);
  for (QualityLevel q = 1; q < ladder.levels(); ++q) {
    EXPECT_GT(ladder.utility(q), ladder.utility(q - 1));
  }
}

TEST(QualityLadder, BadLevelThrows) {
  const auto ladder = QualityLadder::default_ladder();
  EXPECT_THROW((void)ladder.panorama_kbps(-1), std::out_of_range);
  EXPECT_THROW((void)ladder.utility(ladder.levels()), std::out_of_range);
}

TEST(VideoModel, ChunkCountAndTimes) {
  const VideoModel vm(small_config());
  EXPECT_EQ(vm.chunk_count(), 10);
  EXPECT_EQ(vm.chunk_start_time(3), sim::seconds(3.0));
  EXPECT_EQ(vm.chunk_at_time(sim::seconds(3.5)), 3);
  EXPECT_EQ(vm.chunk_at_time(sim::seconds(99.0)), 9);  // clamped
}

TEST(VideoModel, RejectsBadConfig) {
  auto cfg = small_config();
  cfg.duration_s = 0.0;
  EXPECT_THROW((void)VideoModel(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.svc_overhead = -0.1;
  EXPECT_THROW((void)VideoModel(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.complexity_rho = 1.0;
  EXPECT_THROW((void)VideoModel(cfg), std::invalid_argument);
  // NaN fails every range check, and non-finite or overflowing values never
  // reach the chunk-count or size casts.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double VideoModelConfig::*field :
       {&VideoModelConfig::duration_s, &VideoModelConfig::chunk_duration_s,
        &VideoModelConfig::svc_overhead, &VideoModelConfig::complexity_sigma,
        &VideoModelConfig::complexity_rho, &VideoModelConfig::area_mix}) {
    for (const double bad : {nan, inf, -inf}) {
      cfg = small_config();
      cfg.*field = bad;
      EXPECT_THROW((void)VideoModel(cfg), std::invalid_argument);
    }
  }
  cfg = small_config();
  cfg.complexity_sigma = -0.1;
  EXPECT_THROW((void)VideoModel(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.duration_s = 1e12;
  cfg.chunk_duration_s = 1e-5;  // 1e17 chunks
  EXPECT_THROW((void)VideoModel(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.tile_rows = cfg.tile_cols = 1 << 16;  // 2^32 tiles overflow int
  EXPECT_THROW((void)VideoModel(cfg), std::invalid_argument);
  // Finite values whose largest object size overflows the int64 casts.
  cfg = small_config();
  cfg.svc_overhead = 1e300;
  EXPECT_THROW((void)VideoModel(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.ladder = QualityLadder({1000.0, 1e300});
  EXPECT_THROW((void)VideoModel(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.complexity_sigma = 1e300;
  EXPECT_THROW((void)VideoModel(cfg), std::invalid_argument);
  // Large values that still fit are sized as before.
  cfg = small_config();
  cfg.svc_overhead = 1e6;
  const VideoModel big(cfg);
  const double avc = static_cast<double>(big.avc_size_bytes(0, {0, 0}));
  EXPECT_EQ(big.svc_cumulative_size_bytes(0, {0, 0}),
            static_cast<std::int64_t>(avc * (1.0 + 1e6)));
}

// A strictly increasing ladder of `levels` rungs.
QualityLadder ladder_of(int levels) {
  std::vector<double> kbps;
  for (int q = 0; q < levels; ++q) kbps.push_back(100.0 * (q + 1));
  return QualityLadder(kbps);
}

// The client's in-flight mask has one bit per level and encoding, so a
// longer ladder would alias or overflow it.
TEST(VideoModel, RejectsLadderLongerThanTheInFlightMask) {
  auto cfg = small_config();
  cfg.ladder = ladder_of(kMaxLevels + 1);
  EXPECT_THROW((void)VideoModel(cfg), std::invalid_argument);
  cfg.ladder = ladder_of(kMaxLevels);
  EXPECT_EQ(VideoModel(cfg).ladder().levels(), kMaxLevels);
}

TEST(VideoModel, TileSharesSumToOne) {
  const VideoModel vm(small_config());
  double sum = 0.0;
  for (double s : vm.tile_shares()) sum += s;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(VideoModel, SizesIncreaseWithQuality) {
  const VideoModel vm(small_config());
  const ChunkKey key{0, 0};
  for (QualityLevel q = 1; q < vm.ladder().levels(); ++q) {
    EXPECT_GT(vm.avc_size_bytes(q, key), vm.avc_size_bytes(q - 1, key));
  }
}

TEST(VideoModel, PanoramaBytesMatchLadderBitrate) {
  // Summing all tiles at one quality for one chunk should be close to the
  // ladder bitrate x chunk duration (complexity averages to ~1 over cells).
  auto cfg = small_config();
  cfg.complexity_sigma = 0.0;  // deterministic: exact match expected
  const VideoModel vm(cfg);
  const QualityLevel q = 2;
  std::int64_t total = 0;
  for (geo::TileId tile = 0; tile < vm.tile_count(); ++tile) {
    total += vm.avc_size_bytes(q, {tile, 0});
  }
  const double expected = vm.ladder().panorama_kbps(q) * 1000.0 / 8.0;
  EXPECT_NEAR(static_cast<double>(total), expected, expected * 0.01);
}

TEST(VideoModel, SvcLayersSumToCumulative) {
  const VideoModel vm(small_config());
  for (geo::TileId tile = 0; tile < vm.tile_count(); ++tile) {
    const ChunkKey key{tile, 2};
    std::int64_t layered = 0;
    for (LayerIndex l = 0; l <= 3; ++l) {
      layered += vm.svc_layer_size_bytes(l, key);
    }
    EXPECT_EQ(layered, vm.svc_cumulative_size_bytes(3, key));
  }
}

TEST(VideoModel, SvcCarriesConfiguredOverhead) {
  auto cfg = small_config();
  cfg.svc_overhead = 0.2;
  const VideoModel vm(cfg);
  const ChunkKey key{1, 1};
  const auto avc = vm.avc_size_bytes(4, key);
  const auto svc = vm.svc_cumulative_size_bytes(4, key);
  EXPECT_NEAR(static_cast<double>(svc) / static_cast<double>(avc), 1.2, 0.01);
}

TEST(VideoModel, SvcLayerSizesArePositive) {
  const VideoModel vm(small_config());
  for (LayerIndex l = 0; l < vm.ladder().levels(); ++l) {
    EXPECT_GT(vm.svc_layer_size_bytes(l, {0, 0}), 0);
  }
}

TEST(VideoModel, ComplexityIsTemporallyCorrelated) {
  auto cfg = small_config();
  cfg.duration_s = 200.0;
  cfg.complexity_rho = 0.9;
  const VideoModel vm(cfg);
  // Lag-1 autocorrelation of the per-chunk complexity should be positive
  // and substantial for rho = 0.9.
  double num = 0.0, den = 0.0, mean = 0.0;
  const int n = vm.chunk_count();
  for (int t = 0; t < n; ++t) mean += vm.complexity({0, t});
  mean /= n;
  for (int t = 0; t + 1 < n; ++t) {
    num += (vm.complexity({0, t}) - mean) * (vm.complexity({0, t + 1}) - mean);
  }
  for (int t = 0; t < n; ++t) {
    den += (vm.complexity({0, t}) - mean) * (vm.complexity({0, t}) - mean);
  }
  EXPECT_GT(num / den, 0.5);
}

TEST(VideoModel, SameSeedSameSizes) {
  const VideoModel a(small_config());
  const VideoModel b(small_config());
  for (geo::TileId tile = 0; tile < a.tile_count(); ++tile) {
    EXPECT_EQ(a.avc_size_bytes(2, {tile, 5}), b.avc_size_bytes(2, {tile, 5}));
  }
}

TEST(VideoModel, OutOfRangeKeyThrows) {
  const VideoModel vm(small_config());
  EXPECT_THROW((void)vm.avc_size_bytes(0, {-1, 0}), std::out_of_range);
  EXPECT_THROW((void)vm.avc_size_bytes(0, {0, 100}), std::out_of_range);
  EXPECT_THROW((void)vm.avc_size_bytes(99, {0, 0}), std::out_of_range);
}

TEST(VideoModel, SizeBytesDispatchesOnEncoding) {
  const VideoModel vm(small_config());
  const ChunkKey key{3, 4};
  EXPECT_EQ(vm.size_bytes({key, Encoding::kAvc, 2}), vm.avc_size_bytes(2, key));
  EXPECT_EQ(vm.size_bytes({key, Encoding::kSvc, 2}), vm.svc_layer_size_bytes(2, key));
}

TEST(VideoModel, DescribeSummarizesTheContentOrganization) {
  // The quickstart example's video; the text is its first printed lines.
  VideoModelConfig cfg;
  cfg.duration_s = 60.0;
  cfg.tile_rows = 4;
  cfg.tile_cols = 6;
  cfg.seed = 1;
  EXPECT_EQ(VideoModel(cfg).describe(),
            "360 video: 60 s, equirectangular projection, 4x6 tiles, 60 chunks "
            "of 1 s\n"
            "quality ladder (panorama kbps): 1000 2500 5000 10000 20000\n"
            "SVC overhead: 10%\n");
}

TEST(VideoModel, ExposesModelMetadata) {
  const VideoModel vm(small_config());
  EXPECT_EQ(vm.tile_count(), 8);
  EXPECT_EQ(vm.chunk_count(), 10);
  EXPECT_EQ(vm.chunk_duration(), sim::seconds(1.0));
  EXPECT_EQ(vm.ladder().levels(), QualityLadder::default_ladder().levels());
  EXPECT_EQ(vm.geometry_ptr().get(), &vm.geometry());
  EXPECT_EQ(vm.geometry().grid().tile_count(), vm.tile_count());
  EXPECT_EQ(vm.tile_shares().size(), 8u);
}

TEST(VideoModel, DescribeFollowsTheConfig) {
  auto cfg = small_config();
  cfg.tile_cols = 6;
  cfg.chunk_duration_s = 2.5;
  cfg.ladder = QualityLadder({800.0, 3200.0});
  cfg.svc_overhead = 0.25;
  EXPECT_EQ(VideoModel(cfg).describe(),
            "360 video: 10 s, equirectangular projection, 2x6 tiles, 4 chunks "
            "of 2.5 s\n"
            "quality ladder (panorama kbps): 800 3200\n"
            "SVC overhead: 25%\n");
}

TEST(VideoModel, TilingStorageCountsEveryStoredObject) {
  // Every (tile, chunk) cell stores each AVC rung, and with SVC also every
  // layer, whose sizes sum to the cumulative size of the top layer.
  const VideoModel vm(small_config());
  const QualityLevel top = vm.ladder().levels() - 1;
  std::int64_t avc = 0;
  std::int64_t svc = 0;
  for (geo::TileId tile = 0; tile < vm.tile_count(); ++tile) {
    for (ChunkIndex t = 0; t < vm.chunk_count(); ++t) {
      for (QualityLevel q = 0; q <= top; ++q) {
        avc += vm.avc_size_bytes(q, {tile, t});
      }
      svc += vm.svc_cumulative_size_bytes(top, {tile, t});
    }
  }
  EXPECT_EQ(vm.storage_bytes_tiling(false), avc);
  EXPECT_EQ(vm.storage_bytes_tiling(true), avc + svc);
}

TEST(VideoModel, VersioningIsCopiesOfAvcTiling) {
  // The paper's §2 tradeoff: versioning with 88 versions dwarfs tiled storage.
  const VideoModel vm(small_config());
  const std::int64_t avc = vm.storage_bytes_tiling(/*with_svc=*/false);
  for (const int versions : {1, 2, 88}) {
    EXPECT_EQ(vm.storage_bytes_versioning(versions), versions * avc);
  }
  EXPECT_GT(vm.storage_bytes_versioning(88), vm.storage_bytes_tiling(true) * 10);
  EXPECT_THROW((void)vm.storage_bytes_versioning(0), std::invalid_argument);
  EXPECT_THROW((void)vm.storage_bytes_versioning(-3), std::invalid_argument);
}

TEST(VideoModel, TilingWithSvcCostsMoreThanWithout) {
  const VideoModel vm(small_config());
  EXPECT_GT(vm.storage_bytes_tiling(true), vm.storage_bytes_tiling(false));
}

TEST(VideoModel, StorageTotalsThrowInsteadOfOverflowing) {
  // An hour of the default video is ~1.8e10 bytes of AVC tiling; INT_MAX
  // versions of it do not fit an int64.
  VideoModelConfig hour;
  hour.duration_s = 3600.0;
  const VideoModel vm(hour);
  EXPECT_THROW(
      (void)vm.storage_bytes_versioning(std::numeric_limits<int>::max()),
      std::overflow_error);
  EXPECT_EQ(vm.storage_bytes_versioning(88),
            88 * vm.storage_bytes_tiling(false));

  // Every object fits an int64, but their sum does not.
  VideoModelConfig huge = small_config();
  huge.ladder = QualityLadder({2e16});
  const VideoModel big(huge);
  EXPECT_THROW((void)big.storage_bytes_tiling(false), std::overflow_error);
  EXPECT_THROW((void)big.storage_bytes_tiling(true), std::overflow_error);
}

// Every planner sums one object per tile for a chunk, so the model bounds
// tile_count() times its largest object, not the largest object alone.
TEST(VideoModel, RejectsChunkWhosePanoramaOverflowsInt64) {
  VideoModelConfig cfg = small_config();
  cfg.tile_rows = 2;
  cfg.tile_cols = 2;
  cfg.complexity_sigma = 0.0;
  cfg.area_mix = 0.0;
  // 3.125e18 bytes per tile fits an int64; 1.25e19 per chunk does not.
  cfg.ladder = QualityLadder({1e17});
  EXPECT_THROW((void)VideoModel(cfg), std::invalid_argument);
  // Just under the bound, a whole chunk's SVC stacks still sum exactly.
  cfg.ladder = QualityLadder({6e16});
  const VideoModel fits(cfg);
  std::int64_t chunk_bytes = 0;
  for (geo::TileId t = 0; t < fits.tile_count(); ++t) {
    chunk_bytes += fits.svc_cumulative_size_bytes(0, {t, 0});
  }
  EXPECT_EQ(chunk_bytes, 4 * fits.svc_cumulative_size_bytes(0, {0, 0}));
}

TEST(Mpd, RoundTripReconstructsIdenticalVideo) {
  auto cfg = small_config();
  cfg.tile_cols = 6;
  cfg.svc_overhead = 0.17;
  cfg.seed = (std::uint64_t{1} << 53) + 1;  // not representable as a double
  const std::string mpd = write_mpd(cfg);
  const VideoModelConfig restored = parse_mpd(mpd);
  EXPECT_EQ(restored.seed, cfg.seed);
  EXPECT_EQ(parse_mpd(write_mpd(small_config())).seed, small_config().seed);
  const VideoModel a(cfg);
  const VideoModel b(restored);
  ASSERT_EQ(a.tile_count(), b.tile_count());
  ASSERT_EQ(a.chunk_count(), b.chunk_count());
  for (geo::TileId tile = 0; tile < a.tile_count(); tile += 3) {
    for (media::ChunkIndex t = 0; t < a.chunk_count(); t += 2) {
      EXPECT_EQ(a.avc_size_bytes(2, {tile, t}), b.avc_size_bytes(2, {tile, t}));
      EXPECT_EQ(a.svc_layer_size_bytes(1, {tile, t}),
                b.svc_layer_size_bytes(1, {tile, t}));
    }
  }
}

TEST(Mpd, SeedRoundTripsAcrossTheFullRange) {
  for (const std::uint64_t seed :
       {std::uint64_t{0}, std::uint64_t{1}, (std::uint64_t{1} << 53) + 1,
        std::numeric_limits<std::uint64_t>::max() - 1,
        std::numeric_limits<std::uint64_t>::max()}) {
    auto cfg = small_config();
    cfg.seed = seed;
    EXPECT_EQ(parse_mpd(write_mpd(cfg)).seed, seed);
  }
}

TEST(Mpd, WriterEmitsAllRepresentations) {
  const auto cfg = small_config();
  const std::string mpd = write_mpd(cfg);
  std::size_t count = 0, pos = 0;
  while ((pos = mpd.find("<Representation", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, static_cast<std::size_t>(cfg.ladder.levels()));
}

// The MPD grammar has no rung limit; the video built from it does.
TEST(Mpd, OverlongLadderParsesThenFailsInTheVideoModel) {
  auto cfg = small_config();
  cfg.ladder = ladder_of(kMaxLevels + 1);
  const VideoModelConfig parsed = parse_mpd(write_mpd(cfg));
  EXPECT_EQ(parsed.ladder.levels(), kMaxLevels + 1);
  EXPECT_THROW((void)VideoModel(parsed), std::invalid_argument);
}

TEST(Mpd, RejectsMalformedDocuments) {
  EXPECT_THROW((void)parse_mpd(""), std::runtime_error);
  EXPECT_THROW((void)parse_mpd("<NotMPD/>"), std::runtime_error);
  EXPECT_THROW((void)parse_mpd("<MPD duration=\"10\"></MPD>"), std::runtime_error);
  // Missing required attribute.
  EXPECT_THROW(
      (void)parse_mpd("<MPD duration=\"10\"><Representation kbps=\"1\"/></MPD>"),
      std::runtime_error);
  // Non-numeric attribute.
  const auto good = write_mpd(small_config());
  std::string bad = good;
  bad.replace(bad.find("duration=\""), 12, "duration=\"xx");
  EXPECT_THROW((void)parse_mpd(bad), std::runtime_error);
  // Mismatched closing tag.
  EXPECT_THROW((void)parse_mpd("<MPD duration=\"1\"></MPX>"), std::runtime_error);
  // Trailing garbage.
  EXPECT_THROW((void)parse_mpd(good + "extra"), std::runtime_error);
  // Non-finite numbers, and tile counts or seeds that are not exact
  // in-range integers.
  const auto with = [&good](const std::string& key, const std::string& value) {
    std::string doc = good;
    const std::size_t at = doc.find(" " + key + "=\"") + key.size() + 3;
    doc.replace(at, doc.find('"', at) - at, value);
    return doc;
  };
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"duration", "nan"},        {"duration", "inf"},
           {"chunkDuration", "-inf"},  {"svcOverhead", "NaN"},
           {"complexitySigma", "nan"}, {"areaMix", "infinity"},
           {"tileRows", "1e300"},      {"tileRows", "2.5"},
           {"tileRows", "-4"},         {"tileCols", "4294967297"},
           {"tileCols", " 4"},         {"tileCols", ""},
           {"seed", "-1"},             {"seed", "+7"},
           {"seed", "1e3"},            {"seed", "18446744073709551616"}}) {
    EXPECT_THROW((void)parse_mpd(with(key, value)), std::runtime_error)
        << key << "=\"" << value << '"';
  }
  // Parsed but nonsensical values are the model's to reject, including
  // finite ones that overflow an object size.
  EXPECT_THROW((void)VideoModel(parse_mpd(with("complexitySigma", "-1"))),
               std::invalid_argument);
  EXPECT_THROW((void)VideoModel(parse_mpd(with("svcOverhead", "1e300"))),
               std::invalid_argument);
  EXPECT_THROW((void)VideoModel(parse_mpd(with("complexitySigma", "1e300"))),
               std::invalid_argument);
  std::string huge_rung = good;
  const std::size_t top = huge_rung.rfind(" kbps=\"") + 7;
  huge_rung.replace(top, huge_rung.find('"', top) - top, "1e300");
  EXPECT_THROW((void)VideoModel(parse_mpd(huge_rung)), std::invalid_argument);
  EXPECT_THROW((void)VideoModel(parse_mpd(with("tileRows", "0"))),
               std::invalid_argument);
}

TEST(Mpd, RejectsNonEquirectProjection) {
  // The writer always names the one projection the model tiles; a manifest
  // naming any other is rejected rather than tiled as equirectangular.
  const std::string good = write_mpd(small_config());
  ASSERT_NE(good.find(" projection=\"equirectangular\""), std::string::npos);
  for (const std::string name : {"cubemap", "offset-cubemap", "Equirectangular", ""}) {
    std::string doc = good;
    doc.replace(doc.find("equirectangular"), 15, name);
    EXPECT_THROW((void)parse_mpd(doc), std::runtime_error) << name;
  }
}

// The manifest's mutation corpus: every single-edit mutant of a written MPD
// either parses to a config the model accepts, whose chunk then sizes
// without overflow, or is rejected with a typed exception.
class MpdMutation : public ::testing::TestWithParam<fuzz::Mutation> {};

TEST_P(MpdMutation, ParsesToAValidModelOrThrowsTyped) {
  const std::string doc = write_mpd(small_config());
  Rng rng(11 + static_cast<std::uint64_t>(GetParam()));
  int rejected = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string mutant = fuzz::mutate(doc, GetParam(), rng);
    try {
      const VideoModel video(parse_mpd(mutant));
      const QualityLevel top = video.ladder().max_level();
      std::int64_t chunk_bytes = 0;
      for (geo::TileId t = 0; t < video.tile_count(); ++t) {
        chunk_bytes += video.svc_cumulative_size_bytes(top, {t, 0});
      }
      EXPECT_GT(chunk_bytes, 0) << mutant;
    } catch (const std::runtime_error&) {  // parse_mpd
      ++rejected;
    } catch (const std::invalid_argument&) {  // VideoModel
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Corpus, MpdMutation, ::testing::ValuesIn(fuzz::kAllMutations),
                         [](const auto& info) {
                           return std::string(fuzz::to_string(info.param));
                         });

TEST(Mpd, ToleratesWhitespaceVariants) {
  const std::string mpd =
      "  <MPD   duration=\"10\" chunkDuration=\"1\" projection=\"equirectangular\""
      " tileRows=\"2\" tileCols=\"4\" svcOverhead=\"0.1\" complexitySigma=\"0.2\""
      " complexityRho=\"0.5\" areaMix=\"0.5\" seed=\"3\" >\n"
      "   <Representation   kbps=\"1000\" />\n"
      "   <Representation kbps=\"2000\"/>\n"
      "  </MPD>  ";
  const auto cfg = parse_mpd(mpd);
  EXPECT_EQ(cfg.tile_rows, 2);
  EXPECT_EQ(cfg.ladder.levels(), 2);
  EXPECT_DOUBLE_EQ(cfg.ladder.panorama_kbps(1), 2000.0);
}

TEST(ChunkKey, HashAndEquality) {
  const ChunkKey a{1, 2};
  const ChunkKey b{1, 2};
  const ChunkKey c{2, 1};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(std::hash<ChunkKey>{}(a), std::hash<ChunkKey>{}(b));
}

}  // namespace
}  // namespace sperke::media
