#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "util/csv.h"
#include "util/math.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace sperke {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 32; ++i) {
    if (a.uniform(0.0, 1.0) != b.uniform(0.0, 1.0)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.5, 3.5);
    EXPECT_GE(x, -2.5);
    EXPECT_LT(x, 3.5);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto x = rng.uniform_int(0, 4);
    EXPECT_GE(x, 0);
    EXPECT_LE(x, 4);
    saw_lo |= (x == 0);
    saw_hi |= (x == 4);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalRoughMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-12);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 25.0);
}

TEST(Percentile, SingleElement) {
  const std::vector<double> v{3.0};
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
  const std::vector<double> v{1.0};
  EXPECT_THROW((void)percentile(v, -1.0), std::invalid_argument);
  EXPECT_THROW((void)percentile(v, 101.0), std::invalid_argument);
}

TEST(MathUtil, WrapDeg180) {
  EXPECT_DOUBLE_EQ(wrap_deg180(0.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_deg180(190.0), -170.0);
  EXPECT_DOUBLE_EQ(wrap_deg180(-190.0), 170.0);
  EXPECT_DOUBLE_EQ(wrap_deg180(360.0), 0.0);
  EXPECT_DOUBLE_EQ(wrap_deg180(180.0), -180.0);
}

TEST(MathUtil, AngleDiffShortestPath) {
  EXPECT_DOUBLE_EQ(angle_diff_deg(170.0, -170.0), -20.0);
  EXPECT_DOUBLE_EQ(angle_diff_deg(-170.0, 170.0), 20.0);
  EXPECT_DOUBLE_EQ(angle_diff_deg(10.0, 350.0), 20.0);
}

TEST(MathUtil, DegRadRoundTrip) {
  for (double d : {-180.0, -90.0, 0.0, 45.0, 179.0}) {
    EXPECT_NEAR(rad_to_deg(deg_to_rad(d)), d, 1e-12);
  }
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WriteThenParseRoundTrip) {
  std::ostringstream os;
  CsvWriter w(os);
  w.write_row({"h1", "h,2"});
  w.write_row({"va\"l", "2.5"});
  const auto rows = parse_csv(os.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"h1", "h,2"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"va\"l", "2.5"}));
}

TEST(Csv, ParsesQuotedNewline) {
  const auto rows = parse_csv("\"a\nb\",c\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "a\nb");
  EXPECT_EQ(rows[0][1], "c");
}

TEST(Csv, RejectsUnterminatedQuote) {
  EXPECT_THROW((void)parse_csv("\"abc"), std::runtime_error);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.50"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(TextTable, RejectsRowWidthMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(1.23456, 2), "1.23");
  EXPECT_EQ(TextTable::num(1.0, 0), "1");
}

}  // namespace
}  // namespace sperke
