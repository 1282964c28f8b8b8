#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace qgnn {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.5, -2.0, 3.25, 0.0, 7.5, -1.25};
  RunningStats s;
  for (double x : xs) s.add(x);

  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);

  EXPECT_EQ(s.count(), xs.size());
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.5);
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  Rng rng(11);
  RunningStats all;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 100; ++i) {
    const double x = rng.normal(3.0, 2.0);
    all.add(x);
    (i < 37 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(2.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_NEAR(a.mean(), 1.5, 1e-12);
}

TEST(Percentile, EndpointsAndMedian) {
  std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
}

TEST(Percentile, ThrowsOnEmptyOrBadQ) {
  EXPECT_THROW(percentile({}, 0.5), InvalidArgument);
  EXPECT_THROW(percentile({1.0}, 1.5), InvalidArgument);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);    // bin 0
  h.add(9.9);    // bin 4
  h.add(-3.0);   // clamped to bin 0
  h.add(100.0);  // clamped to bin 4
  h.add(5.0);    // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(2), 1u);
  EXPECT_EQ(h.bin_count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(4), 10.0);
}

TEST(Histogram, RejectsDegenerateRange) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), InvalidArgument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), InvalidArgument);
}

TEST(FrequencyTable, CountsKeys) {
  FrequencyTable t;
  t.add(3);
  t.add(3);
  t.add(5);
  EXPECT_EQ(t.total(), 3u);
  EXPECT_EQ(t.counts().at(3), 2u);
  EXPECT_EQ(t.counts().at(5), 1u);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 20; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformWithinBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-2.0, 3.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 3.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(5);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 500; ++i) {
    const int x = rng.uniform_int(0, 4);
    ASSERT_GE(x, 0);
    ASSERT_LE(x, 4);
    ++seen[static_cast<std::size_t>(x)];
  }
  for (int c : seen) EXPECT_GT(c, 0);
}

TEST(Rng, ChildStreamsIndependent) {
  Rng parent(7);
  Rng c1 = parent.child();
  Rng c2 = parent.child();
  // Children derived in sequence should produce distinct streams.
  int same = 0;
  for (int i = 0; i < 20; ++i) {
    if (c1.uniform() == c2.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, PermutationIsValid) {
  Rng rng(13);
  const auto p = rng.permutation(20);
  std::vector<char> seen(20, 0);
  for (std::size_t v : p) {
    ASSERT_LT(v, 20u);
    EXPECT_FALSE(seen[v]);
    seen[v] = 1;
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(CliArgs, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "2.5", "positional",
                        "--flag"};
  CliArgs args(6, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(args.get_double("beta", 0.0), 2.5);
  EXPECT_TRUE(args.get_bool("flag", false));
  EXPECT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
  EXPECT_EQ(args.get("missing", "dflt"), "dflt");
}

TEST(CliArgs, ReportsFlagsNoLookupRead) {
  const char* argv[] = {"prog", "--count", "3", "--chekpoint-every", "1",
                        "--lanes=8", "--quiet", "--seed", "5"};
  CliArgs args(9, argv);
  EXPECT_EQ(args.get_int("count", 0), 3);
  EXPECT_FALSE(args.has("checkpoint-every"));
  EXPECT_TRUE(args.get_bool("quiet", false));
  // A lookup of an absent key is not an unread flag; a present key read
  // with a fallback counts as read.
  EXPECT_EQ(args.get("missing", "x"), "x");
  EXPECT_EQ(args.unread(),
            (std::vector<std::string>{"chekpoint-every", "lanes", "seed"}));
  EXPECT_EQ(args.get_int("seed", 0), 5);
  EXPECT_EQ(args.unread(),
            (std::vector<std::string>{"chekpoint-every", "lanes"}));
}

TEST(CliArgs, BadIntegerThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.get_int("n", 0), InvalidArgument);
}

TEST(CliArgs, FullScaleFlagAndEnv) {
  {
    const char* argv[] = {"prog", "--full"};
    CliArgs args(2, argv);
    EXPECT_TRUE(full_scale_requested(args));
  }
  {
    const char* argv[] = {"prog"};
    CliArgs args(1, argv);
    // Env-var path.
    ::setenv("QGNN_FULL", "1", 1);
    EXPECT_TRUE(full_scale_requested(args));
    ::setenv("QGNN_FULL", "0", 1);
    EXPECT_FALSE(full_scale_requested(args));
    ::unsetenv("QGNN_FULL");
    EXPECT_FALSE(full_scale_requested(args));
  }
}

TEST(Table, WriteCsvToFile) {
  Table t({"x"});
  t.add_row({"1"});
  const std::string path = ::testing::TempDir() + "/qgnn_table.csv";
  t.write_csv(path);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x");
  EXPECT_THROW(t.write_csv("/nonexistent-dir/t.csv"), IoError);
}

TEST(Table, PrintsAlignedAndCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row_numeric("beta", {2.5}, 2);
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("2.50"), std::string::npos);

  const std::string csv = t.to_csv();
  EXPECT_EQ(csv, "name,value\nalpha,1\nbeta,2.50\n");
}

TEST(Table, CsvEscapesCommasAndQuotes) {
  Table t({"a"});
  t.add_row({"x,y"});
  t.add_row({"he said \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(FormatHelpers, MeanStdFormat) {
  EXPECT_EQ(format_mean_std(3.276, 9.99, 2), "3.28 +/- 9.99");
  EXPECT_EQ(format_double(1.0, 3), "1.000");
}

TEST(ErrorMacro, RequireThrowsWithContext) {
  try {
    QGNN_REQUIRE(1 == 2, "must be equal");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("must be equal"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

}  // namespace
}  // namespace qgnn
