// Tests for the benchmark itself: input determinism, stream specs and
// the names it prints.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <unordered_set>

#include "gen.hpp"
#include "graph/canonical.hpp"
#include "report.hpp"
#include "serve/service.hpp"
#include "workloads.hpp"

namespace qbench {
namespace {

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l;
  return out;
}

TEST(Streams, SameSeedSameBytesOtherSeedOtherBytes) {
  for (const char* w : {"serve_repeat", "serve_unique"}) {
    const std::string a = joined(stream_lines(w, 7, 3000));
    const std::string b = joined(stream_lines(w, 7, 3000));
    const std::string c = joined(stream_lines(w, 8, 3000));
    EXPECT_EQ(a, b) << w;
    EXPECT_NE(a, c) << w;
    EXPECT_GT(a.size(), 3000u * 100) << w;
  }
}

TEST(Streams, ScheduleIsSeededSortedAndExact) {
  const std::vector<double> a = poisson_offsets(3, 1000, 2.0);
  EXPECT_EQ(a, poisson_offsets(3, 1000, 2.0));
  EXPECT_NE(a, poisson_offsets(4, 1000, 2.0));
  ASSERT_EQ(a.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GE(a.front(), 0.0);
  EXPECT_LT(a.back(), 2.0);
  // Mean gap of a rate-500 Poisson process: 2 ms, within 10%.
  EXPECT_NEAR(a.back() / 999.0, 0.002, 0.0002);
}

// Zipf(1.0) over 4 x cache distinct graphs: the measured distinct count
// of a prefix matches its expectation sum_i 1 - (1 - p_i)^L within 3%,
// and the repeat share by canonical_hash is 1 - distinct / L exactly
// (pool graphs are pairwise non-isomorphic).
TEST(Streams, ZipfStreamMatchesItsSpec) {
  const std::size_t cache = qgnn::serve::ServeConfig{}.cache_capacity;
  const std::size_t prefix = 6000;
  const StreamStats st = stream_stats("serve_repeat", 11, prefix);
  EXPECT_DOUBLE_EQ(st.pool_per_cache, 4.0);
  const std::size_t pool = 4 * cache;
  double h = 0.0;
  for (std::size_t r = 1; r <= pool; ++r) h += 1.0 / static_cast<double>(r);
  double expected_distinct = 0.0;
  for (std::size_t r = 1; r <= pool; ++r) {
    const double p = 1.0 / static_cast<double>(r) / h;
    expected_distinct += 1.0 - std::pow(1.0 - p, static_cast<double>(prefix));
  }
  EXPECT_NEAR(static_cast<double>(st.distinct_graphs), expected_distinct,
              0.03 * expected_distinct);
  EXPECT_DOUBLE_EQ(st.repeat_share,
                   1.0 - static_cast<double>(st.distinct_graphs) /
                             static_cast<double>(prefix));
  // Most requests repeat an earlier graph: the cache is exercised.
  EXPECT_GT(st.repeat_share, 0.5);
}

TEST(Streams, UniqueStreamRepeatShareBelowOnePercent) {
  const StreamStats st = stream_stats("serve_unique", 12, 4000);
  EXPECT_EQ(st.distinct_graphs, 4000u);
  EXPECT_LT(st.repeat_share, 0.01);
  EXPECT_EQ(st.relabelled_repeats, 0u);
}

// serve_repeat sends a relabelled copy of one of its 16 most popular
// graphs every 256 requests from id 8192 on, and none before: each is a
// graph already sent under another labelling.
TEST(Streams, RepeatStreamSendsFixedRelabelledCopies) {
  EXPECT_EQ(stream_stats("serve_repeat", 11, 8192).relabelled_repeats, 0u);
  const StreamStats st = stream_stats("serve_repeat", 11, 20000);
  EXPECT_EQ(st.relabelled_repeats, (20000u - 8192u + 255u) / 256u);
}

// The space itself, before deduplication: raw draws from the serve cells
// collide (by isomorphism invariant, which merges at least as much as
// isomorphism) in well under 1% of 20000 draws.
TEST(Streams, ServeSpaceRarelyRepeatsBeforeDedup) {
  std::unordered_set<std::uint64_t> seen;
  std::size_t repeats = 0;
  const std::size_t draws = 20000;
  for (std::size_t i = 0; i < draws; ++i) {
    qgnn::Rng rng(qgnn::derive_seed(99, i));
    const Cell c = cell_of(i);
    if (!seen.insert(structure_invariant(serve_graph(c.n, c.d, rng))).second) {
      ++repeats;
    }
  }
  EXPECT_LT(static_cast<double>(repeats) / static_cast<double>(draws), 0.01);
}

TEST(Streams, EveryTwelveGraphsHaveTheSameSizeMix) {
  for (std::size_t start : {0u, 5u, 1000u}) {
    int per_n[3] = {0, 0, 0};
    for (std::size_t i = start; i < start + 12; ++i) ++per_n[cell_of(i).n - 13];
    EXPECT_EQ(per_n[0], 4);
    EXPECT_EQ(per_n[1], 4);
    EXPECT_EQ(per_n[2], 4);
  }
}

TEST(Graphs, ServeGraphIsRegularAndInvariantIsLabelFree) {
  qgnn::Rng rng(5);
  for (const Cell& c : serve_cells()) {
    const qgnn::Graph g = serve_graph(c.n, c.d, rng);
    EXPECT_EQ(g.num_nodes(), c.n);
    EXPECT_TRUE(g.is_regular());
    EXPECT_EQ(g.min_degree(), c.d);
    std::vector<int> perm(static_cast<std::size_t>(c.n));
    for (int i = 0; i < c.n; ++i) perm[static_cast<std::size_t>(i)] = (i * 7 + 3) % c.n;
    if (c.n % 7 == 0) continue;  // 7 must be invertible mod n
    EXPECT_EQ(structure_invariant(g), structure_invariant(g.permuted(perm)));
    EXPECT_EQ(qgnn::canonical_hash(g), qgnn::canonical_hash(g.permuted(perm)));
  }
}

TEST(Names, EveryPrintedNameUsesTheAllowedCharset) {
  std::set<std::string> all;
  for (const auto* list : {&end_to_end_names(), &per_layer_names()}) {
    for (const std::string& n : *list) {
      EXPECT_TRUE(valid_name(n)) << n;
      EXPECT_TRUE(all.insert(n).second) << "repeated " << n;
    }
  }
  EXPECT_EQ(end_to_end_names().size(), 4u);
  EXPECT_TRUE(valid_name("lat_p50_us.r1"));
  EXPECT_FALSE(valid_name(""));
  EXPECT_FALSE(valid_name(".hidden"));
  EXPECT_FALSE(valid_name("a b"));
  EXPECT_FALSE(valid_name("a/b"));
  EXPECT_FALSE(valid_name(std::string(65, 'a')));
  Report r;
  EXPECT_THROW(r.add("bad name", 1.0, "s"), std::invalid_argument);
  r.add("x", 1.0, "s");
  EXPECT_THROW(r.add("x", 2.0, "s"), std::invalid_argument);
}

// BENCHMARK.json lists the same metrics, in the same order, as the
// result lines print.
TEST(Names, BenchmarkJsonListsTheReportedMetrics) {
  std::ifstream in(QBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in) << QBENCH_BENCHMARK_JSON;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const std::size_t e2e = text.find("\"end_to_end\"");
  const std::size_t layers = text.find("\"per_layer\"");
  ASSERT_NE(e2e, std::string::npos);
  ASSERT_NE(layers, std::string::npos);
  ASSERT_LT(e2e, layers);
  auto names_in = [](const std::string& section) {
    std::vector<std::string> out;
    const std::regex name_re("\"name\":\\s*\"([^\"]+)\"");
    for (auto it = std::sregex_iterator(section.begin(), section.end(), name_re);
         it != std::sregex_iterator(); ++it) {
      out.push_back((*it)[1]);
    }
    return out;
  };
  EXPECT_EQ(names_in(text.substr(e2e, layers - e2e)), end_to_end_names());
  EXPECT_EQ(names_in(text.substr(layers)), per_layer_names());
}

TEST(Report, ResultLineHasExactlyTheRequiredKeys) {
  Report r;
  r.add_phase(PhaseCount{"r1", 10, 9, 1});
  r.add("setup_s", 0.5, "s");
  r.add("extra", 2.0, "count");
  EXPECT_EQ(r.result_json({"setup_s"}),
            "{\"correct\":true,\"attempted\":10,\"failed\":1,\"metrics\":"
            "{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"}}}");
  r.fail_check("boom");
  EXPECT_FALSE(r.correct());
  EXPECT_EQ(quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
  EXPECT_EQ(number_text(0.1), "0.1");
}

}  // namespace
}  // namespace qbench
