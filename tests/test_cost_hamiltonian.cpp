// The Max-Cut cost Hamiltonian C = sum_e w_e (1 - Z_u Z_v) / 2: its
// diagonal (maxcut_diagonal) and the engine built over it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "graph/generators.hpp"
#include "maxcut/maxcut.hpp"
#include "qaoa/ansatz.hpp"
#include "util/error.hpp"

namespace qgnn {
namespace {

TEST(CostHamiltonian, DiagonalMatchesCutValues) {
  Rng rng(3);
  const Graph g = erdos_renyi_graph(6, 0.5, rng);
  const std::vector<double> diag = maxcut_diagonal(g);
  ASSERT_EQ(diag.size(), 64u);
  for (std::uint64_t x = 0; x < diag.size(); ++x) {
    EXPECT_DOUBLE_EQ(diag[x], cut_value(g, x)) << "state " << x;
  }
}

TEST(CostHamiltonian, WeightedDiagonal) {
  Graph g(3);
  g.add_edge(0, 1, 2.0);
  g.add_edge(1, 2, 0.25);
  const std::vector<double> diag = maxcut_diagonal(g);
  EXPECT_DOUBLE_EQ(diag[0b010], 2.25);
  EXPECT_DOUBLE_EQ(diag[0b001], 2.0);
  EXPECT_DOUBLE_EQ(diag[0b100], 0.25);
  EXPECT_DOUBLE_EQ(diag[0b000], 0.0);
}

class MaxValueTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxValueTest, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const Graph g = erdos_renyi_graph(GetParam(), 0.5, rng);
  const QaoaAnsatz ansatz(g);
  const QaoaEvalEngine& engine = ansatz.engine();
  const Cut opt = max_cut_brute_force(g);
  EXPECT_DOUBLE_EQ(engine.max_value(), opt.value);
  EXPECT_DOUBLE_EQ(engine.diagonal()[engine.argmax()], engine.max_value());
}

INSTANTIATE_TEST_SUITE_P(SizeSweep, MaxValueTest,
                         ::testing::Values(3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

TEST(CostHamiltonian, ApplyPhasePreservesNormAndProbabilities) {
  const QaoaAnsatz ansatz(cycle_graph(5));
  StateVector s = StateVector::plus_state(5);
  std::vector<Amplitude> table;
  ansatz.engine().apply_cost_layer(s, 0.83, table);
  EXPECT_NEAR(s.norm(), 1.0, 1e-12);
  for (std::uint64_t k = 0; k < 32; ++k) {
    EXPECT_NEAR(s.probability(k), 1.0 / 32.0, 1e-12);
  }
}

TEST(CostHamiltonian, ExpectationOnBasisStates) {
  const QaoaAnsatz ansatz(path_graph(3));
  const QaoaEvalEngine& engine = ansatz.engine();
  for (std::uint64_t x = 0; x < 8; ++x) {
    const StateVector s = StateVector::basis_state(3, x);
    EXPECT_NEAR(engine.expectation_of(s), engine.diagonal()[x], 1e-12);
  }
}

TEST(CostHamiltonian, ExpectationOnPlusStateIsHalfWeight) {
  // <+|C|+> = sum_e w_e / 2 (each edge crossed with prob 1/2).
  Graph g(4);
  g.add_edge(0, 1, 1.5);
  g.add_edge(2, 3, 2.0);
  g.add_edge(0, 3, 1.0);
  const QaoaAnsatz ansatz(g);
  const StateVector s = StateVector::plus_state(4);
  EXPECT_NEAR(ansatz.engine().expectation_of(s), g.total_weight() / 2.0,
              1e-12);
}

TEST(CostHamiltonian, MismatchedStateThrows) {
  const QaoaAnsatz ansatz(cycle_graph(4));
  StateVector s(3);
  std::vector<Amplitude> table;
  EXPECT_THROW(ansatz.engine().apply_cost_layer(s, 0.1, table),
               InvalidArgument);
  EXPECT_THROW(ansatz.engine().expectation_of(s), InvalidArgument);
}

/// The per-edge branchy loop maxcut_diagonal used before it computed the
/// lower half only: the byte-for-byte reference.
std::vector<double> per_edge_reference_diagonal(const Graph& g) {
  const std::uint64_t dim = std::uint64_t{1} << g.num_nodes();
  std::vector<double> diag(dim, 0.0);
  for (const Edge& e : g.edges()) {
    const std::uint64_t ub = std::uint64_t{1} << e.u;
    const std::uint64_t vb = std::uint64_t{1} << e.v;
    for (std::uint64_t x = 0; x < dim; ++x) {
      if (((x & ub) != 0) != ((x & vb) != 0)) diag[x] += e.weight;
    }
  }
  return diag;
}

TEST(CostHamiltonian, DiagonalMatchesPerEdgeReferenceByteForByte) {
  Rng rng(17);
  std::vector<Graph> graphs = {Graph(1), Graph(2), complete_graph(2),
                               complete_graph(13)};
  for (int n = 3; n <= 15; n += 3) {
    graphs.push_back(erdos_renyi_graph(n, 0.5, rng));
    graphs.push_back(
        with_random_weights(erdos_renyi_graph(n, 0.6, rng), 0.1, 2.0, rng));
  }
  // Negative and zero weights: w * 0 would be -0.0 for a negative w, the
  // masked add must still match the branchy loop.
  Graph signs(4);
  signs.add_edge(0, 1, -1.5);
  signs.add_edge(1, 2, 0.0);
  signs.add_edge(2, 3, -0.0);
  signs.add_edge(0, 3, 0.3);
  graphs.push_back(signs);
  for (const Graph& g : graphs) {
    const std::vector<double> got = maxcut_diagonal(g);
    const std::vector<double> want = per_edge_reference_diagonal(g);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(double)),
              0)
        << "n=" << g.num_nodes() << " m=" << g.num_edges();
  }
}

TEST(CostHamiltonian, EdgelessGraphHasZeroCost) {
  const std::vector<double> diag = maxcut_diagonal(Graph(3));
  for (double v : diag) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_DOUBLE_EQ(QaoaAnsatz(Graph(3)).engine().max_value(), 0.0);
}

}  // namespace
}  // namespace qgnn
