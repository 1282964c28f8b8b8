#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "ising/ising.hpp"
#include "maxcut/maxcut.hpp"
#include "qaoa/ansatz.hpp"
#include "util/error.hpp"

namespace qgnn {
namespace {

TEST(IsingModel, EnergyOfSimplePair) {
  // E = J s0 s1 with J = 1: aligned spins cost +1, anti-aligned -1.
  IsingModel model(2);
  model.add_coupling(0, 1, 1.0);
  EXPECT_DOUBLE_EQ(model.energy(0b00), 1.0);   // ++
  EXPECT_DOUBLE_EQ(model.energy(0b11), 1.0);   // --
  EXPECT_DOUBLE_EQ(model.energy(0b01), -1.0);  // -+
  EXPECT_DOUBLE_EQ(model.energy(0b10), -1.0);
}

TEST(IsingModel, FieldsAndOffset) {
  IsingModel model(2);
  model.set_field(0, 0.5);
  model.set_field(1, -0.25);
  model.set_offset(10.0);
  // bits 0 -> s = +1.
  EXPECT_DOUBLE_EQ(model.energy(0b00), 10.0 + 0.5 - 0.25);
  EXPECT_DOUBLE_EQ(model.energy(0b01), 10.0 - 0.5 - 0.25);
  EXPECT_DOUBLE_EQ(model.field(0), 0.5);
}

TEST(IsingModel, CouplingsAccumulate) {
  IsingModel model(3);
  model.add_coupling(0, 2, 1.0);
  model.add_coupling(2, 0, 0.5);  // same pair, either order
  EXPECT_DOUBLE_EQ(model.coupling(0, 2), 1.5);
  EXPECT_THROW(model.add_coupling(1, 1, 1.0), InvalidArgument);
  EXPECT_THROW(model.coupling(0, 3), InvalidArgument);
}

TEST(IsingModel, GroundStateByScan) {
  // Anti-ferromagnetic triangle is frustrated: ground energy -1 (two
  // bonds satisfied, one violated).
  IsingModel model(3);
  model.add_coupling(0, 1, 1.0);
  model.add_coupling(1, 2, 1.0);
  model.add_coupling(0, 2, 1.0);
  const auto gs = model.ground_state();
  EXPECT_DOUBLE_EQ(gs.energy, -1.0);
  EXPECT_DOUBLE_EQ(model.energy(gs.configuration), gs.energy);
}

class MaxcutIsingTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxcutIsingTest, GroundEnergyEqualsMinusMaxCut) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Graph g = erdos_renyi_graph(GetParam(), 0.5, rng);
  if (g.num_edges() == 0) g.add_edge(0, 1);
  const IsingModel model = maxcut_to_ising(g);
  const auto gs = model.ground_state();
  const Cut opt = max_cut_brute_force(g);
  EXPECT_NEAR(gs.energy, -opt.value, 1e-9);
  // Every configuration satisfies E(x) = -cut(x).
  for (std::uint64_t k = 0; k < (std::uint64_t{1} << g.num_nodes());
       k += 3) {
    EXPECT_NEAR(model.energy(k), -cut_value(g, k), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(SizeSweep, MaxcutIsingTest,
                         ::testing::Values(2, 4, 6, 8, 10));

TEST(NumberPartitioning, PerfectPartitionHasZeroGroundEnergy) {
  // {3, 1, 1, 2, 2, 1}: total 10, perfect split 5/5 exists.
  const IsingModel model =
      number_partitioning_ising({3.0, 1.0, 1.0, 2.0, 2.0, 1.0});
  const auto gs = model.ground_state();
  EXPECT_NEAR(gs.energy, 0.0, 1e-9);
}

TEST(NumberPartitioning, ImbalanceIsSquaredDifference) {
  // {3, 1, 1}: best split |3 - 2| = 1 -> ground energy 1.
  const IsingModel model = number_partitioning_ising({3.0, 1.0, 1.0});
  EXPECT_NEAR(model.ground_state().energy, 1.0, 1e-9);
  // And E of any configuration equals (sum s_i w_i)^2.
  EXPECT_NEAR(model.energy(0b000), 25.0, 1e-9);  // all same side
  EXPECT_NEAR(model.energy(0b001), 1.0, 1e-9);   // {1,1} vs {3}
}

TEST(RandomSpinGlass, RespectsStructureParameters) {
  Rng rng(5);
  const IsingModel dense = random_spin_glass(6, 1.0, 0.5, rng);
  int couplings = 0;
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) {
      if (dense.coupling(i, j) != 0.0) ++couplings;
    }
  }
  EXPECT_EQ(couplings, 15);
  const IsingModel empty = random_spin_glass(6, 0.0, 0.0, rng);
  EXPECT_DOUBLE_EQ(empty.energy(0b101010), 0.0);
}

TEST(DiagonalQaoaTest, MatchesGraphAnsatzOnMaxcut) {
  // maxcut_to_ising gives E(x) = -cut(x) exactly, so the generic
  // diagonal path (maximizing -E) must agree with the Max-Cut-specific
  // ansatz at every parameter point.
  Rng rng(7);
  const Graph g = random_regular_graph(6, 3, rng);
  const QaoaAnsatz graph_ansatz(g);
  const QaoaEvalEngine diag = maxcut_to_ising(g).to_qaoa();
  for (double gamma : {0.2, 0.7, 1.9}) {
    for (double beta : {0.1, 0.39, 1.0}) {
      const QaoaParams params = QaoaParams::single(gamma, beta);
      EXPECT_NEAR(diag.expectation(params),
                  graph_ansatz.expectation(params), 1e-9);
    }
  }
}

TEST(DiagonalQaoaTest, ArgmaxIsGroundState) {
  Rng rng(9);
  const IsingModel model = random_spin_glass(7, 0.6, 0.3, rng);
  const QaoaEvalEngine qaoa = model.to_qaoa();
  const auto gs = model.ground_state();
  EXPECT_EQ(qaoa.argmax(), gs.configuration);
  EXPECT_NEAR(qaoa.max_value(), -gs.energy, 1e-12);
}

TEST(SolveIsingQaoa, FindsPerfectPartition) {
  Rng rng(11);
  const IsingModel model =
      number_partitioning_ising({4.0, 3.0, 2.0, 2.0, 1.0, 2.0});
  // Total 14; perfect 7/7 split exists (e.g. {4,3} vs {2,2,1,2}).
  const IsingQaoaResult r = solve_ising_qaoa(model, 1, 200, 512, rng);
  EXPECT_NEAR(r.best_energy, 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(model.energy(r.best_configuration), r.best_energy);
}

TEST(SolveIsingQaoa, BeatsRandomGuessOnSpinGlass) {
  Rng rng(13);
  const IsingModel model = random_spin_glass(8, 0.5, 0.2, rng);
  const IsingQaoaResult r = solve_ising_qaoa(model, 1, 150, 256, rng);
  // Mean energy over all configurations is the trace / 2^n; QAOA + best
  // of shots must land well below it.
  const auto all = model.energies();
  double mean = 0.0;
  for (double e : all) mean += e;
  mean /= static_cast<double>(all.size());
  EXPECT_LT(r.best_energy, mean);
  EXPECT_GE(r.best_energy, model.ground_state().energy - 1e-9);
}

TEST(DiagonalQaoaTest, ZeroAnglesGiveUniformAverage) {
  // At gamma = beta = 0 the state is |+>^n: <D> = mean of the diagonal.
  Rng rng(15);
  std::vector<double> diag(16);
  double mean = 0.0;
  for (double& v : diag) {
    v = rng.uniform(-3.0, 3.0);
    mean += v;
  }
  mean /= 16.0;
  const QaoaEvalEngine qaoa(4, diag);
  EXPECT_NEAR(qaoa.expectation(QaoaParams::single(0.0, 0.0)), mean, 1e-12);
}

TEST(DiagonalQaoaTest, Validation) {
  EXPECT_THROW(QaoaEvalEngine(2, std::vector<double>(3, 0.0)),
               InvalidArgument);
  EXPECT_THROW(QaoaEvalEngine(0, {}), InvalidArgument);
  // A non-positive optimum is still reported as is.
  const QaoaEvalEngine qaoa(1, {-1.0, -2.0});
  EXPECT_DOUBLE_EQ(qaoa.max_value(), -1.0);
  EXPECT_EQ(qaoa.argmax(), 0u);
}

TEST(DiagonalQaoaTest, GridOptimizationRaisesExpectation) {
  Rng rng(17);
  const IsingModel model = random_spin_glass(6, 0.5, 0.3, rng);
  const QaoaEvalEngine qaoa = model.to_qaoa();
  const double at_zero = qaoa.expectation(QaoaParams::single(0.0, 0.0));
  const Objective f = [&qaoa](const std::vector<double>& x) {
    return qaoa.expectation(QaoaParams::from_flat(x));
  };
  GridSearchConfig grid;
  grid.gamma_steps = 16;
  grid.beta_steps = 16;
  EXPECT_GT(grid_search_maximize_2d(f, grid).best_value, at_zero);
}

TEST(IsingModel, DescribeSummarizes) {
  IsingModel model(4);
  model.add_coupling(0, 1, 1.0);
  model.set_field(2, 0.5);
  const std::string text = model.describe();
  EXPECT_NE(text.find("spins=4"), std::string::npos);
  EXPECT_NE(text.find("couplings=1"), std::string::npos);
  EXPECT_NE(text.find("fields=1"), std::string::npos);
}

}  // namespace
}  // namespace qgnn
