#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "qaoa/ansatz.hpp"
#include "quantum/gates.hpp"
#include "quantum/pauli.hpp"
#include "util/error.hpp"

namespace qgnn {
namespace {

TEST(PauliString, ParseAndPrint) {
  // Leftmost character is the highest qubit (ket order): "XIZ" means
  // X on qubit 2, Z on qubit 0.
  const PauliString p = PauliString::parse("XIZ", 0.5);
  EXPECT_EQ(p.num_qubits(), 3);
  EXPECT_EQ(p.op(2), Pauli::X);
  EXPECT_EQ(p.op(1), Pauli::I);
  EXPECT_EQ(p.op(0), Pauli::Z);
  EXPECT_EQ(p.weight(), 2);
  EXPECT_EQ(p.to_string(), "0.5000 * Z0 X2");
  EXPECT_THROW(PauliString::parse("XQZ"), InvalidArgument);
  EXPECT_THROW(PauliString::parse(""), InvalidArgument);
}

TEST(PauliString, DiagonalDetection) {
  EXPECT_TRUE(PauliString::parse("ZIZ").is_diagonal());
  EXPECT_TRUE(PauliString::parse("III").is_diagonal());
  EXPECT_FALSE(PauliString::parse("XIZ").is_diagonal());
  EXPECT_FALSE(PauliString::parse("IYI").is_diagonal());
}

TEST(PauliString, CommutationRules) {
  // Single-qubit X and Z anticommute; on disjoint qubits they commute.
  EXPECT_FALSE(PauliString::parse("IX").commutes_with(
      PauliString::parse("IZ")));
  EXPECT_TRUE(PauliString::parse("XI").commutes_with(
      PauliString::parse("IZ")));
  // XX vs ZZ: anticommute on two qubits -> commute overall.
  EXPECT_TRUE(PauliString::parse("XX").commutes_with(
      PauliString::parse("ZZ")));
  // XY vs ZY: anticommute on qubit 1 only -> anticommute.
  EXPECT_FALSE(PauliString::parse("XY").commutes_with(
      PauliString::parse("ZY")));
}

TEST(PauliString, ExpectationOnKnownStates) {
  // <0|Z|0> = 1, <1|Z|1> = -1, <+|X|+> = 1, <+|Z|+> = 0.
  StateVector zero(1);
  EXPECT_NEAR(PauliString::parse("Z").expectation(zero), 1.0, 1e-12);
  StateVector one = StateVector::basis_state(1, 1);
  EXPECT_NEAR(PauliString::parse("Z").expectation(one), -1.0, 1e-12);
  StateVector plus = StateVector::plus_state(1);
  EXPECT_NEAR(PauliString::parse("X").expectation(plus), 1.0, 1e-12);
  EXPECT_NEAR(PauliString::parse("Z").expectation(plus), 0.0, 1e-12);
  EXPECT_NEAR(PauliString::parse("Y").expectation(plus), 0.0, 1e-12);
}

TEST(PauliString, ExpectationMatchesExpectationZ) {
  Rng rng(3);
  StateVector s = StateVector::plus_state(3);
  s.apply_single_qubit(gates::ry(0.7), 0);
  s.apply_rzz(1.1, 0, 2);
  for (int q = 0; q < 3; ++q) {
    PauliString z(3);
    z.set(q, Pauli::Z);
    EXPECT_NEAR(z.expectation(s), s.expectation_z(q), 1e-12);
  }
}

TEST(PauliString, NonDiagonalExpectationViaApply) {
  // Bell state: <XX> = 1, <YY> = -1, <ZZ> = 1.
  StateVector bell(2);
  bell.apply_single_qubit(gates::hadamard(), 0);
  bell.apply_controlled(gates::pauli_x(), 0, 1);
  EXPECT_NEAR(PauliString::parse("XX").expectation(bell), 1.0, 1e-12);
  EXPECT_NEAR(PauliString::parse("YY").expectation(bell), -1.0, 1e-12);
  EXPECT_NEAR(PauliString::parse("ZZ").expectation(bell), 1.0, 1e-12);
  EXPECT_NEAR(PauliString::parse("XY").expectation(bell), 0.0, 1e-12);
}

TEST(PauliString, CoefficientScalesExpectation) {
  StateVector plus = StateVector::plus_state(1);
  const PauliString p = PauliString::parse("X", -2.5);
  EXPECT_NEAR(p.expectation(plus), -2.5, 1e-12);
}

TEST(PauliSum, BuildsAndPrints) {
  PauliSum sum(2);
  sum.add(PauliString::parse("ZI", 0.5));
  sum.add(PauliString::parse("IX", -1.0));
  EXPECT_EQ(sum.size(), 2u);
  EXPECT_FALSE(sum.is_diagonal());
  EXPECT_NE(sum.to_string().find("Z1"), std::string::npos);
  EXPECT_THROW(sum.add(PauliString::parse("ZZZ")), InvalidArgument);
  EXPECT_THROW(sum.diagonal(), InvalidArgument);
}

class MaxcutPauliTest : public ::testing::TestWithParam<int> {};

TEST_P(MaxcutPauliTest, PauliSumMatchesCostHamiltonian) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  Graph g = erdos_renyi_graph(GetParam(), 0.5, rng);
  if (g.num_edges() == 0) g.add_edge(0, 1);
  const PauliSum sum = maxcut_pauli_sum(g);
  const std::vector<double> cost = maxcut_diagonal(g);
  EXPECT_TRUE(sum.is_diagonal());

  // Dense diagonals agree entry-by-entry.
  const auto diag = sum.diagonal();
  ASSERT_EQ(diag.size(), cost.size());
  for (std::uint64_t k = 0; k < cost.size(); ++k) {
    EXPECT_NEAR(diag[k], cost[k], 1e-12) << "state " << k;
  }

  // And expectations agree on a non-trivial state.
  StateVector s = StateVector::plus_state(g.num_nodes());
  s.apply_diagonal_phase(cost, 0.6);
  const auto rx = gates::rx(0.7);
  for (int q = 0; q < g.num_nodes(); ++q) s.apply_single_qubit(rx, q);
  EXPECT_NEAR(sum.expectation(s), s.expectation_diagonal(cost), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(SizeSweep, MaxcutPauliTest,
                         ::testing::Values(2, 3, 4, 5, 6, 7, 8));

TEST(MaxcutPauli, WeightedGraph) {
  Graph g(2);
  g.add_edge(0, 1, 2.5);
  const PauliSum sum = maxcut_pauli_sum(g);
  const auto diag = sum.diagonal();
  EXPECT_NEAR(diag[0b00], 0.0, 1e-12);
  EXPECT_NEAR(diag[0b01], 2.5, 1e-12);
}

}  // namespace
}  // namespace qgnn
