#include "qaoa/warmstart_state.hpp"

#include <cmath>

#include "maxcut/maxcut.hpp"
#include "quantum/gates.hpp"
#include "util/error.hpp"

namespace qgnn {

WarmStartAnsatz::WarmStartAnsatz(const Graph& g, std::uint64_t classical_cut,
                                 double regularization)
    : engine_(g.num_nodes(), maxcut_diagonal(g)),
      classical_cut_(classical_cut),
      regularization_(regularization) {
  QGNN_REQUIRE(regularization > 0.0 && regularization <= 0.5,
               "regularization must be in (0, 0.5]");
  QGNN_REQUIRE(g.num_nodes() >= 64 ||
                   classical_cut < (std::uint64_t{1} << g.num_nodes()),
               "classical cut has bits beyond the node count");
}

StateVector WarmStartAnsatz::initial_state() const {
  const int n = num_qubits();
  StateVector state(n);  // |0...0>
  for (int v = 0; v < n; ++v) {
    const bool side1 = (classical_cut_ >> v) & 1;
    const double c = side1 ? 1.0 - regularization_ : regularization_;
    const double theta = 2.0 * std::asin(std::sqrt(c));
    state.apply_single_qubit(gates::ry(theta), v);
  }
  return state;
}

StateVector WarmStartAnsatz::prepare_state(const QaoaParams& params) const {
  StateVector state = initial_state();
  std::vector<Amplitude> table;
  engine_.apply_ansatz(state, params, table);
  return state;
}

double WarmStartAnsatz::expectation(const QaoaParams& params) const {
  return engine_.expectation_of(prepare_state(params));
}

double WarmStartAnsatz::approximation_ratio(const QaoaParams& params) const {
  return qgnn::approximation_ratio(expectation(params), engine_.max_value());
}

double WarmStartAnsatz::initial_expectation() const {
  return engine_.expectation_of(initial_state());
}

}  // namespace qgnn
