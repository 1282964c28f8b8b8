#include "qaoa/ansatz.hpp"

#include <bit>
#include <cstdint>

#include "maxcut/maxcut.hpp"
#include "util/error.hpp"

namespace qgnn {

QaoaParams::QaoaParams(std::vector<double> g, std::vector<double> b)
    : gammas(std::move(g)), betas(std::move(b)) {
  QGNN_REQUIRE(gammas.size() == betas.size(),
               "gamma and beta must have the same length");
  QGNN_REQUIRE(!gammas.empty(), "QAOA depth must be at least 1");
}

std::vector<double> QaoaParams::flatten() const {
  std::vector<double> flat = gammas;
  flat.insert(flat.end(), betas.begin(), betas.end());
  return flat;
}

QaoaParams QaoaParams::from_flat(const std::vector<double>& flat) {
  QGNN_REQUIRE(!flat.empty() && flat.size() % 2 == 0,
               "flat parameter vector must have even, positive length");
  const std::size_t p = flat.size() / 2;
  return QaoaParams(std::vector<double>(flat.begin(), flat.begin() + p),
                    std::vector<double>(flat.begin() + p, flat.end()));
}

QaoaParams QaoaParams::single(double gamma, double beta) {
  return QaoaParams({gamma}, {beta});
}

std::vector<double> maxcut_diagonal(const Graph& g) {
  QGNN_REQUIRE(g.num_nodes() >= 1 && g.num_nodes() <= kMaxQubits,
               "graph size out of simulable range [1, kMaxQubits] nodes");
  const std::uint64_t dim = std::uint64_t{1} << g.num_nodes();
  const std::uint64_t half = dim >> 1;
  std::vector<double> diag(dim, 0.0);
  // Per-edge accumulation over the lower half: for each edge, add w to
  // every state whose endpoints differ. The inner loop is branch-free
  // (it adds w or +0.0 through a bit mask), and adding +0.0 leaves every
  // entry's bytes as they were, since a sum that starts at +0.0 is never
  // -0.0. O(2^(n-1) * m) total, done once per graph.
  for (const Edge& e : g.edges()) {
    const auto w = std::bit_cast<std::uint64_t>(e.weight);
    const int u = e.u;
    const int v = e.v;
    for (std::uint64_t x = 0; x < half; ++x) {
      const std::uint64_t cut = ((x >> u) ^ (x >> v)) & 1u;
      diag[x] += std::bit_cast<double>(w & (0 - cut));
    }
  }
  // A cut and its complement cut the same edges, added in the same
  // order, so the upper half repeats the lower half's sums exactly.
  for (std::uint64_t x = half; x < dim; ++x) diag[x] = diag[dim - 1 - x];
  return diag;
}

Circuit maxcut_qaoa_circuit(const Graph& g, const QaoaParams& params) {
  Circuit c(g.num_nodes());
  for (int layer = 0; layer < params.depth(); ++layer) {
    // Cost layer: e^{-i gamma w (1 - Z_u Z_v)/2} per edge; the Z.Z part is
    // RZZ(-gamma w)... note e^{-i gamma C} = prod_e e^{-i gamma w/2}
    // e^{+i gamma w Z_u Z_v / 2}; the scalar factor is a global phase, and
    // the operator part is RZZ with angle -gamma*w.
    for (const Edge& e : g.edges()) {
      c.rzz(e.u, e.v, -params.gammas[layer] * e.weight);
    }
    for (int q = 0; q < g.num_nodes(); ++q) {
      c.rx(q, 2.0 * params.betas[layer]);
    }
  }
  return c;
}

QaoaAnsatz::QaoaAnsatz(const Graph& g)
    : engine_(g.num_nodes(), maxcut_diagonal(g)) {}

StateVector QaoaAnsatz::prepare_state(const QaoaParams& params) const {
  QGNN_REQUIRE(params.depth() >= 1, "QAOA depth must be at least 1");
  StateVector state = StateVector::plus_state(num_qubits());
  std::vector<Amplitude> table;
  engine_.apply_ansatz(state, params, table);
  return state;
}

double QaoaAnsatz::expectation(const QaoaParams& params) const {
  // Runs inside the calling thread's workspace: optimizer loops and the
  // parallel dataset labeller evaluate thousands of parameter points with
  // zero per-evaluation statevector allocations.
  return engine_.expectation(params);
}

double QaoaAnsatz::approximation_ratio(const QaoaParams& params) const {
  return qgnn::approximation_ratio(expectation(params), engine_.max_value());
}

}  // namespace qgnn
