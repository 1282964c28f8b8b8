#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "qaoa/eval_engine.hpp"
#include "qaoa/params.hpp"
#include "quantum/circuit.hpp"
#include "quantum/statevector.hpp"

namespace qgnn {

/// Diagonal of the Max-Cut cost Hamiltonian
///   C = sum_{(u,v) in E} w_uv (1 - Z_u Z_v) / 2
/// in the computational basis: entry x is the cut value of assignment x,
/// so entry 0 is 0 and the largest entry is the exact Max-Cut optimum.
/// O(2^n * m), built once per graph. Unweighted cut values are small
/// integers, so a QaoaEvalEngine over this diagonal always runs its
/// phase-table cost layer.
std::vector<double> maxcut_diagonal(const Graph& g);

/// The Max-Cut ansatz as an explicit gate circuit (RZZ per edge + RX
/// mixers per layer, applied to |+>^n). Slower than QaoaAnsatz; used for
/// cross-checks and for counting NISQ gate resources. Global phase may
/// differ from QaoaAnsatz::prepare_state; probabilities and expectations
/// agree.
Circuit maxcut_qaoa_circuit(const Graph& g, const QaoaParams& params);

/// The QAOA Max-Cut ansatz: |gamma, beta> =
///   prod_{l=p..1} [ e^{-i beta_l B} e^{-i gamma_l C} ] |+>^n,
/// where B = sum_v X_v is the transverse-field mixer. A QaoaEvalEngine
/// over maxcut_diagonal(g), with the Max-Cut approximation ratio on top.
class QaoaAnsatz {
 public:
  explicit QaoaAnsatz(const Graph& g);

  const QaoaEvalEngine& engine() const { return engine_; }
  int num_qubits() const { return engine_.num_qubits(); }

  /// Prepare |gamma, beta> using the diagonal fast path.
  StateVector prepare_state(const QaoaParams& params) const;

  /// <gamma, beta| C |gamma, beta>: the QAOA objective to maximize.
  double expectation(const QaoaParams& params) const;

  /// expectation / exact optimum (in (0, 1]); the paper's headline metric.
  double approximation_ratio(const QaoaParams& params) const;

 private:
  QaoaEvalEngine engine_;
};

}  // namespace qgnn
