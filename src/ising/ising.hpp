#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "qaoa/eval_engine.hpp"
#include "qaoa/optimize.hpp"
#include "util/rng.hpp"

namespace qgnn {

/// Classical Ising Hamiltonian on n spins s_i in {+1, -1}:
///   E(s) = sum_i h_i s_i + sum_{i<j} J_ij s_i s_j + offset.
/// Bit v of a configuration bitmask maps to s_v = +1 when the bit is 0
/// and -1 when set (matching the computational-basis Z eigenvalues, so a
/// measured QAOA bitstring is directly a spin configuration).
///
/// This is the problem layer the paper's conclusion generalizes to: any
/// QUBO/Ising instance gets the same QAOA + warm-start machinery as
/// Max-Cut.
class IsingModel {
 public:
  explicit IsingModel(int num_spins);

  int num_spins() const { return num_spins_; }

  void set_field(int spin, double h);
  double field(int spin) const;
  /// Add coupling J_ij (accumulates if called twice for the same pair).
  void add_coupling(int i, int j, double j_ij);
  double coupling(int i, int j) const;
  void set_offset(double offset) { offset_ = offset; }
  double offset() const { return offset_; }

  /// Energy of the configuration encoded by `bits`.
  double energy(std::uint64_t bits) const;

  /// All 2^n energies (index = configuration bitmask).
  std::vector<double> energies() const;

  /// Exhaustive ground-state search.
  struct GroundState {
    std::uint64_t configuration = 0;
    double energy = 0.0;
  };
  GroundState ground_state() const;

  /// QAOA solver: since QAOA here maximizes, the objective is -E. Returns
  /// an engine over the 2^n values of -E, whose argmax is the ground state.
  QaoaEvalEngine to_qaoa() const;

  std::string describe() const;

 private:
  void check_spin(int s) const;

  int num_spins_;
  std::vector<double> fields_;
  /// Dense upper-triangular couplings, indexed [i][j] with i < j.
  std::vector<double> couplings_;
  double offset_ = 0.0;

  std::size_t index(int i, int j) const;
};

/// Max-Cut as Ising: cut(x) = w/2 * (1 - s_u s_v) summed over edges, so
/// E = sum w/2 * s_u s_v - sum w/2 has ground states exactly at maximum
/// cuts, with E_ground = -max_cut.
IsingModel maxcut_to_ising(const Graph& g);

/// Number partitioning: split `weights` into two sets with minimal
/// difference. E(s) = (sum_i w_i s_i)^2 expands to couplings 2 w_i w_j
/// and constant sum w_i^2; the ground energy is the squared minimal
/// imbalance (0 iff a perfect partition exists).
IsingModel number_partitioning_ising(const std::vector<double>& weights);

/// Random spin glass: couplings ~ U[-1, 1] on G(n, p), fields ~ U[-f, f].
IsingModel random_spin_glass(int n, double edge_probability,
                             double field_scale, Rng& rng);

/// Solve an Ising instance with QAOA: optimize (gamma, beta) with
/// Nelder-Mead, then report the best configuration among `shots` samples
/// of the final state.
struct IsingQaoaResult {
  QaoaParams params{{0.0}, {0.0}};
  double expectation_energy = 0.0;  // <E> at the optimized parameters
  std::uint64_t best_configuration = 0;
  double best_energy = 0.0;
  int evaluations = 0;
};

IsingQaoaResult solve_ising_qaoa(const IsingModel& model, int depth,
                                 int max_evaluations, int shots, Rng& rng);

}  // namespace qgnn
