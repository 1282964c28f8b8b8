#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "quantum/statevector.hpp"

namespace qgnn {

/// Single-qubit Pauli operator label.
enum class Pauli : std::uint8_t { I = 0, X = 1, Y = 2, Z = 3 };

/// A weighted tensor product of Pauli operators on n qubits, e.g.
/// 0.5 * Z0 Z3. Identity factors are implicit.
class PauliString {
 public:
  PauliString(int num_qubits, double coefficient = 1.0);

  /// Parse "ZZ" style dense strings (leftmost char = qubit n-1, matching
  /// ket notation) or return via the factory below.
  static PauliString parse(const std::string& text, double coefficient = 1.0);

  int num_qubits() const { return static_cast<int>(ops_.size()); }
  double coefficient() const { return coefficient_; }
  void set_coefficient(double c) { coefficient_ = c; }

  Pauli op(int qubit) const;
  PauliString& set(int qubit, Pauli p);

  /// Number of non-identity factors.
  int weight() const;

  /// True when every factor is I or Z (diagonal in the computational
  /// basis), enabling the fast expectation path.
  bool is_diagonal() const;

  /// Two Pauli strings commute iff they anticommute on an even number of
  /// qubits.
  bool commutes_with(const PauliString& other) const;

  /// Apply to a state: |psi> -> coefficient * P |psi>. The coefficient is
  /// folded into the amplitudes; note the result is generally unnormalized
  /// when |coefficient| != 1.
  void apply_to(StateVector& state) const;

  /// <psi| coefficient * P |psi>.
  double expectation(const StateVector& state) const;

  /// "0.50 * Z0 Z3" style human-readable form.
  std::string to_string() const;

 private:
  std::vector<Pauli> ops_;
  double coefficient_;
};

/// A sum of Pauli strings (a Hermitian observable with real weights).
class PauliSum {
 public:
  explicit PauliSum(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  void add(PauliString term);
  const std::vector<PauliString>& terms() const { return terms_; }
  std::size_t size() const { return terms_.size(); }

  /// <psi| H |psi> = sum of term expectations.
  double expectation(const StateVector& state) const;

  /// True when every term is diagonal.
  bool is_diagonal() const;

  /// Dense diagonal (length 2^n). Only valid when is_diagonal().
  std::vector<double> diagonal() const;

  std::string to_string() const;

 private:
  int num_qubits_;
  std::vector<PauliString> terms_;
};

/// The Max-Cut cost Hamiltonian as an explicit Pauli sum:
///   C = sum_{(u,v)} w/2 * (I - Z_u Z_v).
/// Equals maxcut_diagonal(g) (verified in tests); exists so the
/// library exposes a general observable path alongside the fast one.
PauliSum maxcut_pauli_sum(const Graph& g);

}  // namespace qgnn
