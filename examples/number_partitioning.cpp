// Beyond Max-Cut: the same QAOA machinery on a different NP-hard problem
// (the generalization the paper's conclusion points at). Number
// partitioning: split a set of numbers into two groups with minimal sum
// difference, encoded as an Ising ground-state problem
//   E(s) = (sum_i w_i s_i)^2.
//
// Run:  ./number_partitioning [--count N] [--seed S]

#include <cmath>
#include <iostream>

#include "ising/ising.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace qgnn;
  const CliArgs args(argc, argv);
  const int count = args.get_int("count", 8);
  Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 19)));

  // Random positive integers to partition.
  std::vector<double> weights;
  double total = 0.0;
  for (int i = 0; i < count; ++i) {
    weights.push_back(static_cast<double>(rng.uniform_int(1, 9)));
    total += weights.back();
  }
  std::cout << "numbers:";
  for (double w : weights) std::cout << ' ' << w;
  std::cout << "  (total " << total << ")\n";

  const IsingModel model = number_partitioning_ising(weights);
  std::cout << model.describe() << "\n";
  const auto gs = model.ground_state();
  std::cout << "exact minimal imbalance: " << std::sqrt(gs.energy)
            << " (ground energy " << gs.energy << ")\n\n";

  const IsingQaoaResult r = solve_ising_qaoa(model, /*depth=*/1,
                                             /*max_evaluations=*/250,
                                             /*shots=*/512, rng);
  std::cout << "QAOA (p=1, " << r.evaluations
            << " circuit evaluations): best sampled energy " << r.best_energy
            << " -> imbalance " << std::sqrt(std::max(0.0, r.best_energy))
            << "\n";

  Table table({"side A", "side B"});
  std::string a;
  std::string b;
  double sum_a = 0.0;
  double sum_b = 0.0;
  for (int i = 0; i < count; ++i) {
    const bool side = (r.best_configuration >> i) & 1;
    std::string& target = side ? b : a;
    (side ? sum_b : sum_a) += weights[static_cast<std::size_t>(i)];
    if (!target.empty()) target += " + ";
    target += format_double(weights[static_cast<std::size_t>(i)], 0);
  }
  table.add_row({a + " = " + format_double(sum_a, 0),
                 b + " = " + format_double(sum_b, 0)});
  table.print(std::cout);

  std::cout << "\nthe identical warm-start machinery (fixed angles, GNN "
               "prediction) plugs into the QAOA engine that "
               "IsingModel::to_qaoa() returns for any Ising/QUBO "
               "instance.\n";
  return 0;
}
