#include "ising/ising.hpp"

#include <sstream>

#include "util/error.hpp"

namespace qgnn {

IsingModel::IsingModel(int num_spins)
    : num_spins_(num_spins),
      fields_(static_cast<std::size_t>(num_spins), 0.0),
      couplings_(static_cast<std::size_t>(num_spins) *
                     static_cast<std::size_t>(num_spins),
                 0.0) {
  QGNN_REQUIRE(num_spins >= 1 && num_spins <= kMaxQubits,
               "spin count out of simulable range");
}

void IsingModel::check_spin(int s) const {
  QGNN_REQUIRE(s >= 0 && s < num_spins_, "spin index out of range");
}

std::size_t IsingModel::index(int i, int j) const {
  return static_cast<std::size_t>(i) * static_cast<std::size_t>(num_spins_) +
         static_cast<std::size_t>(j);
}

void IsingModel::set_field(int spin, double h) {
  check_spin(spin);
  fields_[static_cast<std::size_t>(spin)] = h;
}

double IsingModel::field(int spin) const {
  check_spin(spin);
  return fields_[static_cast<std::size_t>(spin)];
}

void IsingModel::add_coupling(int i, int j, double j_ij) {
  check_spin(i);
  check_spin(j);
  QGNN_REQUIRE(i != j, "self-coupling not allowed");
  if (i > j) std::swap(i, j);
  couplings_[index(i, j)] += j_ij;
}

double IsingModel::coupling(int i, int j) const {
  check_spin(i);
  check_spin(j);
  QGNN_REQUIRE(i != j, "self-coupling not allowed");
  if (i > j) std::swap(i, j);
  return couplings_[index(i, j)];
}

double IsingModel::energy(std::uint64_t bits) const {
  QGNN_REQUIRE(num_spins_ >= 64 ||
                   bits < (std::uint64_t{1} << num_spins_),
               "configuration has bits beyond the spin count");
  auto spin = [&bits](int v) {
    return ((bits >> v) & 1) ? -1.0 : 1.0;
  };
  double e = offset_;
  for (int i = 0; i < num_spins_; ++i) {
    e += fields_[static_cast<std::size_t>(i)] * spin(i);
    for (int j = i + 1; j < num_spins_; ++j) {
      const double jij = couplings_[index(i, j)];
      if (jij != 0.0) e += jij * spin(i) * spin(j);
    }
  }
  return e;
}

std::vector<double> IsingModel::energies() const {
  const std::uint64_t dim = std::uint64_t{1} << num_spins_;
  std::vector<double> out;
  out.reserve(dim);
  for (std::uint64_t k = 0; k < dim; ++k) out.push_back(energy(k));
  return out;
}

IsingModel::GroundState IsingModel::ground_state() const {
  const auto all = energies();
  GroundState gs{0, all[0]};
  for (std::uint64_t k = 1; k < all.size(); ++k) {
    if (all[k] < gs.energy) gs = GroundState{k, all[k]};
  }
  return gs;
}

QaoaEvalEngine IsingModel::to_qaoa() const {
  std::vector<double> diag = energies();
  for (double& v : diag) v = -v;  // QAOA maximizes
  return QaoaEvalEngine(num_spins_, std::move(diag));
}

std::string IsingModel::describe() const {
  std::ostringstream os;
  int nonzero_j = 0;
  int nonzero_h = 0;
  for (int i = 0; i < num_spins_; ++i) {
    if (fields_[static_cast<std::size_t>(i)] != 0.0) ++nonzero_h;
    for (int j = i + 1; j < num_spins_; ++j) {
      if (couplings_[index(i, j)] != 0.0) ++nonzero_j;
    }
  }
  os << "IsingModel(spins=" << num_spins_ << ", couplings=" << nonzero_j
     << ", fields=" << nonzero_h << ", offset=" << offset_ << ')';
  return os.str();
}

IsingModel maxcut_to_ising(const Graph& g) {
  IsingModel model(g.num_nodes());
  double offset = 0.0;
  for (const Edge& e : g.edges()) {
    model.add_coupling(e.u, e.v, e.weight / 2.0);
    offset -= e.weight / 2.0;
  }
  model.set_offset(offset);
  return model;
}

IsingModel number_partitioning_ising(const std::vector<double>& weights) {
  QGNN_REQUIRE(weights.size() >= 2, "need at least two numbers");
  QGNN_REQUIRE(weights.size() <= static_cast<std::size_t>(kMaxQubits),
               "too many numbers to simulate");
  IsingModel model(static_cast<int>(weights.size()));
  double offset = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    offset += weights[i] * weights[i];
    for (std::size_t j = i + 1; j < weights.size(); ++j) {
      model.add_coupling(static_cast<int>(i), static_cast<int>(j),
                         2.0 * weights[i] * weights[j]);
    }
  }
  model.set_offset(offset);
  return model;
}

IsingModel random_spin_glass(int n, double edge_probability,
                             double field_scale, Rng& rng) {
  QGNN_REQUIRE(edge_probability >= 0.0 && edge_probability <= 1.0,
               "edge probability out of [0,1]");
  QGNN_REQUIRE(field_scale >= 0.0, "negative field scale");
  IsingModel model(n);
  for (int i = 0; i < n; ++i) {
    if (field_scale > 0.0) {
      model.set_field(i, rng.uniform(-field_scale, field_scale));
    }
    for (int j = i + 1; j < n; ++j) {
      if (rng.bernoulli(edge_probability)) {
        model.add_coupling(i, j, rng.uniform(-1.0, 1.0));
      }
    }
  }
  return model;
}

IsingQaoaResult solve_ising_qaoa(const IsingModel& model, int depth,
                                 int max_evaluations, int shots, Rng& rng) {
  QGNN_REQUIRE(depth >= 1, "depth must be at least 1");
  QGNN_REQUIRE(shots >= 1, "need at least one shot");
  const QaoaEvalEngine engine = model.to_qaoa();
  EvalWorkspace ws;

  const Objective f = [&engine, &ws](const std::vector<double>& x) {
    return engine.expectation(QaoaParams::from_flat(x), ws);
  };
  std::vector<double> start(static_cast<std::size_t>(2 * depth));
  for (auto& v : start) v = rng.uniform(0.0, 1.0);
  NelderMeadConfig config;
  config.max_evaluations = max_evaluations;
  const OptResult opt = nelder_mead_maximize(f, start, config);

  IsingQaoaResult result;
  result.params = QaoaParams::from_flat(opt.best_params);
  result.expectation_energy = -opt.best_value;
  result.evaluations = opt.evaluations;

  const StateVector& state = engine.prepare_state(result.params, ws);
  result.best_configuration = state.sample(rng);
  result.best_energy = model.energy(result.best_configuration);
  for (int s = 1; s < shots; ++s) {
    const std::uint64_t k = state.sample(rng);
    const double e = model.energy(k);
    if (e < result.best_energy) {
      result.best_energy = e;
      result.best_configuration = k;
    }
  }
  return result;
}

}  // namespace qgnn
