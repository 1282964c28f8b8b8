#include "qaoa/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "util/error.hpp"

namespace qgnn {

namespace {

/// Tracks best-so-far across evaluations and owns the trace.
class EvalTracker {
 public:
  /// Tracker without an objective: callers evaluate externally (e.g. a
  /// GradientObjective returning value and gradient together) and log via
  /// record().
  EvalTracker() = default;
  explicit EvalTracker(const Objective& f) : f_(&f) {}

  /// Log an externally computed objective value at x.
  double record(const std::vector<double>& x, double v) {
    QGNN_REQUIRE(std::isfinite(v), "objective returned non-finite value");
    ++count_;
    if (v > best_value_) {
      best_value_ = v;
      best_params_ = x;
    }
    trace_.push_back(best_value_);
    return v;
  }

  double eval(const std::vector<double>& x) { return record(x, (*f_)(x)); }

  OptResult finish(bool converged) && {
    if (obs::enabled()) {
      // One registry update per optimization run, not per ⟨C⟩ evaluation,
      // so the objective hot loop stays untouched.
      auto& registry = obs::MetricsRegistry::global();
      registry.counter(obs::names::kQaoaEvaluations)
          .add(static_cast<std::uint64_t>(count_));
      registry.counter(obs::names::kQaoaOptimizations).add(1);
    }
    OptResult r;
    r.best_params = std::move(best_params_);
    r.best_value = best_value_;
    r.evaluations = count_;
    r.trace = std::move(trace_);
    r.converged = converged;
    return r;
  }

  int count() const { return count_; }

 private:
  const Objective* f_ = nullptr;
  int count_ = 0;
  double best_value_ = -std::numeric_limits<double>::infinity();
  std::vector<double> best_params_;
  std::vector<double> trace_;
};

}  // namespace

OptResult nelder_mead_maximize(const Objective& f,
                               const std::vector<double>& start,
                               const NelderMeadConfig& config) {
  const std::size_t dim = start.size();
  QGNN_REQUIRE(dim >= 1, "empty start vector");
  QGNN_REQUIRE(config.max_evaluations >= static_cast<int>(dim) + 1,
               "evaluation budget smaller than initial simplex");

  EvalTracker tracker(f);
  // Internally minimize -f.
  auto cost = [&](const std::vector<double>& x) { return -tracker.eval(x); };

  struct Vertex {
    std::vector<double> x;
    double c;  // cost = -objective
  };
  std::vector<Vertex> simplex;
  simplex.reserve(dim + 1);
  simplex.push_back({start, cost(start)});
  for (std::size_t i = 0; i < dim; ++i) {
    std::vector<double> x = start;
    x[i] += config.initial_step;
    simplex.push_back({x, cost(x)});
  }

  auto by_cost = [](const Vertex& a, const Vertex& b) { return a.c < b.c; };
  bool converged = false;

  while (tracker.count() < config.max_evaluations) {
    std::sort(simplex.begin(), simplex.end(), by_cost);
    if (simplex.back().c - simplex.front().c < config.tolerance) {
      // Value spread alone can stall on symmetric simplexes (two vertices
      // equidistant from the optimum); require the simplex to be small too.
      double diameter = 0.0;
      for (std::size_t v = 1; v < simplex.size(); ++v) {
        for (std::size_t i = 0; i < dim; ++i) {
          diameter = std::max(diameter,
                              std::abs(simplex[v].x[i] - simplex[0].x[i]));
        }
      }
      if (diameter < config.param_tolerance) {
        converged = true;
        break;
      }
    }

    // Centroid of all but the worst vertex.
    std::vector<double> centroid(dim, 0.0);
    for (std::size_t i = 0; i < dim; ++i) {
      for (std::size_t v = 0; v < dim; ++v) centroid[i] += simplex[v].x[i];
      centroid[i] /= static_cast<double>(dim);
    }
    Vertex& worst = simplex.back();

    auto along = [&](double t) {
      std::vector<double> x(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        x[i] = centroid[i] + t * (centroid[i] - worst.x[i]);
      }
      return x;
    };

    const std::vector<double> xr = along(config.reflection);
    const double cr = cost(xr);

    if (cr < simplex.front().c) {
      // Try expanding further along the reflection direction.
      if (tracker.count() >= config.max_evaluations) break;
      const std::vector<double> xe = along(config.expansion);
      const double ce = cost(xe);
      worst = (ce < cr) ? Vertex{xe, ce} : Vertex{xr, cr};
    } else if (cr < simplex[dim - 1].c) {
      worst = Vertex{xr, cr};
    } else {
      // Contract toward the centroid.
      if (tracker.count() >= config.max_evaluations) break;
      const bool outside = cr < worst.c;
      std::vector<double> xc(dim);
      const std::vector<double>& towards = outside ? xr : worst.x;
      for (std::size_t i = 0; i < dim; ++i) {
        xc[i] = centroid[i] + config.contraction * (towards[i] - centroid[i]);
      }
      const double cc = cost(xc);
      if (cc < std::min(cr, worst.c)) {
        worst = Vertex{xc, cc};
      } else {
        // Shrink all vertices toward the best.
        for (std::size_t v = 1; v < simplex.size(); ++v) {
          if (tracker.count() >= config.max_evaluations) break;
          for (std::size_t i = 0; i < dim; ++i) {
            simplex[v].x[i] = simplex[0].x[i] +
                              config.shrink * (simplex[v].x[i] -
                                               simplex[0].x[i]);
          }
          simplex[v].c = cost(simplex[v].x);
        }
      }
    }
  }

  return std::move(tracker).finish(converged);
}

std::vector<double> finite_difference_gradient(const Objective& f,
                                               const std::vector<double>& x,
                                               double h) {
  QGNN_REQUIRE(h > 0.0, "finite-difference step must be positive");
  std::vector<double> grad(x.size(), 0.0);
  std::vector<double> probe = x;
  for (std::size_t i = 0; i < x.size(); ++i) {
    probe[i] = x[i] + h;
    const double fp = f(probe);
    probe[i] = x[i] - h;
    const double fm = f(probe);
    probe[i] = x[i];
    grad[i] = (fp - fm) / (2.0 * h);
  }
  return grad;
}

OptResult adam_maximize(const Objective& f, const std::vector<double>& start,
                        const AdamConfig& config) {
  const std::size_t dim = start.size();
  QGNN_REQUIRE(dim >= 1, "empty start vector");

  EvalTracker tracker(f);
  std::vector<double> x = start;
  std::vector<double> m(dim, 0.0);
  std::vector<double> v(dim, 0.0);
  double prev = tracker.eval(x);
  int stall = 0;
  bool converged = false;

  for (int t = 1; t <= config.max_iterations; ++t) {
    // Gradient evaluations also count toward the trace, reflecting the
    // true number of quantum-circuit executions a device would need.
    std::vector<double> grad(dim, 0.0);
    {
      std::vector<double> probe = x;
      for (std::size_t i = 0; i < dim; ++i) {
        probe[i] = x[i] + config.fd_step;
        const double fp = tracker.eval(probe);
        probe[i] = x[i] - config.fd_step;
        const double fm = tracker.eval(probe);
        probe[i] = x[i];
        grad[i] = (fp - fm) / (2.0 * config.fd_step);
      }
    }

    for (std::size_t i = 0; i < dim; ++i) {
      m[i] = config.beta1 * m[i] + (1.0 - config.beta1) * grad[i];
      v[i] = config.beta2 * v[i] + (1.0 - config.beta2) * grad[i] * grad[i];
      const double mhat = m[i] / (1.0 - std::pow(config.beta1, t));
      const double vhat = v[i] / (1.0 - std::pow(config.beta2, t));
      // Ascent: objective is maximized.
      x[i] += config.learning_rate * mhat / (std::sqrt(vhat) + config.epsilon);
    }

    const double value = tracker.eval(x);
    if (std::abs(value - prev) < config.tolerance) {
      if (++stall >= config.patience) {
        converged = true;
        break;
      }
    } else {
      stall = 0;
    }
    prev = value;
  }

  return std::move(tracker).finish(converged);
}

OptResult adam_maximize(const GradientObjective& fg,
                        const std::vector<double>& start,
                        const AdamConfig& config) {
  const std::size_t dim = start.size();
  QGNN_REQUIRE(dim >= 1, "empty start vector");

  EvalTracker tracker;
  std::vector<double> x = start;
  std::vector<double> m(dim, 0.0);
  std::vector<double> v(dim, 0.0);
  std::vector<double> grad(dim, 0.0);
  // Value and gradient come from ONE call (adjoint mode), so the trace
  // grows by one entry per iteration — the honest evaluation count a
  // device running parameter-shift circuits would pay per step is higher,
  // which is exactly the advantage being measured.
  double prev = tracker.record(x, fg(x, grad));
  int stall = 0;
  bool converged = false;

  for (int t = 1; t <= config.max_iterations; ++t) {
    for (std::size_t i = 0; i < dim; ++i) {
      m[i] = config.beta1 * m[i] + (1.0 - config.beta1) * grad[i];
      v[i] = config.beta2 * v[i] + (1.0 - config.beta2) * grad[i] * grad[i];
      const double mhat = m[i] / (1.0 - std::pow(config.beta1, t));
      const double vhat = v[i] / (1.0 - std::pow(config.beta2, t));
      // Ascent: objective is maximized.
      x[i] += config.learning_rate * mhat / (std::sqrt(vhat) + config.epsilon);
    }

    const double value = tracker.record(x, fg(x, grad));
    if (std::abs(value - prev) < config.tolerance) {
      if (++stall >= config.patience) {
        converged = true;
        break;
      }
    } else {
      stall = 0;
    }
    prev = value;
  }

  return std::move(tracker).finish(converged);
}

OptResult grid_search_maximize_2d(const Objective& f,
                                  const GridSearchConfig& config) {
  QGNN_REQUIRE(config.gamma_steps >= 1 && config.beta_steps >= 1,
               "grid must have at least one point per axis");
  EvalTracker tracker(f);
  for (int i = 0; i < config.gamma_steps; ++i) {
    for (int j = 0; j < config.beta_steps; ++j) {
      const double gamma =
          config.gamma_max * static_cast<double>(i) /
          static_cast<double>(config.gamma_steps);
      const double beta = config.beta_max * static_cast<double>(j) /
                          static_cast<double>(config.beta_steps);
      tracker.eval({gamma, beta});
    }
  }
  return std::move(tracker).finish(true);
}

}  // namespace qgnn
