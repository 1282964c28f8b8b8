#include <gtest/gtest.h>

#include <cmath>

#include "qaoa/optimize.hpp"
#include "util/error.hpp"

namespace qgnn {
namespace {

/// Concave quadratic with maximum `peak` at `center`.
Objective quadratic(std::vector<double> center, double peak) {
  return [center = std::move(center), peak](const std::vector<double>& x) {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = x[i] - center[i];
      s += d * d;
    }
    return peak - s;
  };
}

TEST(NelderMead, FindsQuadraticMaximum2D) {
  const auto f = quadratic({1.5, -2.0}, 7.0);
  NelderMeadConfig config;
  config.max_evaluations = 300;
  const OptResult r = nelder_mead_maximize(f, {0.0, 0.0}, config);
  EXPECT_NEAR(r.best_value, 7.0, 1e-5);
  EXPECT_NEAR(r.best_params[0], 1.5, 1e-2);
  EXPECT_NEAR(r.best_params[1], -2.0, 1e-2);
  EXPECT_TRUE(r.converged);
}

TEST(NelderMead, FindsQuadraticMaximum4D) {
  const auto f = quadratic({0.5, -0.5, 2.0, 1.0}, 3.0);
  NelderMeadConfig config;
  config.max_evaluations = 800;
  const OptResult r = nelder_mead_maximize(f, {0, 0, 0, 0}, config);
  EXPECT_NEAR(r.best_value, 3.0, 1e-4);
}

TEST(NelderMead, HandlesTrigLandscape) {
  // Multi-modal but smooth; from a decent start it should climb to 2.
  const Objective f = [](const std::vector<double>& x) {
    return std::sin(x[0]) + std::cos(x[1]);
  };
  NelderMeadConfig config;
  config.max_evaluations = 400;
  const OptResult r = nelder_mead_maximize(f, {1.0, 0.5}, config);
  EXPECT_NEAR(r.best_value, 2.0, 1e-4);
}

TEST(NelderMead, RespectsEvaluationBudget) {
  const auto f = quadratic({3.0, 3.0}, 1.0);
  NelderMeadConfig config;
  config.max_evaluations = 50;
  config.tolerance = 0.0;  // never converge by tolerance
  const OptResult r = nelder_mead_maximize(f, {0.0, 0.0}, config);
  EXPECT_LE(r.evaluations, 50);
  EXPECT_EQ(r.trace.size(), static_cast<std::size_t>(r.evaluations));
}

TEST(NelderMead, TraceIsBestSoFarMonotone) {
  const auto f = quadratic({1.0, 1.0}, 0.0);
  const OptResult r = nelder_mead_maximize(f, {-2.0, 2.0});
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_GE(r.trace[i], r.trace[i - 1]);
  }
  EXPECT_DOUBLE_EQ(r.trace.back(), r.best_value);
}

TEST(NelderMead, ValidatesInput) {
  const auto f = quadratic({0.0}, 0.0);
  EXPECT_THROW(nelder_mead_maximize(f, {}), InvalidArgument);
  NelderMeadConfig tiny;
  tiny.max_evaluations = 1;
  EXPECT_THROW(nelder_mead_maximize(f, {0.0}, tiny), InvalidArgument);
}

TEST(NelderMead, RejectsNonFiniteObjective) {
  const Objective f = [](const std::vector<double>&) {
    return std::numeric_limits<double>::quiet_NaN();
  };
  EXPECT_THROW(nelder_mead_maximize(f, {0.0}), InvalidArgument);
}

TEST(FiniteDifference, MatchesAnalyticGradient) {
  const Objective f = [](const std::vector<double>& x) {
    return std::sin(x[0]) * std::exp(x[1] / 3.0);
  };
  const std::vector<double> x{0.7, -0.4};
  const auto g = finite_difference_gradient(f, x, 1e-6);
  const double expected0 = std::cos(0.7) * std::exp(-0.4 / 3.0);
  const double expected1 = std::sin(0.7) * std::exp(-0.4 / 3.0) / 3.0;
  EXPECT_NEAR(g[0], expected0, 1e-7);
  EXPECT_NEAR(g[1], expected1, 1e-7);
}

TEST(Adam, ClimbsQuadratic) {
  const auto f = quadratic({0.8, -1.2}, 5.0);
  AdamConfig config;
  config.max_iterations = 400;
  config.learning_rate = 0.05;
  const OptResult r = adam_maximize(f, {0.0, 0.0}, config);
  EXPECT_NEAR(r.best_value, 5.0, 1e-3);
  EXPECT_NEAR(r.best_params[0], 0.8, 0.05);
  EXPECT_NEAR(r.best_params[1], -1.2, 0.05);
}

TEST(Adam, ConvergesAndStopsEarly) {
  const auto f = quadratic({0.0}, 1.0);
  AdamConfig config;
  config.max_iterations = 10000;
  config.learning_rate = 0.1;
  const OptResult r = adam_maximize(f, {0.05}, config);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.evaluations, 10000 * 5);
}

TEST(Adam, TraceMonotoneAndSized) {
  const auto f = quadratic({2.0, 2.0}, 0.0);
  AdamConfig config;
  config.max_iterations = 50;
  const OptResult r = adam_maximize(f, {0.0, 0.0}, config);
  EXPECT_EQ(r.trace.size(), static_cast<std::size_t>(r.evaluations));
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    EXPECT_GE(r.trace[i], r.trace[i - 1]);
  }
}

TEST(GridSearch, FindsBestGridPoint) {
  const Objective f = [](const std::vector<double>& x) {
    return -std::pow(x[0] - 3.0, 2) - std::pow(x[1] - 1.5, 2);
  };
  GridSearchConfig config;
  config.gamma_steps = 32;
  config.beta_steps = 32;
  const OptResult r = grid_search_maximize_2d(f, config);
  EXPECT_EQ(r.evaluations, 32 * 32);
  EXPECT_NEAR(r.best_params[0], 3.0, 0.25);
  EXPECT_NEAR(r.best_params[1], 1.5, 0.15);
}

TEST(GridSearch, SinglePointGrid) {
  const auto f = quadratic({0.0, 0.0}, 2.0);
  GridSearchConfig config;
  config.gamma_steps = 1;
  config.beta_steps = 1;
  const OptResult r = grid_search_maximize_2d(f, config);
  EXPECT_EQ(r.evaluations, 1);
  EXPECT_DOUBLE_EQ(r.best_params[0], 0.0);
}

class NelderMeadDimTest : public ::testing::TestWithParam<int> {};

TEST_P(NelderMeadDimTest, ScalesWithDimension) {
  const int dim = GetParam();
  std::vector<double> center(static_cast<std::size_t>(dim));
  for (int i = 0; i < dim; ++i) {
    center[static_cast<std::size_t>(i)] = 0.3 * i - 0.5;
  }
  const auto f = quadratic(center, 1.0);
  NelderMeadConfig config;
  config.max_evaluations = 500 * dim;
  const OptResult r = nelder_mead_maximize(
      f, std::vector<double>(static_cast<std::size_t>(dim), 0.0), config);
  EXPECT_NEAR(r.best_value, 1.0, 1e-3) << "dim " << dim;
}

INSTANTIATE_TEST_SUITE_P(DimSweep, NelderMeadDimTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

}  // namespace
}  // namespace qgnn
