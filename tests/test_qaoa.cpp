#include <gtest/gtest.h>

#include "dataset/pruning.hpp"
#include "graph/generators.hpp"
#include "qaoa/fixed_angles.hpp"
#include "qaoa/qaoa.hpp"
#include "util/error.hpp"

namespace qgnn {
namespace {

TEST(RunQaoa, OptimizationNeverWorsensInitialPoint) {
  Rng rng(4);
  RandomInitializer init{Rng(7)};
  QaoaRunConfig config;
  config.max_evaluations = 120;
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = random_regular_graph(6, 3, rng);
    const QaoaResult r = run_qaoa(g, init, config, rng);
    EXPECT_GE(r.best_expectation, r.initial_expectation - 1e-12);
    EXPECT_GE(r.best_ar, r.initial_ar - 1e-12);
    EXPECT_LE(r.best_ar, 1.0 + 1e-12);
  }
}

TEST(RunQaoa, NoneOptimizerEvaluatesOnce) {
  Rng rng(4);
  ConstantInitializer init(QaoaParams::single(0.5, 0.3));
  QaoaRunConfig config;
  config.optimizer = QaoaOptimizer::kNone;
  const Graph g = cycle_graph(6);
  const QaoaResult r = run_qaoa(g, init, config, rng);
  EXPECT_EQ(r.evaluations, 1);
  EXPECT_DOUBLE_EQ(r.best_expectation, r.initial_expectation);
  EXPECT_EQ(r.best_params.gammas, r.initial_params.gammas);
}

TEST(RunQaoa, OneApproximationRatioAcrossFrontEnds) {
  // The ansatz, the run record and the fixed-angle label audit all go
  // through qgnn::approximation_ratio, so at the same graph and angles
  // they return the same double, not merely close ones.
  Rng rng(12);
  const Graph g = random_regular_graph(8, 3, rng);
  const QaoaParams angles = *fixed_angles(3, 1);

  const double from_ansatz = QaoaAnsatz(g).approximation_ratio(angles);

  QaoaRunConfig config;
  config.optimizer = QaoaOptimizer::kNone;
  config.sample_shots = 0;
  const QaoaResult run = run_qaoa_from(g, angles, config, rng);

  std::vector<DatasetEntry> entries(1);
  entries[0].graph = g;
  entries[0].degree = 3;
  entries[0].optimum = run.optimum;
  entries[0].approximation_ratio = 0.0;  // any positive AR improves on it
  ASSERT_EQ(fixed_angle_label_audit(entries, 1).improved, 1u);

  EXPECT_EQ(run.best_ar, from_ansatz);
  EXPECT_EQ(entries[0].approximation_ratio, from_ansatz);
}

TEST(RunQaoa, RespectsEvaluationBudget) {
  Rng rng(4);
  RandomInitializer init{Rng(1)};
  QaoaRunConfig config;
  config.max_evaluations = 60;
  const Graph g = cycle_graph(8);
  const QaoaResult r = run_qaoa(g, init, config, rng);
  EXPECT_LE(r.evaluations, 60);
  EXPECT_EQ(r.trace.size(), static_cast<std::size_t>(r.evaluations));
}

TEST(RunQaoa, NelderMeadNearsOptimumOnEvenCycle) {
  // Even cycles have AR -> 0.75 at the p=1 optimum.
  Rng rng(4);
  ConstantInitializer init(QaoaParams::single(0.5, 0.5));
  QaoaRunConfig config;
  config.max_evaluations = 300;
  const QaoaResult r = run_qaoa(cycle_graph(8), init, config, rng);
  EXPECT_NEAR(r.best_ar, 0.75, 1e-3);
}

TEST(RunQaoa, AdamAlsoImproves) {
  Rng rng(4);
  ConstantInitializer init(QaoaParams::single(0.5, 0.5));
  QaoaRunConfig config;
  config.optimizer = QaoaOptimizer::kAdam;
  config.max_evaluations = 400;
  const QaoaResult r = run_qaoa(cycle_graph(6), init, config, rng);
  EXPECT_GT(r.best_ar, r.initial_ar);
  EXPECT_GT(r.best_ar, 0.70);
}

TEST(RunQaoa, WarmStartFromFixedAnglesStartsHigh) {
  Rng rng(4);
  FixedAngleInitializer warm;
  QaoaRunConfig config;
  config.optimizer = QaoaOptimizer::kNone;
  Rng graph_rng(10);
  const Graph g = random_regular_graph(8, 3, graph_rng);
  const QaoaResult r = run_qaoa(g, warm, config, rng);
  // Fixed angles give a strong p=1 start (well above the 0.5 random-cut
  // level).
  EXPECT_GT(r.initial_ar, 0.6);
}

TEST(RunQaoa, SampledCutIsConsistent) {
  Rng rng(4);
  ConstantInitializer init(QaoaParams::single(0.6, 0.35));
  QaoaRunConfig config;
  config.sample_shots = 64;
  config.max_evaluations = 50;
  const Graph g = cycle_graph(6);
  const QaoaResult r = run_qaoa(g, init, config, rng);
  EXPECT_DOUBLE_EQ(r.sampled_cut.value,
                   cut_value(g, r.sampled_cut.assignment));
  EXPECT_LE(r.sampled_cut.value, r.optimum + 1e-12);
  EXPECT_LT(r.sampled_cut.assignment, std::uint64_t{1} << 6);
}

TEST(RunQaoa, ZeroShotsUsesMostProbableState) {
  Rng rng(4);
  ConstantInitializer init(QaoaParams::single(0.6, 0.35));
  QaoaRunConfig config;
  config.sample_shots = 0;
  config.optimizer = QaoaOptimizer::kNone;
  const Graph g = cycle_graph(4);
  const QaoaResult r = run_qaoa(g, init, config, rng);
  EXPECT_DOUBLE_EQ(r.sampled_cut.value,
                   cut_value(g, r.sampled_cut.assignment));
}

TEST(RunQaoa, DepthMismatchThrows) {
  Rng rng(4);
  QaoaRunConfig config;
  config.depth = 2;
  EXPECT_THROW(
      run_qaoa_from(cycle_graph(4), QaoaParams::single(0.1, 0.1), config, rng),
      InvalidArgument);
}

TEST(RunQaoa, Depth2RunWorks) {
  Rng rng(4);
  ConstantInitializer init(QaoaParams({0.4, 0.6}, {0.5, 0.25}));
  QaoaRunConfig config;
  config.depth = 2;
  config.max_evaluations = 200;
  const QaoaResult r = run_qaoa(cycle_graph(6), init, config, rng);
  EXPECT_EQ(r.best_params.depth(), 2);
  // p=2 on C6 can exceed the p=1 bound of 0.75.
  EXPECT_GT(r.best_ar, 0.75);
}

TEST(EvaluationsToReach, FindsFirstCrossing) {
  const std::vector<double> trace{0.1, 0.3, 0.3, 0.7, 0.9};
  EXPECT_EQ(evaluations_to_reach(trace, 0.3).value(), 2);
  EXPECT_EQ(evaluations_to_reach(trace, 0.65).value(), 4);
  EXPECT_EQ(evaluations_to_reach(trace, 0.95), std::nullopt);
  EXPECT_EQ(evaluations_to_reach({}, 0.1), std::nullopt);
}

TEST(RunQaoa, WarmStartReachesTargetFasterOnAverage) {
  // The core claim of the paper in miniature: starting from fixed angles
  // (a good initializer) reaches 0.7 * optimum in fewer evaluations than
  // a bad fixed start, on 3-regular graphs.
  Rng graph_rng(20);
  Rng rng(4);
  QaoaRunConfig config;
  config.max_evaluations = 200;
  double warm_total = 0.0;
  double cold_total = 0.0;
  double warm_initial_ar = 0.0;
  double cold_initial_ar = 0.0;
  int counted = 0;
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = random_regular_graph(8, 3, graph_rng);
    FixedAngleInitializer warm;
    ConstantInitializer cold(QaoaParams::single(3.5, 1.2));  // poor start
    const QaoaResult rw = run_qaoa(g, warm, config, rng);
    const QaoaResult rc = run_qaoa(g, cold, config, rng);
    warm_initial_ar += rw.initial_ar;
    cold_initial_ar += rc.initial_ar;
    const double target = 0.78 * rw.optimum;
    const auto ew = evaluations_to_reach(rw.trace, target);
    const auto ec = evaluations_to_reach(rc.trace, target);
    if (ew && ec) {
      warm_total += *ew;
      cold_total += *ec;
      ++counted;
    }
  }
  ASSERT_GT(counted, 0);
  EXPECT_LE(warm_total, cold_total);
  EXPECT_GT(warm_initial_ar, cold_initial_ar);
}

}  // namespace
}  // namespace qgnn
