#include "dataset/pruning.hpp"

#include "maxcut/maxcut.hpp"
#include "qaoa/fixed_angles.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace qgnn {

std::vector<DatasetEntry> selective_data_pruning(
    std::vector<DatasetEntry> entries, const SdpConfig& config,
    SdpReport* report) {
  QGNN_REQUIRE(config.ar_threshold >= 0.0 && config.ar_threshold <= 1.0,
               "AR threshold out of [0,1]");
  QGNN_REQUIRE(config.selective_rate >= 0.0 && config.selective_rate <= 1.0,
               "selective rate out of [0,1]");

  Rng rng(config.seed);
  SdpReport r;
  r.input_count = entries.size();
  RunningStats before;
  RunningStats after;
  for (const DatasetEntry& e : entries) before.add(e.approximation_ratio);

  std::vector<DatasetEntry> kept;
  kept.reserve(entries.size());
  for (DatasetEntry& e : entries) {
    const bool low_quality = e.approximation_ratio < config.ar_threshold;
    if (low_quality) {
      ++r.below_threshold;
      if (!rng.bernoulli(config.selective_rate)) {
        ++r.pruned;
        continue;
      }
    }
    after.add(e.approximation_ratio);
    kept.push_back(std::move(e));
  }
  r.kept = kept.size();
  r.mean_ar_before = before.mean();
  r.mean_ar_after = after.mean();
  if (report) *report = r;
  return kept;
}

FixedAngleAuditReport fixed_angle_label_audit(
    std::vector<DatasetEntry>& entries, int depth) {
  FixedAngleAuditReport report;
  RunningStats deltas;
  for (DatasetEntry& e : entries) {
    if (!e.graph.is_regular()) continue;
    const auto angles = fixed_angles(e.degree, depth);
    if (!angles) continue;
    ++report.covered;
    QaoaAnsatz ansatz(e.graph);
    const double expectation = ansatz.expectation(*angles);
    const double ar = approximation_ratio(expectation, e.optimum);
    if (ar > e.approximation_ratio) {
      deltas.add(ar - e.approximation_ratio);
      e.label = canonicalize_params(*angles);
      e.expectation = expectation;
      e.approximation_ratio = ar;
      ++report.improved;
    }
  }
  report.mean_ar_delta = deltas.mean();
  return report;
}

}  // namespace qgnn
