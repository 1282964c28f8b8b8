#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset/dataset.hpp"

namespace qgnn::mine {

/// Labelling budget for mined graphs. Mirrors the dataset factory's
/// generation config, but with the full-budget Adam optimizer as the
/// default — mined examples are exactly the ones the incumbent got wrong,
/// so they deserve the strongest labels the labeller can produce.
struct RelabelConfig {
  int depth = 1;
  int optimizer_evaluations = 500;
  QaoaOptimizer optimizer = QaoaOptimizer::kAdam;
  bool symmetrize_labels = false;
  std::uint64_t seed = 42;
  /// Dedicated worker threads for the labelling sweep. The relabel job
  /// deliberately does NOT use ThreadPool::global(): serve's coalesced
  /// forward passes run there, and a multi-second labelling wave sharing
  /// that pool would starve live requests.
  int workers = 1;
};

/// Re-label `entries` in place through the per-item dataset labeller
/// (label_dataset_entry): item i is labelled from the
/// derive_seed(config.seed, base_index + i) stream, so the result is
/// byte-identical at any worker count and across resumed runs.
void relabel_entries(const RelabelConfig& config,
                     std::vector<DatasetEntry>& entries,
                     std::size_t base_index = 0);

/// Checkpointed shard job: load the mined packed shard at `shard_path`,
/// relabel every record, and commit the result atomically as
/// `<shard_path minus .qds>.labelled.qds`. If that output already exists
/// and validates, it is loaded and returned instead of re-labelling —
/// the resume path a restarted miner takes after a crash mid-cycle.
std::vector<DatasetEntry> relabel_shard(const RelabelConfig& config,
                                        const std::string& shard_path);

/// The output path relabel_shard commits to for a given mined shard.
std::string labelled_shard_path(const std::string& shard_path);

}  // namespace qgnn::mine
