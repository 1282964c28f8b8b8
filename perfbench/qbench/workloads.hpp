#pragma once

// The benchmark's workloads and their fixed constants. Every run of
// every workload executes both product chains in one process:
//   1. label -> train: run_dataset_factory labels graphs of the paper's
//      size mix, then train_gnn fits the default model on them;
//   2. serve: an in-process NdjsonTcpService (qgnn_serve --listen
//      --verify-ar defaults) driven over loopback by one client thread.
// The workloads differ only in the serve request stream (README.md).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "report.hpp"
#include "spans.hpp"

namespace qbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 40.0;
  bool trace = false;
  /// Scratch directory for packed label files and trace output.
  std::string work_dir;
};

/// Set-up is timed kSetupRepeats times before the first round and
/// kSetupPerRound times at the end of every round; setup_s is the median
/// of them all, so that, like the other metrics, it samples the whole run
/// rather than the fraction of a second before it.
inline constexpr int kSetupRepeats = 7;
inline constexpr int kSetupPerRound = 2;

/// Fixed offered rates of the two open-loop phases, per workload
/// (requests per second). About 25% and 70% of the capacity measured
/// when the benchmark was defined (README.md); deliberately constants,
/// so that a faster program meets the same load.
struct ServeRates {
  double r1 = 0.0;
  double r2 = 0.0;
};
ServeRates serve_rates(const std::string& workload);

/// How a run of --seconds S is laid out: kTrainPasses label passes, a
/// closed-loop warm-up, then `rounds` rounds of
///   r1 chunk, label pass, r2 chunk, train pass, closed-loop chunk.
/// Each end-to-end rate or p50 is the median over the rounds, so a slow
/// spell of a shared host moves a minority of chunks, not the metric.
struct Plan {
  int rounds = 0;
  double warm_s = 0.0;
  double r1_s = 0.0;      // per round
  double r2_s = 0.0;      // per round
  double closed_s = 0.0;  // per round
};
Plan plan(double seconds);

/// The first `count` request lines a serve workload sends for `seed`.
std::vector<std::string> stream_lines(const std::string& workload,
                                      std::uint64_t seed, std::size_t count);

/// Identity statistics of the first `count` requests of a stream.
struct StreamStats {
  std::uint64_t requests = 0;
  /// Distinct request graphs (exact labelling) among them.
  std::uint64_t distinct_graphs = 0;
  /// Share whose canonical_hash appeared earlier in the stream.
  double repeat_share = 0.0;
  /// Requests whose canonical_hash appeared earlier under another
  /// labelling (serve_repeat's relabelled copies).
  std::uint64_t relabelled_repeats = 0;
  /// serve_repeat: pool size over the server's cache capacity.
  double pool_per_cache = 0.0;
};
StreamStats stream_stats(const std::string& workload, std::uint64_t seed,
                         std::size_t count);

/// Label -> train chain: stratified run_dataset_factory passes and
/// train_gnn passes on the first kTrainPasses passes' labels.
class LabelTrain {
 public:
  LabelTrain(const RunOptions& opt, SpanRecorder& spans);
  ~LabelTrain();
  LabelTrain(const LabelTrain&) = delete;
  LabelTrain& operator=(const LabelTrain&) = delete;

  void label_pass();
  /// Needs kTrainPasses label passes first.
  void train_pass();
  /// Adds label_per_s, train_samples_per_s and val_mse, checks labelled
  /// records, and (traced) adds the engine, factory, pool, packed and
  /// trainer layer metrics.
  void finish(Report& report);

 private:
  struct State;
  std::unique_ptr<State> s_;
};

inline constexpr int kTrainPasses = 2;

/// Serve chain of workload serve_repeat or serve_unique.
class ServeRun {
 public:
  /// Builds the inputs, then times set-up kSetupRepeats times.
  ServeRun(const RunOptions& opt, SpanRecorder& spans, Report& report);
  ~ServeRun();
  ServeRun(const ServeRun&) = delete;
  ServeRun& operator=(const ServeRun&) = delete;

  void warm();
  void r1_chunk();
  void r2_chunk();
  void closed_chunk();
  /// Times kSetupPerRound set-ups of a second server and client, each
  /// torn down again; the measured server is left as it is.
  void setup_chunk();
  /// Adds setup_s, the latency, closed-loop and ar_mean metrics and
  /// checks every answer; traced, also adds the serve layer metrics, most
  /// of them from a serial replay of the r1 requests.
  void finish(Report& report);

 private:
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace qbench
