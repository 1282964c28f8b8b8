// Label -> train chain of every workload: run_dataset_factory on the
// global thread pool, then train_gnn on the first two passes' labels.

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>

#include "dataset/dataset.hpp"
#include "dataset/factory.hpp"
#include "dataset/features.hpp"
#include "dataset/packed.hpp"
#include "gnn/model.hpp"
#include "gnn/trainer.hpp"
#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "qaoa/ansatz.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace qbench {

namespace {

/// One factory pass labels kGraphsPerSize graphs of every n in 2..15:
/// the paper's uniform size mix, stratified so that the work of a pass
/// does not depend on the seed. Degrees are uniform over the valid ones
/// (1..14), depth 1, 500 Nelder-Mead evaluations per graph.
constexpr int kMinNodes = 2;
constexpr int kMaxNodes = 15;
constexpr int kGraphsPerSize = 50;
/// Half of the training set (kTrainPasses passes) is held out.
constexpr double kValidationFraction = 0.5;
/// Training epochs per train pass (paper hyperparameters otherwise).
constexpr int kTrainEpochs = 20;
/// Labelled records re-labelled one by one for the byte-identity check.
constexpr int kCheckedRecords = 6;

qgnn::DatasetGenConfig size_config(std::uint64_t seed, int pass, int n) {
  qgnn::DatasetGenConfig cfg;
  cfg.num_instances = kGraphsPerSize;
  cfg.min_nodes = n;
  cfg.max_nodes = n;
  cfg.seed = qgnn::derive_seed(seed, 1000 + static_cast<std::uint64_t>(pass) * 64 +
                                         static_cast<std::uint64_t>(n));
  return cfg;
}

/// A labelled record with the configuration and index that produced it.
struct Labelled {
  qgnn::DatasetEntry entry;
  qgnn::DatasetGenConfig config;
  std::size_t index = 0;
};

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

std::uint64_t counter(const char* name) {
  return qgnn::obs::MetricsRegistry::global().counter(name).value();
}

bool same_bytes(const qgnn::DatasetEntry& a, const qgnn::DatasetEntry& b) {
  return qgnn::pack_dataset({a}) == qgnn::pack_dataset({b});
}

}  // namespace

struct LabelTrain::State {
  RunOptions opt;
  SpanRecorder* spans = nullptr;
  std::string dir;
  std::vector<Labelled> labels;  // the first kTrainPasses passes
  std::vector<double> pass_rates;
  std::uint64_t labelled = 0;
  double label_time_s = 0.0;
  std::uint64_t idle_us = 0;
  std::uint64_t evals_pass0 = 0;
  std::vector<qgnn::TrainSample> samples;
  std::size_t train_count = 0;
  std::vector<double> train_rates;
  std::vector<double> val_losses;
};

LabelTrain::LabelTrain(const RunOptions& opt, SpanRecorder& spans)
    : s_(std::make_unique<State>()) {
  s_->opt = opt;
  s_->spans = &spans;
  s_->dir = opt.work_dir + "/labels";
  std::filesystem::create_directories(s_->dir);
}

LabelTrain::~LabelTrain() = default;

void LabelTrain::label_pass() {
  State& s = *s_;
  qgnn::ThreadPool& pool = qgnn::ThreadPool::global();
  const int pass = static_cast<int>(s.pass_rates.size());
  const auto before = pool.counters();
  const std::uint64_t evals_before = counter(qgnn::obs::names::kQaoaEvaluations);
  double pass_s = 0.0;
  std::uint64_t pass_graphs = 0;
  for (int n = kMinNodes; n <= kMaxNodes; ++n) {
    const qgnn::DatasetGenConfig cfg = size_config(s.opt.seed, pass, n);
    const std::string path = s.dir + "/pass" + std::to_string(pass) + "-n" +
                             std::to_string(n) + ".qgnnpak";
    const std::int32_t span =
        s.spans->open("factory.run", static_cast<std::uint64_t>(pass), -1);
    const std::int64_t t0 = now_ns();
    qgnn::run_dataset_factory(cfg, qgnn::FactoryConfig{}, path);
    const std::int64_t t1 = now_ns();
    s.spans->close(span);
    pass_s += seconds_between(t0, t1);
    pass_graphs += static_cast<std::uint64_t>(cfg.num_instances);
    if (pass < kTrainPasses) {
      std::vector<qgnn::DatasetEntry> got = qgnn::load_packed_dataset(path);
      for (std::size_t i = 0; i < got.size(); ++i) {
        s.labels.push_back(Labelled{std::move(got[i]), cfg, i});
      }
    }
    std::filesystem::remove(path);
  }
  s.idle_us += pool.counters().worker_idle_us - before.worker_idle_us;
  if (pass == 0) {
    s.evals_pass0 = counter(qgnn::obs::names::kQaoaEvaluations) - evals_before;
  }
  s.pass_rates.push_back(static_cast<double>(pass_graphs) / pass_s);
  s.labelled += pass_graphs;
  s.label_time_s += pass_s;
}

void LabelTrain::train_pass() {
  State& s = *s_;
  QGNN_REQUIRE(static_cast<int>(s.pass_rates.size()) >= kTrainPasses,
               "train_pass before the training set is labelled");
  const qgnn::GnnModelConfig model_config{};
  qgnn::TrainerConfig tc;
  tc.epochs = kTrainEpochs;
  tc.validation_fraction = kValidationFraction;
  if (s.samples.empty()) {
    std::vector<qgnn::DatasetEntry> entries;
    for (const Labelled& l : s.labels) entries.push_back(l.entry);
    s.samples = qgnn::to_train_samples(entries, model_config.features);
    s.train_count = s.samples.size() -
                    static_cast<std::size_t>(tc.validation_fraction *
                                             static_cast<double>(s.samples.size()));
    // Trainer stage histograms cover the train passes only.
    if (s.opt.trace) qgnn::obs::MetricsRegistry::global().reset();
  }
  // Every pass trains the same model from the same seeds: identical work.
  qgnn::Rng init_rng(qgnn::derive_seed(s.opt.seed, 2000));
  qgnn::GnnModel model(model_config, init_rng);
  qgnn::Rng train_rng(qgnn::derive_seed(s.opt.seed, 2001));
  const std::int32_t span =
      s.spans->open("trainer.train", s.train_rates.size(), -1);
  const std::int64_t t0 = now_ns();
  const qgnn::TrainReport tr = qgnn::train_gnn(model, s.samples, tc, train_rng);
  const std::int64_t t1 = now_ns();
  s.spans->close(span);
  s.train_rates.push_back(static_cast<double>(kTrainEpochs) *
                          static_cast<double>(s.train_count) /
                          seconds_between(t0, t1));
  s.val_losses.push_back(tr.final_validation_loss);
}

void LabelTrain::finish(Report& report) {
  State& s = *s_;
  const RunOptions& opt = s.opt;
  SpanRecorder& spans = *s.spans;
  const std::vector<Labelled>& labels = s.labels;
  const auto trains = static_cast<std::uint64_t>(s.train_rates.size());
  report.add_phase(PhaseCount{"label", s.labelled, s.labelled, 0});
  report.add_phase(PhaseCount{"train", trains, trains, 0});
  report.add("label_per_s", median(s.pass_rates), "1/s");
  report.add("train_samples_per_s", median(s.train_rates), "1/s");
  report.add("val_mse", s.val_losses.front(), "rad2");
  for (const double v : s.val_losses) {
    if (std::memcmp(&v, &s.val_losses.front(), sizeof(double)) != 0) {
      report.fail_check("train_gnn is not deterministic: repeated passes "
                        "gave different validation losses");
      break;
    }
  }

  // --- correctness: records equal label_dataset_entry byte for byte ---
  // The checked records are the first of each n in 8..15 (their timings
  // double as factory.item_ms.n*) plus a seeded sample.
  std::map<int, std::size_t> first_of_n;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const int n = labels[i].entry.graph.num_nodes();
    if (n >= 8 && !first_of_n.count(n)) first_of_n[n] = i;
  }
  std::vector<std::size_t> checked;
  if (opt.trace) {
    for (const auto& [n, i] : first_of_n) checked.push_back(i);
  }
  qgnn::Rng pick(qgnn::derive_seed(opt.seed, 3000));
  for (int k = 0; k < kCheckedRecords; ++k) {
    checked.push_back(pick.index(labels.size()));
  }
  std::map<int, double> item_ms;
  for (const std::size_t i : checked) {
    const Labelled& l = labels[i];
    qgnn::DatasetEntry e;
    e.graph = l.entry.graph;
    e.degree = l.entry.degree;
    const std::int32_t span = spans.open("factory.item", i, -1);
    const std::int64_t t0 = now_ns();
    qgnn::label_dataset_entry(l.config, e, l.index);
    const std::int64_t t1 = now_ns();
    spans.close(span);
    const int n = e.graph.num_nodes();
    if (first_of_n.count(n) && first_of_n[n] == i) {
      item_ms[n] = static_cast<double>(t1 - t0) / 1e6;
    }
    if (!same_bytes(e, l.entry)) {
      report.fail_check("labelled record " + std::to_string(l.index) + " of n=" +
                        std::to_string(n) + " differs from label_dataset_entry");
    }
  }

  if (!opt.trace) return;

  // --- per-layer metrics (traced run only) ----------------------------
  double ar_sum = 0.0;
  for (const Labelled& l : labels) ar_sum += l.entry.approximation_ratio;
  report.add("factory.graphs_labeled", static_cast<double>(s.labelled), "count");
  report.add("factory.label_ar_mean",
             ar_sum / static_cast<double>(labels.size()), "ratio");
  for (int n = 8; n <= 15; ++n) {
    report.add("factory.item_ms.n" + std::to_string(n),
               item_ms.count(n) ? item_ms[n] : 0.0, "ms");
  }
  const int lanes = qgnn::ThreadPool::global().size();
  report.add("pool.idle_share",
             lanes > 1 ? static_cast<double>(s.idle_us) / 1e6 /
                             (static_cast<double>(lanes) * s.label_time_s)
                       : 0.0,
             "ratio");
  report.add("engine.evals", static_cast<double>(s.evals_pass0), "count");

  // One engine evaluation at n = 14: the inner loop of labelling.
  {
    qgnn::Rng rng(qgnn::derive_seed(opt.seed, 3001));
    const qgnn::Graph g = qgnn::random_regular_graph(14, 6, rng);
    const qgnn::QaoaAnsatz ansatz(g);
    std::vector<double> us;
    for (int k = 0; k < 50; ++k) {
      const qgnn::QaoaParams p = qgnn::QaoaParams::single(0.1 + 0.01 * k, 0.3);
      const std::int32_t span = spans.open("engine.eval", static_cast<std::uint64_t>(k), -1);
      const std::int64_t t0 = now_ns();
      volatile double v = ansatz.expectation(p);
      (void)v;
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      spans.close(span);
    }
    report.add("engine.eval_us.n14", median(us), "us");
  }

  // Packed write of the training set.
  {
    std::vector<qgnn::DatasetEntry> entries;
    for (const Labelled& l : labels) entries.push_back(l.entry);
    const std::string path = s.dir + "/replay.qgnnpak";
    const std::int32_t span = spans.open("packed.write", 0, -1);
    const std::int64_t t0 = now_ns();
    qgnn::save_packed_dataset(path, entries);
    const std::int64_t t1 = now_ns();
    spans.close(span);
    report.add("packed.write_ms", static_cast<double>(t1 - t0) / 1e6, "ms");
    report.add("packed.bytes",
               static_cast<double>(std::filesystem::file_size(path)), "bytes");
    std::filesystem::remove(path);
  }

  // Trainer stage histograms (per-epoch totals) from the registry.
  const auto snap = qgnn::obs::MetricsRegistry::global().snapshot();
  auto hist_mean = [&](const char* name) {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0.0 : it->second.mean;
  };
  report.add("trainer.epoch_ms", hist_mean(qgnn::obs::names::kTrainEpochUs) / 1e3, "ms");
  report.add("trainer.forward_us", hist_mean(qgnn::obs::names::kTrainForwardUs), "us");
  report.add("trainer.backward_us", hist_mean(qgnn::obs::names::kTrainBackwardUs), "us");
  report.add("trainer.optimizer_us", hist_mean(qgnn::obs::names::kTrainOptimizerUs), "us");
}

}  // namespace qbench
