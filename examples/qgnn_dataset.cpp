// Dataset factory CLI: generate QAOA training labels (one optimization
// per graph, on the global thread pool) and write them as one packed
// binary file (dataset/packed.hpp), with optional checkpoint/resume for
// long runs.
//
// Generate:   qgnn_dataset --out data.qds --count 600 --seed 42
// Resumable:  qgnn_dataset --out data.qds --checkpoint-dir ckpt \
//                 --checkpoint-every 50 [--resume]
// Inspect:    qgnn_dataset --inspect data.qds
//
// Output bytes depend only on the generation flags (count/nodes/degree/
// depth/evals/optimizer/symmetrize/seed) — never on --threads,
// --checkpoint-every, or whether the run was interrupted and resumed.
//
// Exit codes: 0 success, 1 usage/config error (including any flag the
// chosen mode does not read), 2 I/O or data error, 3 stopped early via
// --stop-after-shards (resume to continue).

#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "dataset/factory.hpp"
#include "dataset/packed.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

void print_usage(const char* prog) {
  std::cout
      << "usage: " << prog << " --out FILE [options]\n"
      << "       " << prog << " --inspect FILE\n\n"
      << "generation:\n"
      << "  --count N            instances to label (default 600)\n"
      << "  --min-nodes N        smallest graph (default 2)\n"
      << "  --max-nodes N        largest graph (default 15)\n"
      << "  --depth P            QAOA depth (default 1)\n"
      << "  --evals N            optimizer evaluations per graph (500)\n"
      << "  --optimizer NAME     nelder-mead | adam (default nelder-mead)\n"
      << "  --symmetrize         canonicalize labels into the symmetric cell\n"
      << "  --seed S             master seed (default 42)\n\n"
      << "scheduling (never changes the output bytes):\n"
      << "  --threads N          worker threads (default: hardware)\n"
      << "  --checkpoint-dir D   directory for shards + resume manifest\n"
      << "  --checkpoint-every N records per committed shard (default 50\n"
      << "                       when --checkpoint-dir is set)\n"
      << "  --resume             continue from the manifest in the dir\n"
      << "  --stop-after-shards N  commit N shards then exit 3 (CI hook)\n";
}

/// False (after naming each one on stderr) when the command line holds a
/// flag the program never read: a typo or a retired option must fail the
/// run, not silently fall back to a default.
bool all_flags_read(const qgnn::CliArgs& args) {
  const std::vector<std::string> unread = args.unread();
  if (unread.empty()) return true;
  std::cerr << "error: unknown flag(s):";
  for (const std::string& key : unread) std::cerr << " --" << key;
  std::cerr << "\n";
  return false;
}

int inspect(const std::string& path) {
  qgnn::PackedDatasetReader reader(path);
  const qgnn::PackedDatasetInfo& info = reader.info();
  std::printf("%s: packed dataset v%u\n", path.c_str(), info.version);
  std::printf("  records      %llu\n",
              static_cast<unsigned long long>(info.num_records));
  std::printf("  depth        %d\n", info.depth);
  std::printf("  file bytes   %llu\n",
              static_cast<unsigned long long>(info.file_bytes));
  std::printf("  index crc32  %08x\n", info.index_crc32);
  std::printf("  records crc32 %08x\n", info.records_crc32);
  if (reader.size() == 0) return 0;

  qgnn::RunningStats ar;
  qgnn::RunningStats gamma;
  qgnn::RunningStats beta;
  qgnn::FrequencyTable sizes;
  for (std::size_t i = 0; i < reader.size(); ++i) {
    const qgnn::DatasetEntry e = reader.read(i);
    ar.add(e.approximation_ratio);
    if (!e.label.gammas.empty()) gamma.add(e.label.gammas[0]);
    if (!e.label.betas.empty()) beta.add(e.label.betas[0]);
    sizes.add(e.graph.num_nodes());
  }

  qgnn::Table table({"statistic", "mean", "std", "min", "max"});
  auto row = [&table](const std::string& name,
                      const qgnn::RunningStats& s) {
    table.add_row({name, qgnn::format_double(s.mean(), 3),
                   qgnn::format_double(s.stddev(), 3),
                   qgnn::format_double(s.min(), 3),
                   qgnn::format_double(s.max(), 3)});
  };
  row("label approximation ratio", ar);
  row("label gamma", gamma);
  row("label beta", beta);
  std::printf("\n");
  table.print(std::cout);

  std::printf("\ngraph sizes: ");
  for (const auto& [k, c] : sizes.counts()) {
    std::printf("%d:%llu ", k, static_cast<unsigned long long>(c));
  }
  std::printf("\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qgnn;
  const CliArgs args(argc, argv);

  if (args.has("help")) {
    print_usage(argv[0]);
    return 0;
  }

  try {
    if (args.has("inspect")) {
      const std::string path = args.get("inspect", "");
      if (!all_flags_read(args)) return 1;
      return inspect(path);
    }

    const std::string out = args.get("out", "");
    if (out.empty()) {
      print_usage(argv[0]);
      return 1;
    }

    DatasetGenConfig config;
    config.num_instances = args.get_int("count", config.num_instances);
    config.min_nodes = args.get_int("min-nodes", config.min_nodes);
    config.max_nodes = args.get_int("max-nodes", config.max_nodes);
    config.depth = args.get_int("depth", config.depth);
    config.optimizer_evaluations =
        args.get_int("evals", config.optimizer_evaluations);
    config.symmetrize_labels =
        args.get_bool("symmetrize", config.symmetrize_labels);
    config.seed =
        static_cast<std::uint64_t>(args.get_int("seed", 42));
    const std::string opt = args.get("optimizer", "nelder-mead");
    if (opt == "nelder-mead") {
      config.optimizer = QaoaOptimizer::kNelderMead;
    } else if (opt == "adam") {
      config.optimizer = QaoaOptimizer::kAdam;
    } else {
      std::cerr << "unknown --optimizer '" << opt << "'\n";
      return 1;
    }

    FactoryConfig factory;
    factory.checkpoint_dir = args.get("checkpoint-dir", "");
    factory.checkpoint_every = args.get_int(
        "checkpoint-every", factory.checkpoint_dir.empty() ? 0 : 50);
    factory.resume = args.get_bool("resume", false);
    factory.stop_after_shards = args.get_int("stop-after-shards", 0);

    const int threads = args.get_int("threads", 0);
    if (threads > 0) ThreadPool::set_global_threads(threads);

    int last_percent = -1;
    const bool quiet = args.get_bool("quiet", false);
    if (!all_flags_read(args)) return 1;

    ProgressFn progress = [&](int done, int total) {
      const int percent = total > 0 ? done * 100 / total : 100;
      if (!quiet && percent != last_percent) {
        last_percent = percent;
        std::cerr << "\rlabelled " << done << "/" << total << " (" << percent
                  << "%)" << std::flush;
      }
    };

    const bool finished = run_dataset_factory(config, factory, out, progress);
    if (!quiet && last_percent >= 0) std::cerr << "\n";
    if (!finished) {
      std::cerr << "stopped after " << factory.stop_after_shards
                << " shard(s); rerun with --resume to continue\n";
      return 3;
    }
    std::cerr << "wrote " << out << "\n";
    return 0;
  } catch (const InvalidArgument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
