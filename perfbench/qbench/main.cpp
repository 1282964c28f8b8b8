// qbench: the repository's end-to-end benchmark.
//
//   qbench --workload serve_repeat|serve_unique --seed N --seconds S
//          --trace 0|1 [--work-dir DIR]
//
// Prints a context line, a phase-count line and an all-metrics line,
// then, last, the result line: every end-to-end metric (--trace 0) or
// every per-layer metric (--trace 1). Exits 1 when a correctness check
// fails, 2 on bad usage or an unmeasurable build.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "context.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "qbench: %s\nusage: qbench --workload serve_repeat|serve_unique"
               " --seed N --seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qbench;
  RunOptions opt;
  opt.work_dir = ".bench_build/qbench-work";
  std::string trace = "0";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      trace = value;
    } else if (key == "--work-dir") {
      opt.work_dir = value;
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in pairs");
  if (opt.workload != "serve_repeat" && opt.workload != "serve_unique") {
    return usage("unknown workload");
  }
  if (trace != "0" && trace != "1") return usage("--trace takes 0 or 1");
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  opt.trace = trace == "1";
  const std::string refusal = build_refusal();
  if (!refusal.empty()) return usage(("refusing to measure: " + refusal).c_str());

  try {
    std::filesystem::create_directories(opt.work_dir);
    const RunContext ctx = run_context();
    const ServeRates rates = serve_rates(opt.workload);
    std::printf("%s\n",
                context_json(ctx,
                             "\"workload\":\"" + opt.workload +
                                 "\",\"seed\":" + std::to_string(opt.seed) +
                                 ",\"seconds\":" + number_text(opt.seconds) +
                                 ",\"trace\":" + trace +
                                 ",\"r1_per_s\":" + number_text(rates.r1) +
                                 ",\"r2_per_s\":" + number_text(rates.r2))
                    .c_str());
    std::fflush(stdout);

    Report report;
    SpanRecorder spans(opt.trace);
    ServeRun serve(opt, spans, report);  // set-up first, on a quiet process
    LabelTrain chain(opt, spans);
    for (int p = 0; p < kTrainPasses; ++p) chain.label_pass();
    serve.warm();
    const Plan layout = plan(opt.seconds);
    for (int round = 0; round < layout.rounds; ++round) {
      serve.r1_chunk();
      chain.label_pass();
      serve.r2_chunk();
      chain.train_pass();
      serve.closed_chunk();
      serve.setup_chunk();
    }
    chain.finish(report);
    serve.finish(report);

    if (opt.trace) {
      const std::string path =
          opt.work_dir + "/trace-" + opt.workload + ".json";
      spans.write_chrome_trace(path);
      std::fprintf(stderr, "qbench: wrote %zu spans to %s\n",
                   spans.spans().size(), path.c_str());
    }
    for (const std::string& why : report.check_failures()) {
      std::fprintf(stderr, "qbench: CHECK FAILED: %s\n", why.c_str());
    }
    const std::vector<std::string>& names =
        opt.trace ? per_layer_names() : end_to_end_names();
    for (const std::string& n : names) {
      if (!report.has(n)) throw std::logic_error("metric not measured: " + n);
    }
    std::printf("%s\n", report.phases_json().c_str());
    std::printf("{\"all_metrics\":%s}\n", report.result_json({}).c_str());
    std::printf("%s\n", report.result_json(names).c_str());
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qbench: error: %s\n", e.what());
    return 1;
  }
}
