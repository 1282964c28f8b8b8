#include "context.hpp"

#include <sched.h>

#include <cstdlib>

#include "simd/dispatch.hpp"
#include "util/thread_pool.hpp"

#ifndef QBENCH_BUILD_TYPE
#define QBENCH_BUILD_TYPE ""
#endif
#ifndef QBENCH_SANITIZE
#define QBENCH_SANITIZE ""
#endif
#ifndef QBENCH_COMPILER
#define QBENCH_COMPILER "unknown"
#endif

namespace qbench {

RunContext run_context() {
  RunContext ctx;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    ctx.nproc = CPU_COUNT(&set);
  }
  ctx.isa = qgnn::simd::active_isa_name();
  const char* env = std::getenv("QGNN_NUM_THREADS");
  ctx.num_threads = env ? env : "unset";
  ctx.pool_threads = qgnn::ThreadPool::global().size();
  ctx.compiler = QBENCH_COMPILER;
  ctx.build_type = QBENCH_BUILD_TYPE;
  return ctx;
}

std::string build_refusal() {
  const std::string build_type = QBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    return "build type is '" + build_type + "', not Release";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG not defined)";
#endif
  const std::string sanitize = QBENCH_SANITIZE;
  if (!sanitize.empty()) return "built with -fsanitize=" + sanitize;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "built with a sanitizer";
#endif
  return "";
}

std::string context_json(const RunContext& ctx, const std::string& extra) {
  std::string out = "{\"context\":{\"nproc\":" + std::to_string(ctx.nproc) +
                    ",\"isa\":\"" + ctx.isa + "\",\"QGNN_NUM_THREADS\":\"" +
                    ctx.num_threads + "\",\"pool_threads\":" +
                    std::to_string(ctx.pool_threads) + ",\"compiler\":\"" +
                    ctx.compiler + "\",\"build_type\":\"" + ctx.build_type +
                    "\"";
  if (!extra.empty()) out += "," + extra;
  out += "}}";
  return out;
}

}  // namespace qbench
