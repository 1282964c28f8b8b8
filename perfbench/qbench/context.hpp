#pragma once

// Run context printed with every result, and the guard that refuses to
// measure a build whose numbers would mean nothing.

#include <string>

namespace qbench {

struct RunContext {
  int nproc = 1;             // CPUs this process may run on
  std::string isa;           // active SIMD kernel ISA
  std::string num_threads;   // QGNN_NUM_THREADS, or "unset"
  int pool_threads = 1;      // lanes of the global thread pool
  std::string compiler;
  std::string build_type;
};

RunContext run_context();

/// Empty when this build may be measured; otherwise the reason it may
/// not (not a Release build, or built with a sanitizer).
std::string build_refusal();

/// `{"context":{...}}` with the fields above plus `extra`, a list of
/// already-formatted `"key":value` members.
std::string context_json(const RunContext& ctx, const std::string& extra);

}  // namespace qbench
