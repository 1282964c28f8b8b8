#pragma once

// Runtime instruction-set dispatch for the repo's SIMD kernels
// (DESIGN.md §13). One table of per-ISA function pointers (see
// kernels.hpp) is resolved once per process from CPU features, so there
// is exactly one CPUID/dispatch implementation in the repo; every hot
// loop — statevector, QAOA eval engine, GNN inference — selects through
// it.
//
// The selection can be forced two ways, both clamped to what the CPU
// actually supports:
//   - the QGNN_SIMD environment variable ("generic", "avx2", "avx512"),
//     read once when the first kernel is resolved;
//   - set_active_isa(), used by the equivalence tests and the benchmark
//     ISA sweeps to switch within one process.

namespace qgnn::simd {

/// Instruction sets in preference order. Values are stable: they are
/// exported through the kernel.isa gauge.
enum class Isa { kGeneric = 0, kAvx2 = 1, kAvx512 = 2 };

/// True when the running CPU (and this build) can execute kernels for
/// `isa`. kGeneric is always supported.
bool cpu_supports(Isa isa);

/// Highest-preference supported ISA.
Isa best_supported_isa();

/// The ISA kernels currently dispatch to. First call resolves it:
/// best_supported_isa(), clamped down by QGNN_SIMD when set.
Isa active_isa();

/// Force dispatch to `isa` for subsequent kernel lookups. Returns false
/// (and changes nothing) when the CPU or build lacks it. Tests and
/// benchmark sweeps only: kernel function pointers already taken from
/// the accessors keep their old ISA.
bool set_active_isa(Isa isa);

/// "generic", "avx2", or "avx512f".
const char* isa_name(Isa isa);

/// isa_name(active_isa()) — surfaced by serve stats, bench context, and
/// the CLI tools.
const char* active_isa_name();

/// Kernel equivalence-tier switches. The default configuration keeps
/// every kernel on the bit-identical tier (explicit mul/add, no FMA —
/// identical bytes at any ISA). Reduction-shaped kernels (matmul inner
/// products, scatter-add accumulation) additionally have a
/// tolerance-bounded fast tier that contracts multiply-add into FMA;
/// it changes the rounding sequence and must be opted into explicitly.
struct KernelConfig {
  bool fast_reductions = false;
};

/// Current process-wide configuration (default: all bit-identical).
KernelConfig kernel_config();

/// Replace the process-wide configuration. Takes effect on the next
/// kernel accessor call.
void set_kernel_config(const KernelConfig& config);

}  // namespace qgnn::simd
