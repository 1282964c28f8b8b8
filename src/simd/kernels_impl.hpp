#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

// Shared scalar bodies for the SIMD kernel variants. The generic
// translation unit calls them directly; every wide variant applies the
// same per-element expressions in the same order, so the only
// difference between variants is the register width of the arithmetic.
// The scalar bodies double as the wide kernels' tail fallback, so a
// partially vectorized range still follows the exact reference
// rounding sequence.

namespace qgnn::simd::impl {

/// Scalar phase-table body for the interleaved layout: amplitude k
/// (amps[2k], amps[2k+1]) times the unit phase table[lev[k]]:
///   re' = re * tr - im * ti,  im' = re * ti + im * tr.
inline void phase_run_scalar(double* amps, const std::uint16_t* lev,
                             const double* table, std::uint64_t lo,
                             std::uint64_t hi) {
  for (std::uint64_t k = lo; k < hi; ++k) {
    const double tr = table[2 * static_cast<std::uint64_t>(lev[k])];
    const double ti = table[2 * static_cast<std::uint64_t>(lev[k]) + 1];
    const double re = amps[2 * k];
    const double im = amps[2 * k + 1];
    amps[2 * k] = re * tr - im * ti;
    amps[2 * k + 1] = re * ti + im * tr;
  }
}

/// Scalar RX pair run for the interleaved layout. Expressions match
/// StateVector's historical pair_update exactly.
inline void rx_pairs_scalar(double* lo, double* hi, std::uint64_t count,
                            double c, double s) {
  for (std::uint64_t x = 0; x < count; ++x) {
    const double lr = lo[2 * x];
    const double li = lo[2 * x + 1];
    const double hr = hi[2 * x];
    const double hm = hi[2 * x + 1];
    lo[2 * x] = c * lr + s * hm;
    lo[2 * x + 1] = c * li - s * hr;
    hi[2 * x] = c * hr + s * li;
    hi[2 * x + 1] = c * hm - s * lr;
  }
}

/// Scalar RX mirror body: pairs (x, len - 1 - x) for x in [lo, hi),
/// each updated exactly like one rx_pairs_scalar element.
inline void rx_mirror_scalar(double* amps, std::uint64_t len,
                             std::uint64_t lo, std::uint64_t hi, double c,
                             double s) {
  for (std::uint64_t x = lo; x < hi; ++x) {
    rx_pairs_scalar(amps + 2 * x, amps + 2 * (len - 1 - x), 1, c, s);
  }
}

/// Scalar RX block body: qubits 0..nq-1, ascending, over one
/// 2^nq-amplitude interleaved block.
inline void rx_block_scalar(double* amps, int nq, double c, double s) {
  const std::uint64_t bsize = std::uint64_t{1} << nq;
  for (int q = 0; q < nq; ++q) {
    const std::uint64_t bit = std::uint64_t{1} << q;
    for (std::uint64_t g0 = 0; g0 < bsize; g0 += bit << 1) {
      rx_pairs_scalar(amps + 2 * g0, amps + 2 * (g0 + bit), bit, c, s);
    }
  }
}

/// Scalar scaled-assign body: complex amps[k] = scale[k] * src[k]
/// (matching double * std::complex<double>: both components scaled).
inline void scaled_assign_scalar(double* amps, const double* src,
                                 const double* scale, std::uint64_t lo,
                                 std::uint64_t hi) {
  for (std::uint64_t k = lo; k < hi; ++k) {
    amps[2 * k] = scale[k] * src[2 * k];
    amps[2 * k + 1] = scale[k] * src[2 * k + 1];
  }
}

// --- Dense row kernels ----------------------------------------------

inline void axpy_scalar(double* y, const double* x, double a,
                        std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) y[j] += a * x[j];
}

inline void vadd_scalar(double* y, const double* x, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) y[j] += x[j];
}

inline void scale_store_scalar(double* y, const double* x, double a,
                               std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) y[j] = x[j] * a;
}

/// Matmul tile sizes shared by every variant: the j tile keeps a strip
/// of `out` and `b` rows L1-resident while the k tile walks down `b`.
/// Tiling is pure scheduling — for every (i, j) the k contributions
/// accumulate in ascending order — so the tile sizes never change the
/// bytes.
inline constexpr std::size_t kMatmulTileJ = 256;
inline constexpr std::size_t kMatmulTileK = 64;

/// Cache-blocked i-k-j scalar matmul body (out += a * b). The inner j
/// loop is unit-stride and branch-free: on the dense blocks the GNN
/// produces, a sparsity test costs more than the multiplies it skips.
inline void matmul_scalar(double* out, const double* a, const double* b,
                          std::size_t m, std::size_t kdim, std::size_t n) {
  for (std::size_t j0 = 0; j0 < n; j0 += kMatmulTileJ) {
    const std::size_t j1 = std::min(n, j0 + kMatmulTileJ);
    for (std::size_t k0 = 0; k0 < kdim; k0 += kMatmulTileK) {
      const std::size_t k1 = std::min(kdim, k0 + kMatmulTileK);
      for (std::size_t i = 0; i < m; ++i) {
        const double* arow = a + i * kdim;
        double* orow = out + i * n;
        for (std::size_t k = k0; k < k1; ++k) {
          const double av = arow[k];
          const double* brow = b + k * n;
          for (std::size_t j = j0; j < j1; ++j) orow[j] += av * brow[j];
        }
      }
    }
  }
}

}  // namespace qgnn::simd::impl
