#include "quantum/statevector.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/names.hpp"
#include "simd/kernels.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace qgnn {

namespace {

/// Registry handles cached once; kernels run thousands of times per
/// optimization and must not take the registry mutex per call.
obs::Counter& amps_touched_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter(obs::names::kQuantumAmpsTouched);
  return c;
}

obs::LatencyHistogram& kernel_histogram() {
  static obs::LatencyHistogram& h =
      obs::MetricsRegistry::global().histogram(obs::names::kQuantumKernelUs);
  return h;
}

/// States at or above this dimension run their kernels on the global
/// thread pool; smaller states stay serial because the per-job wakeup
/// cost exceeds the loop itself. 2^14 amplitudes (~256 KiB) is where the
/// crossover sits on commodity cores.
constexpr std::uint64_t kParallelDim = std::uint64_t{1} << 14;

/// Elements per chunk. Large enough that a chunk amortizes scheduling,
/// small enough that 4-8 lanes stay busy at the threshold dimension.
constexpr std::uint64_t kGrain = std::uint64_t{1} << 12;

/// Run body(lo, hi) over [0, dim), parallel above the threshold.
/// Elementwise bodies produce bit-identical amplitudes at any lane count.
template <typename Body>
void for_each_index(std::uint64_t dim, const Body& body) {
  const bool obs_on = obs::enabled();
  if (obs_on) amps_touched_counter().add(dim);
  if (dim >= kParallelDim) {
    // Only the pool-dispatched kernels are worth a clock read: serial
    // kernels below the threshold finish in a few microseconds each.
    obs::ScopedTimer timer(obs_on ? &kernel_histogram() : nullptr);
    ThreadPool::global().parallel_for(0, dim, kGrain, body);
  } else {
    body(0, dim);
  }
}

/// Chunked sum of chunk_sum(lo, hi) over [0, dim). Below the threshold the
/// range is a single serial chunk; above it, parallel_reduce combines the
/// fixed-boundary partials in chunk order — either way the result for a
/// given dimension is bit-identical at any lane count.
template <typename T, typename ChunkFn>
T reduce_index(std::uint64_t dim, T zero, const ChunkFn& chunk_sum) {
  const bool obs_on = obs::enabled();
  if (obs_on) amps_touched_counter().add(dim);
  if (dim >= kParallelDim) {
    obs::ScopedTimer timer(obs_on ? &kernel_histogram() : nullptr);
    return ThreadPool::global().parallel_reduce(0, dim, kGrain, zero,
                                                chunk_sum);
  }
  return chunk_sum(0, dim);
}

}  // namespace

StateVector::StateVector(int num_qubits) : num_qubits_(num_qubits) {
  QGNN_REQUIRE(num_qubits >= 1 && num_qubits <= kMaxQubits,
               "qubit count out of supported range [1, kMaxQubits]");
  amps_.assign(std::size_t{1} << num_qubits, Amplitude{0.0, 0.0});
  amps_[0] = Amplitude{1.0, 0.0};
}

StateVector StateVector::plus_state(int num_qubits) {
  StateVector s(num_qubits);
  s.set_plus_state();
  return s;
}

void StateVector::set_plus_state() {
  set_uniform(1.0 / std::sqrt(static_cast<double>(dimension())));
}

void StateVector::set_uniform(double amp) {
  for_each_index(dimension(), [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t k = lo; k < hi; ++k) amps_[k] = Amplitude{amp, 0.0};
  });
}

StateVector StateVector::basis_state(int num_qubits, std::uint64_t index) {
  StateVector s(num_qubits);
  QGNN_REQUIRE(index < s.dimension(), "basis state index out of range");
  s.amps_[0] = Amplitude{0.0, 0.0};
  s.amps_[index] = Amplitude{1.0, 0.0};
  return s;
}

void StateVector::check_qubit(int q) const {
  QGNN_REQUIRE(q >= 0 && q < num_qubits_, "qubit index out of range");
}

const Amplitude& StateVector::amplitude(std::uint64_t index) const {
  QGNN_REQUIRE(index < dimension(), "amplitude index out of range");
  return amps_[index];
}

void StateVector::apply_single_qubit(const std::array<Amplitude, 4>& m,
                                     int target) {
  check_qubit(target);
  const std::uint64_t bit = std::uint64_t{1} << target;
  // Each pair is owned by the chunk containing its low index; the high
  // index is skipped wherever it falls, so chunks never share a pair.
  for_each_index(dimension(), [&](std::uint64_t lo, std::uint64_t hi_end) {
    for (std::uint64_t base = lo; base < hi_end; ++base) {
      if (base & bit) continue;  // visit each |..0..>, |..1..> pair once
      const std::uint64_t hi = base | bit;
      const Amplitude a0 = amps_[base];
      const Amplitude a1 = amps_[hi];
      amps_[base] = m[0] * a0 + m[1] * a1;
      amps_[hi] = m[2] * a0 + m[3] * a1;
    }
  });
}

void StateVector::apply_controlled(const std::array<Amplitude, 4>& m,
                                   int control, int target) {
  check_qubit(control);
  check_qubit(target);
  QGNN_REQUIRE(control != target, "control equals target");
  const std::uint64_t cbit = std::uint64_t{1} << control;
  const std::uint64_t tbit = std::uint64_t{1} << target;
  for_each_index(dimension(), [&](std::uint64_t lo, std::uint64_t hi_end) {
    for (std::uint64_t base = lo; base < hi_end; ++base) {
      if ((base & tbit) || !(base & cbit)) continue;
      const std::uint64_t hi = base | tbit;
      const Amplitude a0 = amps_[base];
      const Amplitude a1 = amps_[hi];
      amps_[base] = m[0] * a0 + m[1] * a1;
      amps_[hi] = m[2] * a0 + m[3] * a1;
    }
  });
}

void StateVector::apply_rzz(double theta, int a, int b) {
  check_qubit(a);
  check_qubit(b);
  QGNN_REQUIRE(a != b, "rzz needs distinct qubits");
  const std::uint64_t abit = std::uint64_t{1} << a;
  const std::uint64_t bbit = std::uint64_t{1} << b;
  // exp(-i theta/2) on even parity, exp(+i theta/2) on odd parity.
  const Amplitude even{std::cos(theta / 2.0), -std::sin(theta / 2.0)};
  const Amplitude odd{std::cos(theta / 2.0), std::sin(theta / 2.0)};
  for_each_index(dimension(), [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t k = lo; k < hi; ++k) {
      const bool parity = ((k & abit) != 0) != ((k & bbit) != 0);
      amps_[k] *= parity ? odd : even;
    }
  });
}

void StateVector::apply_diagonal_phase(std::span<const double> diag,
                                       double gamma) {
  QGNN_REQUIRE(diag.size() == dimension(),
               "diagonal length must equal state dimension");
  for_each_index(dimension(), [&](std::uint64_t lo, std::uint64_t hi) {
    for (std::uint64_t k = lo; k < hi; ++k) {
      const double phi = -gamma * diag[k];
      amps_[k] *= Amplitude{std::cos(phi), std::sin(phi)};
    }
  });
}

void StateVector::apply_phase_table(std::span<const std::uint16_t> index,
                                    std::span<const Amplitude> table) {
  QGNN_REQUIRE(index.size() == dimension(),
               "phase-table index length must equal state dimension");
  // Dispatched per-chunk kernel; std::complex<double> arrays are
  // array-oriented-access compatible with interleaved doubles.
  const auto kernel = simd::phase_table();
  auto* amps = reinterpret_cast<double*>(amps_.data());
  const auto* tab = reinterpret_cast<const double*>(table.data());
  for_each_index(dimension(), [&](std::uint64_t lo, std::uint64_t hi) {
    kernel(amps, index.data(), tab, lo, hi);
  });
}

void StateVector::apply_rx_layer(double theta) {
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  const std::uint64_t dim = dimension();
  // RX = [[c, -is], [-is, c]] on the pair (lo, hi):
  //   lo' = c*lo - i*s*hi,  hi' = -i*s*lo + c*hi
  // expanded into 4 real multiply-adds per amplitude component inside the
  // dispatched kernels (simd/kernels_impl.hpp holds the scalar reference).
  // The operand order matches what the generic complex 2x2 path computes
  // for this matrix, so the fused kernel agrees with n apply_single_qubit
  // calls to the last ulp (equivalence is fuzz-tested at 1e-12 regardless).
  const auto block_kernel = simd::rx_block();
  const auto pairs_kernel = simd::rx_pairs();
  auto* amps = reinterpret_cast<double*>(amps_.data());

  const bool obs_on = obs::enabled();
  if (obs_on) {
    amps_touched_counter().add(dim *
                               static_cast<std::uint64_t>(num_qubits_));
  }
  obs::ScopedTimer timer(
      obs_on && dim >= kParallelDim ? &kernel_histogram() : nullptr);

  // Qubits below kRxBlockQubits pair up inside a 2^kRxBlockQubits-amplitude
  // block (64 KiB), so one memory sweep applies all of them while the block
  // stays cache-resident. Blocks are disjoint, so the block loop
  // parallelizes with bit-identical results at any lane count.
  constexpr int kRxBlockQubits = 12;
  const int nb = std::min(num_qubits_, kRxBlockQubits);
  const std::uint64_t bsize = std::uint64_t{1} << nb;
  const std::uint64_t nblocks = dim >> nb;
  auto block_body = [&](std::uint64_t blo, std::uint64_t bhi) {
    for (std::uint64_t b = blo; b < bhi; ++b) {
      block_kernel(amps + 2 * b * bsize, nb, c, s);
    }
  };
  if (dim >= kParallelDim) {
    ThreadPool::global().parallel_for(0, nblocks, 1, block_body);
  } else {
    block_body(0, nblocks);
  }

  // Qubits at or above the block size pair across blocks: one strided,
  // branch-free pass each (at most n - kRxBlockQubits of them). A chunk
  // [lo, hi) of pair indices decomposes into maximal runs of consecutive
  // low addresses (all sharing one high-side offset), each handed to the
  // pair kernel as a contiguous span.
  for (int q = nb; q < num_qubits_; ++q) {
    const std::uint64_t bit = std::uint64_t{1} << q;
    auto body = [&](std::uint64_t lo, std::uint64_t hi) {
      std::uint64_t i = lo;
      while (i < hi) {
        const std::uint64_t base =
            ((i >> q) << (q + 1)) | (i & (bit - 1));
        const std::uint64_t run =
            std::min(hi - i, bit - (i & (bit - 1)));
        pairs_kernel(amps + 2 * base, amps + 2 * (base | bit), run, c, s);
        i += run;
      }
    };
    if (dim >= kParallelDim) {
      ThreadPool::global().parallel_for(0, dim >> 1, kGrain, body);
    } else {
      body(0, dim >> 1);
    }
  }
}

void StateVector::apply_rx_mirror(double theta) {
  // Same c, s as apply_rx_layer, so each pair gets the full state's
  // top-qubit update on mirrored operands.
  const double c = std::cos(theta / 2.0);
  const double s = std::sin(theta / 2.0);
  const std::uint64_t dim = dimension();
  const auto kernel = simd::rx_mirror();
  auto* amps = reinterpret_cast<double*>(amps_.data());
  const bool obs_on = obs::enabled();
  if (obs_on) amps_touched_counter().add(dim);
  auto body = [&](std::uint64_t lo, std::uint64_t hi) {
    kernel(amps, dim, lo, hi, c, s);
  };
  if (dim >= kParallelDim) {
    obs::ScopedTimer timer(obs_on ? &kernel_histogram() : nullptr);
    ThreadPool::global().parallel_for(0, dim >> 1, kGrain, body);
  } else {
    body(0, dim >> 1);
  }
}

double StateVector::expectation_diagonal_mirrored(
    std::span<const double> diag) const {
  QGNN_REQUIRE(diag.size() == dimension(),
               "half diagonal length must equal state dimension");
  const std::uint64_t half = dimension();
  const std::uint64_t full = half << 1;
  // Full-state index k >= half reads amplitude full - 1 - k; its diagonal
  // entry equals diag[full - 1 - k] by symmetry, so the terms are the
  // full state's terms exactly.
  auto term = [&](std::uint64_t j) { return std::norm(amps_[j]) * diag[j]; };
  const bool obs_on = obs::enabled();
  if (obs_on) amps_touched_counter().add(half);
  if (full < kParallelDim) {
    // reduce_index's serial chain over k = 0 .. full-1.
    double acc = 0.0;
    for (std::uint64_t j = 0; j < half; ++j) acc += term(j);
    for (std::uint64_t j = half; j-- > 0;) acc += term(j);
    return acc;
  }
  // reduce_index's chunking of the full range: chunk c (< chunks / 2)
  // sums its amplitudes ascending, mirror chunk chunks-1-c sums the same
  // amplitudes descending, and the partials combine in chunk order.
  obs::ScopedTimer timer(obs_on ? &kernel_histogram() : nullptr);
  const std::uint64_t chunks = full / kGrain;
  std::vector<double> partial(chunks, 0.0);
  ThreadPool::global().parallel_for(
      0, chunks >> 1, 1, [&](std::uint64_t cb, std::uint64_t ce) {
        for (std::uint64_t c = cb; c < ce; ++c) {
          const std::uint64_t lo = c * kGrain;
          double up = 0.0;
          double down = 0.0;
          for (std::uint64_t t = 0; t < kGrain; ++t) {
            up += term(lo + t);
            down += term(lo + kGrain - 1 - t);
          }
          partial[c] = up;
          partial[chunks - 1 - c] = down;
        }
      });
  double acc = 0.0;
  for (const double p : partial) acc += p;
  return acc;
}

void StateVector::assign_scaled(const StateVector& src,
                                std::span<const double> scale) {
  QGNN_REQUIRE(num_qubits_ == src.num_qubits_,
               "assign_scaled needs same-size states");
  QGNN_REQUIRE(scale.size() == dimension(),
               "scale length must equal state dimension");
  const auto kernel = simd::scaled_assign();
  auto* dst = reinterpret_cast<double*>(amps_.data());
  const auto* in = reinterpret_cast<const double*>(src.amps_.data());
  for_each_index(dimension(), [&](std::uint64_t lo, std::uint64_t hi) {
    kernel(dst, in, scale.data(), lo, hi);
  });
}

double StateVector::phase_grad_overlap(const StateVector& phi,
                                       std::span<const double> diag) const {
  QGNN_REQUIRE(num_qubits_ == phi.num_qubits_,
               "phase_grad_overlap needs same-size states");
  QGNN_REQUIRE(diag.size() == dimension(),
               "diagonal length must equal state dimension");
  return 2.0 * reduce_index(dimension(), 0.0,
                            [&](std::uint64_t lo, std::uint64_t hi) {
                              double acc = 0.0;
                              for (std::uint64_t k = lo; k < hi; ++k) {
                                const Amplitude p = phi.amps_[k];
                                const Amplitude a = amps_[k];
                                acc += diag[k] * (p.real() * a.imag() -
                                                  p.imag() * a.real());
                              }
                              return acc;
                            });
}

double StateVector::mixer_grad_overlap(const StateVector& phi) const {
  QGNN_REQUIRE(num_qubits_ == phi.num_qubits_,
               "mixer_grad_overlap needs same-size states");
  // <phi|B|psi> = sum_q sum_pairs conj(phi_k) psi_{k^bit} +
  //                              conj(phi_{k^bit}) psi_k, summed per qubit
  // in a stride-friendly pair sweep; qubit partials combine serially so the
  // result is bit-identical at any lane count.
  double total = 0.0;
  for (int q = 0; q < num_qubits_; ++q) {
    const std::uint64_t bit = std::uint64_t{1} << q;
    total += reduce_index(
        dimension() >> 1, 0.0, [&](std::uint64_t lo, std::uint64_t hi) {
          double acc = 0.0;
          for (std::uint64_t i = lo; i < hi; ++i) {
            const std::uint64_t base =
                ((i >> q) << (q + 1)) | (i & (bit - 1));
            const Amplitude pl = phi.amps_[base];
            const Amplitude ph = phi.amps_[base | bit];
            const Amplitude al = amps_[base];
            const Amplitude ah = amps_[base | bit];
            // Im(conj(pl)*ah + conj(ph)*al)
            acc += pl.real() * ah.imag() - pl.imag() * ah.real() +
                   ph.real() * al.imag() - ph.imag() * al.real();
          }
          return acc;
        });
  }
  return 2.0 * total;
}

double StateVector::probability(std::uint64_t index) const {
  QGNN_REQUIRE(index < dimension(), "basis state index out of range");
  return std::norm(amps_[index]);
}

double StateVector::expectation_diagonal(std::span<const double> diag) const {
  QGNN_REQUIRE(diag.size() == dimension(),
               "diagonal length must equal state dimension");
  return reduce_index(dimension(), 0.0,
                      [&](std::uint64_t lo, std::uint64_t hi) {
                        double acc = 0.0;
                        for (std::uint64_t k = lo; k < hi; ++k) {
                          acc += std::norm(amps_[k]) * diag[k];
                        }
                        return acc;
                      });
}

double StateVector::expectation_z(int qubit) const {
  check_qubit(qubit);
  const std::uint64_t bit = std::uint64_t{1} << qubit;
  return reduce_index(dimension(), 0.0,
                      [&](std::uint64_t lo, std::uint64_t hi) {
                        double acc = 0.0;
                        for (std::uint64_t k = lo; k < hi; ++k) {
                          const double p = std::norm(amps_[k]);
                          acc += (k & bit) ? -p : p;
                        }
                        return acc;
                      });
}

std::uint64_t StateVector::sample(Rng& rng) const {
  double r = rng.uniform();
  const std::uint64_t dim = dimension();
  for (std::uint64_t k = 0; k < dim; ++k) {
    r -= std::norm(amps_[k]);
    if (r <= 0.0) return k;
  }
  return dim - 1;  // guard against rounding
}

std::map<std::uint64_t, std::size_t> StateVector::sample_counts(
    Rng& rng, std::size_t shots) const {
  std::map<std::uint64_t, std::size_t> counts;
  for (std::size_t s = 0; s < shots; ++s) ++counts[sample(rng)];
  return counts;
}

double StateVector::norm() const {
  const double acc =
      reduce_index(dimension(), 0.0,
                   [&](std::uint64_t lo, std::uint64_t hi) {
                     double sum = 0.0;
                     for (std::uint64_t k = lo; k < hi; ++k) {
                       sum += std::norm(amps_[k]);
                     }
                     return sum;
                   });
  return std::sqrt(acc);
}

Amplitude StateVector::inner_product(const StateVector& other) const {
  QGNN_REQUIRE(num_qubits_ == other.num_qubits_,
               "inner product of different-size states");
  return reduce_index(dimension(), Amplitude{0.0, 0.0},
                      [&](std::uint64_t lo, std::uint64_t hi) {
                        Amplitude acc{0.0, 0.0};
                        for (std::uint64_t k = lo; k < hi; ++k) {
                          acc += std::conj(amps_[k]) * other.amps_[k];
                        }
                        return acc;
                      });
}

double StateVector::fidelity(const StateVector& other) const {
  return std::norm(inner_product(other));
}

}  // namespace qgnn
