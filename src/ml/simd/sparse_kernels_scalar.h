#ifndef ZOMBIE_ML_SIMD_SPARSE_KERNELS_SCALAR_H_
#define ZOMBIE_ML_SIMD_SPARSE_KERNELS_SCALAR_H_

#include <cstddef>
#include <cstdint>

// Scalar sparse kernels, the one implementation of each, called directly by
// the sparse_vector.h wrappers. Any rewrite must perform the same FP
// additions with the same operands in the same order (see the contract
// comment in sparse_vector.h); tests/ml_simd_kernels_test.cc checks the
// sparse·sparse dot bit for bit against a classic three-way merge.

namespace zombie {
namespace simd {

/// Dense-side dot. Caller has already clamped `n` so every indices[i] is in
/// range of `dense` (the sorted-indices lower_bound cutoff in the wrapper).
inline double ScalarDotSparseDense(const uint32_t* indices,
                                   const double* values, size_t n,
                                   const double* dense) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += values[i] * dense[indices[i]];
  }
  return sum;
}

/// Run-skipping sparse·sparse merge. Requires na > 0 and nb > 0 (the
/// wrapper returns 0.0 for empty operands).
///
/// Only matches touch the accumulator (matches arrive in the same
/// ascending-index order as a classic three-way merge, so the FP addition
/// sequence is unchanged), while mismatch runs burn through a tight scan
/// loop whose only work is one compare + increment. On vector pairs the
/// branch predictor has not seen before — the production case — this is
/// ~1.6x faster than the three-way merge, whose per-element branch outcomes
/// are data-random. (Single-pair microbenchmarks hide that: repeating one
/// pair lets the predictor memorize the whole merge sequence, which
/// flatters the branchy form. bench_micro therefore cycles a pool of
/// pairs.) A cmov-style conditional-increment merge is ~2x slower either
/// way: it serializes the load→compare→advance chain.
inline double ScalarDotSparseSparse(const uint32_t* ai, const double* av,
                                    size_t na, const uint32_t* bi,
                                    const double* bv, size_t nb) {
  double sum = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (true) {
    const uint32_t b = bi[j];
    while (ai[i] < b) {
      if (++i == na) return sum;
    }
    const uint32_t a = ai[i];
    while (bi[j] < a) {
      if (++j == nb) return sum;
    }
    if (bi[j] == a) {
      sum += av[i] * bv[j];
      if (++i == na || ++j == nb) return sum;
    }
  }
}

}  // namespace simd
}  // namespace zombie

#endif  // ZOMBIE_ML_SIMD_SPARSE_KERNELS_SCALAR_H_
