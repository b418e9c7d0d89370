#include <x86intrin.h>

namespace zombie {

// BAD: raw intrinsics in src/ml/ — no cpuid gate guards this code path and
// no per-TU ISA flag scopes the codegen.
double FastDot(const double* a, const double* b) {
  __m256d va = _mm256_loadu_pd(a);
  __m256d vb = _mm256_loadu_pd(b);
  __m256d prod = _mm256_mul_pd(va, vb);
  double out[4];
  _mm256_storeu_pd(out, prod);
  return out[0] + out[1] + out[2] + out[3];
}

}  // namespace zombie
