#include <x86intrin.h>

namespace zombie {

// BAD: src/ml/simd/ holds only the scalar sparse kernels; it is no longer an
// exempt home for vendor intrinsics.
double Sum4(const double* v) {
  __m256d lanes = _mm256_loadu_pd(v);
  double out[4];
  _mm256_storeu_pd(out, lanes);
  double s = 0.0;
  s += out[0];
  s += out[1];
  s += out[2];
  s += out[3];
  return s;
}

}  // namespace zombie
