namespace zombie {

double KernelDot(const double* a, const double* b, unsigned long n);

// Kernels are plain scalar functions — no intrinsics, no <*intrin.h>
// include.
double Score(const double* a, const double* b, unsigned long n) {
  return KernelDot(a, b, n);
}

}  // namespace zombie
