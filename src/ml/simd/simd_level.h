#ifndef ZOMBIE_ML_SIMD_SIMD_LEVEL_H_
#define ZOMBIE_ML_SIMD_SIMD_LEVEL_H_

namespace zombie {
namespace simd {

// Kept only because perfbench's host line prints
// SimdLevelName(ActiveSimdLevel()); the sparse kernels have one scalar path.
enum class SimdLevel { kScalar };

inline const char* SimdLevelName(SimdLevel) { return "scalar"; }

inline SimdLevel ActiveSimdLevel() { return SimdLevel::kScalar; }

}  // namespace simd
}  // namespace zombie

#endif  // ZOMBIE_ML_SIMD_SIMD_LEVEL_H_
