// Name of the vector instruction set the build targets, recorded in
// benchmark reports so a measurement says what hardware path it ran on.
// The engine itself has no hand-written SIMD kernels; the name describes
// what the compiler may auto-vectorize for.

#ifndef SXNM_UTIL_SIMD_H_
#define SXNM_UTIL_SIMD_H_

namespace sxnm::util::simd {

/// "sse2", "neon", or "scalar".
inline const char* BackendName() {
#if defined(__SSE2__)
  return "sse2";
#elif defined(__ARM_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

}  // namespace sxnm::util::simd

#endif  // SXNM_UTIL_SIMD_H_
