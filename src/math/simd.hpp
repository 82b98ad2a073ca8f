// Build-level SIMD gate and lane-math helpers for the SoA batch kernels.
//
// The batch layer (the trip kernel run_grade_ekf_trip, the online
// estimator's four-lane predict, resample_sorted) compiles in one of two
// modes, selected by the CMake option RGE_SIMD (default ON):
//
//   RGE_SIMD=ON   Kernel translation units are built with host-tuned
//                 vector flags (-O3 -march=native when available, and
//                 -ffp-contract=off) and the transcendental calls inside
//                 vector loops use the polynomial approximations below,
//                 which auto-vectorize. Batch results then differ from
//                 the scalar reference only by a pinned tolerance (see
//                 DESIGN.md §8): the polynomials are exact to < 1 ulp
//                 over the clamped grade range.
//
//   RGE_SIMD=OFF  Kernels fall back to the scalar code paths (same
//                 expressions, std::sin/std::cos, default flags), making
//                 every batch result bit-identical to the scalar
//                 estimators on any hardware.
//
// The macro RGE_SIMD_ENABLED is set project-wide by the top-level
// CMakeLists so all translation units agree on simd_enabled(); tests use
// it to choose exact-equality vs tolerance assertions.
#pragma once

#include <cmath>

#ifndef RGE_SIMD_ENABLED
#define RGE_SIMD_ENABLED 0
#endif

/// No-alias qualifier for the SoA kernel loops (helps the vectorizer prove
/// the lane arrays are distinct).
#if defined(__GNUC__) || defined(__clang__)
#define RGE_RESTRICT __restrict__
#else
#define RGE_RESTRICT
#endif

namespace rge::math {

/// True when this build's batch kernels run the vectorized code paths
/// (pinned-tolerance parity); false when they run the bit-identical
/// scalar fallback.
inline constexpr bool simd_enabled() { return RGE_SIMD_ENABLED != 0; }

/// Odd polynomial sin, exact to < 1 ulp for |x| <= ~0.6 (the grade filter
/// clamps theta to +/-0.35 rad, so the argument range is tiny). Unlike
/// libm's sin this has no range reduction or table lookups, so GCC can
/// vectorize loops that call it.
inline double poly_sin(double x) {
  // Taylor coefficients through x^13; the first neglected term at
  // |x| = 0.6 is x^15/15! ~ 3.6e-16 relative, below double rounding.
  constexpr double c3 = -1.0 / 6.0;
  constexpr double c5 = 1.0 / 120.0;
  constexpr double c7 = -1.0 / 5040.0;
  constexpr double c9 = 1.0 / 362880.0;
  constexpr double c11 = -1.0 / 39916800.0;
  constexpr double c13 = 1.0 / 6227020800.0;
  const double x2 = x * x;
  double p = c13;
  p = p * x2 + c11;
  p = p * x2 + c9;
  p = p * x2 + c7;
  p = p * x2 + c5;
  p = p * x2 + c3;
  return x + (x * x2) * p;
}

/// Even polynomial cos, exact to < 1 ulp for |x| <= ~0.6 (see poly_sin).
inline double poly_cos(double x) {
  constexpr double c2 = -1.0 / 2.0;
  constexpr double c4 = 1.0 / 24.0;
  constexpr double c6 = -1.0 / 720.0;
  constexpr double c8 = 1.0 / 40320.0;
  constexpr double c10 = -1.0 / 3628800.0;
  constexpr double c12 = 1.0 / 479001600.0;
  constexpr double c14 = -1.0 / 87178291200.0;
  const double x2 = x * x;
  double p = c14;
  p = p * x2 + c12;
  p = p * x2 + c10;
  p = p * x2 + c8;
  p = p * x2 + c6;
  p = p * x2 + c4;
  p = p * x2 + c2;
  return 1.0 + x2 * p;
}

/// sin/cos as used inside batch kernels: the vectorizable polynomial when
/// SIMD is on, libm (bit-identical to the scalar estimators) when off.
#if RGE_SIMD_ENABLED
inline double lane_sin(double x) { return poly_sin(x); }
inline double lane_cos(double x) { return poly_cos(x); }
#else
inline double lane_sin(double x) { return std::sin(x); }
inline double lane_cos(double x) { return std::cos(x); }
#endif

}  // namespace rge::math
