// Allocation-free LU solve for tiny (n <= 4) row-major systems.
//
// LU with partial pivoting, forward substitution on the permuted rhs, back
// substitution. Used by the LOESS normal-equation solves, which run per
// output point on the estimator hot path; SurveyPins pins its results
// through the pipeline's smoothed steering series.
#pragma once

#include <cmath>
#include <cstddef>
#include <utility>

#include "math/singular.hpp"

namespace rge::math::detail {

inline constexpr std::size_t kMaxSmallSolve = 4;

/// LU-factor an n x n row-major `a` in place (partial pivoting; L unit
/// diagonal below, U on/above), recording the row permutation. Throws
/// SingularMatrixError when no pivot above 1e-300 remains.
inline void lu_small(std::size_t n, double* a, std::size_t* perm) {
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    double best = std::abs(a[col * n + col]);
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a[r * n + col]) > best) {
        best = std::abs(a[r * n + col]);
        pivot = r;
      }
    }
    if (best < 1e-300) {
      throw SingularMatrixError("lu_small: singular matrix");
    }
    if (pivot != col) {
      for (std::size_t j = 0; j < n; ++j) {
        std::swap(a[col * n + j], a[pivot * n + j]);
      }
      std::swap(perm[col], perm[pivot]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] / a[col * n + col];
      a[r * n + col] = f;
      for (std::size_t j = col + 1; j < n; ++j) {
        a[r * n + j] -= f * a[col * n + j];
      }
    }
  }
}

/// Solve a*x = b for an n x n row-major `a` (n <= kMaxSmallSolve). `a` is
/// destroyed (overwritten with its LU factors). Throws SingularMatrixError
/// like lu_small.
inline void solve_small(std::size_t n, double* a, const double* b, double* x) {
  std::size_t perm[kMaxSmallSolve];
  lu_small(n, a, perm);
  // Forward substitution on permuted rhs (L has unit diagonal).
  double y[kMaxSmallSolve];
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[perm[i]];
    for (std::size_t j = 0; j < i; ++j) acc -= a[i * n + j] * y[j];
    y[i] = acc;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= a[ii * n + j] * x[j];
    x[ii] = acc / a[ii * n + ii];
  }
}

}  // namespace rge::math::detail
