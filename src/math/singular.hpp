// Error type of the small dense solvers (MatN::inverse, detail::solve_small
// and the grade-EKF kernel's innovation inverse).
#pragma once

#include <stdexcept>
#include <string>

namespace rge::math {

/// Thrown when an inversion or factorization meets a (numerically)
/// singular matrix.
class SingularMatrixError : public std::runtime_error {
 public:
  explicit SingularMatrixError(const std::string& what)
      : std::runtime_error(what) {}
};

}  // namespace rge::math
