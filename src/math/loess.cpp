#include "math/loess.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/singular.hpp"
#include "math/small_solve.hpp"
#include "math/stats.hpp"

namespace rge::math {

namespace {

double tricube(double u) {
  const double a = 1.0 - u * u * u;
  return a <= 0.0 ? 0.0 : a * a * a;
}

double bisquare(double u) {
  const double a = 1.0 - u * u;
  return a <= 0.0 ? 0.0 : a * a;
}

}  // namespace

LoessSmoother::LoessSmoother(LoessConfig cfg) : cfg_(cfg) {
  if (!(cfg_.span > 0.0 && cfg_.span <= 1.0)) {
    throw std::invalid_argument("LoessSmoother: span must be in (0,1]");
  }
  if (cfg_.degree != 1 && cfg_.degree != 2) {
    throw std::invalid_argument("LoessSmoother: degree must be 1 or 2");
  }
  if (cfg_.robust_iterations < 0) {
    throw std::invalid_argument("LoessSmoother: negative robust_iterations");
  }
}

double LoessSmoother::fit_at(std::span<const double> x,
                             std::span<const double> y,
                             std::span<const double> robustness,
                             std::size_t i) const {
  const std::size_t n = x.size();
  const std::size_t k = std::max<std::size_t>(
      static_cast<std::size_t>(cfg_.degree) + 2,
      static_cast<std::size_t>(std::ceil(cfg_.span * static_cast<double>(n))));
  const std::size_t window = std::min(n, k);

  // Slide a window of `window` points so that it contains the nearest
  // neighbours of x[i] (x is sorted, so neighbours are contiguous).
  std::size_t lo = i >= window / 2 ? i - window / 2 : 0;
  if (lo + window > n) lo = n - window;
  // Tighten: shift while the excluded far end is closer than the included.
  while (lo + window < n &&
         x[lo + window] - x[i] < x[i] - x[lo]) {
    ++lo;
  }
  while (lo > 0 && x[i] - x[lo - 1] < x[lo + window - 1] - x[i]) {
    --lo;
  }
  const std::size_t hi = lo + window;  // exclusive

  double max_dist = 0.0;
  for (std::size_t j = lo; j < hi; ++j) {
    max_dist = std::max(max_dist, std::abs(x[j] - x[i]));
  }
  if (max_dist <= 0.0) max_dist = 1.0;

  // Weighted polynomial least squares: build normal equations. The p x p
  // system lives on the stack (p <= 3), so a fit costs no heap allocation
  // (the online detector calls fit_at per smoothing-window sample at
  // 10 Hz). SurveyPins pins its results.
  const int p = cfg_.degree + 1;
  const std::size_t up = static_cast<std::size_t>(p);
  double ata[9] = {};
  double atb[3] = {};
  for (std::size_t j = lo; j < hi; ++j) {
    const double d = std::abs(x[j] - x[i]) / max_dist;
    double w = tricube(d);
    if (!robustness.empty()) w *= robustness[j];
    if (w <= 0.0) continue;
    const double dx = x[j] - x[i];
    double basis[3] = {1.0, dx, dx * dx};
    for (int r = 0; r < p; ++r) {
      for (int c = 0; c < p; ++c) {
        ata[static_cast<std::size_t>(r) * up + static_cast<std::size_t>(c)] +=
            w * basis[r] * basis[c];
      }
      atb[static_cast<std::size_t>(r)] += w * basis[r] * y[j];
    }
  }
  // Ridge fallback: if all weight collapsed on too few points, the normal
  // matrix can be singular; nudge the diagonal.
  for (int r = 0; r < p; ++r) {
    ata[static_cast<std::size_t>(r) * up + static_cast<std::size_t>(r)] +=
        1e-12;
  }
  try {
    double beta[3];
    detail::solve_small(up, ata, atb, beta);
    return beta[0];  // fitted value at dx = 0
  } catch (const SingularMatrixError&) {
    return y[i];
  }
}

std::vector<double> LoessSmoother::fit(std::span<const double> x,
                                       std::span<const double> y) const {
  if (x.size() != y.size()) {
    throw std::invalid_argument("LoessSmoother::fit: size mismatch");
  }
  if (x.size() < 2) {
    return std::vector<double>(y.begin(), y.end());
  }
  for (std::size_t i = 1; i < x.size(); ++i) {
    if (x[i] < x[i - 1]) {
      throw std::invalid_argument("LoessSmoother::fit: x must be sorted");
    }
  }

  const std::size_t n = x.size();
  std::vector<double> robustness;  // empty on the first pass
  std::vector<double> fitted(n, 0.0);
  for (int iter = 0; iter <= cfg_.robust_iterations; ++iter) {
    for (std::size_t i = 0; i < n; ++i) {
      fitted[i] = fit_at(x, y, robustness, i);
    }
    if (iter == cfg_.robust_iterations) break;
    // Bisquare robustness weights from the residual median.
    std::vector<double> abs_res(n);
    for (std::size_t i = 0; i < n; ++i) abs_res[i] = std::abs(y[i] - fitted[i]);
    const double s = median(abs_res);
    robustness.assign(n, 1.0);
    if (s > 0.0) {
      for (std::size_t i = 0; i < n; ++i) {
        robustness[i] = bisquare(abs_res[i] / (6.0 * s));
      }
    }
  }
  return fitted;
}

std::vector<double> LoessSmoother::fit_uniform(
    std::span<const double> y) const {
  std::vector<double> x(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) x[i] = static_cast<double>(i);
  return fit(x, y);
}

}  // namespace rge::math
