// Exponential-moving-average gain shared by the offline alignment
// (core/alignment.cpp) and the streaming estimator.
#pragma once

#include <cmath>
#include <limits>

namespace rge::math {

/// EMA gain 1 - exp(-dt / tau), recomputed only when dt changes: IMU
/// steps are nearly always equal, so almost every sample reuses the last
/// gain (bit-identical, same expression).
struct EmaGain {
  double tau;
  double dt = std::numeric_limits<double>::quiet_NaN();
  double gain = 0.0;

  double operator()(double step) {
    if (step != dt) {
      dt = step;
      gain = 1.0 - std::exp(-step / tau);
    }
    return gain;
  }
};

}  // namespace rge::math
