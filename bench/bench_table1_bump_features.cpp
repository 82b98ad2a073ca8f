// Table I reproduction: extracted bump features of lane-change maneuvers.
//
// The paper runs steering experiments with ten drivers at 15-65 km/h,
// smooths the measured steering rate profiles, and extracts for left/right
// lane changes the positive/negative bump magnitudes (delta) and durations
// above 0.7*delta (T). The detection thresholds are the minima over all
// drivers. We rerun that experiment with ten simulated driver styles and
// gyro-grade measurement noise, print our Table I, and report the
// calibrated thresholds next to the paper's.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.hpp"
#include "core/bump.hpp"
#include "math/loess.hpp"
#include "math/rng.hpp"
#include "vehicle/lane_change.hpp"

namespace {

using namespace rge;

struct DriverFeatures {
  double delta_l_pos = 0.0, delta_l_neg = 0.0;
  double t_l_pos = 0.0, t_l_neg = 0.0;
  double delta_r_pos = 0.0, delta_r_neg = 0.0;
  double t_r_pos = 0.0, t_r_neg = 0.0;
  int count = 0;
};

/// Measure one maneuver through a noisy, smoothed steering-rate profile —
/// the same path the deployed detector sees.
core::ManeuverFeatures measure_noisy(const vehicle::LaneChangeManeuver& m,
                                     math::Rng& rng) {
  const double rate = 10.0;  // detector rate
  const double pad = 2.0;
  std::vector<double> t;
  std::vector<double> w;
  for (double x = -pad; x <= m.duration_s() + pad; x += 1.0 / rate) {
    t.push_back(x);
    w.push_back(m.steering_rate(x) + rng.gaussian(0.0, 0.008));
  }
  math::LoessConfig lo;
  lo.span = 8.0 / static_cast<double>(t.size());
  const math::LoessSmoother smoother(lo);
  const auto smoothed = smoother.fit(t, w);
  return core::measure_maneuver(t, smoothed);
}

}  // namespace

int main() {
  bench::print_header("Table I: extracted bump features of lane changes",
                      "paper Table I (Section III-B1)");

  const int kDrivers = 10;
  const int kManeuversPerDriver = 12;
  vehicle::DriverSteeringStyle style;

  std::vector<DriverFeatures> drivers(kDrivers);
  math::Rng root(2019);

  for (int d = 0; d < kDrivers; ++d) {
    math::Rng rng = root.fork(static_cast<std::uint64_t>(d));
    DriverFeatures& f = drivers[d];
    for (int k = 0; k < kManeuversPerDriver; ++k) {
      // Paper's experiment band: 15-65 km/h.
      const double speed = rng.uniform(15.0, 65.0) / 3.6;
      const double peak = style.sample_peak_rate(rng);
      const bool left = k % 2 == 0;
      const vehicle::LaneChangeManeuver m(
          left ? vehicle::LaneChangeDirection::kLeft
               : vehicle::LaneChangeDirection::kRight,
          peak, speed);
      const auto feats = measure_noisy(m, rng);
      if (!feats.complete) continue;
      if (left) {
        f.delta_l_pos += feats.delta_pos;
        f.delta_l_neg += feats.delta_neg;
        f.t_l_pos += feats.t_pos;
        f.t_l_neg += feats.t_neg;
      } else {
        f.delta_r_pos += feats.delta_pos;
        f.delta_r_neg += feats.delta_neg;
        f.t_r_pos += feats.t_pos;
        f.t_r_neg += feats.t_neg;
      }
      ++f.count;
    }
    const double n = f.count / 2.0;
    f.delta_l_pos /= n;
    f.delta_l_neg /= n;
    f.t_l_pos /= n;
    f.t_l_neg /= n;
    f.delta_r_pos /= n;
    f.delta_r_neg /= n;
    f.t_r_pos /= n;
    f.t_r_neg /= n;
  }

  std::printf("\nper-driver averages (rad/s and seconds):\n");
  std::printf("%-8s %8s %8s %8s %8s %8s %8s %8s %8s\n", "driver", "dL+",
              "dL-", "dR+", "dR-", "TL+", "TL-", "TR+", "TR-");
  DriverFeatures minima;
  minima.delta_l_pos = minima.delta_l_neg = 1e9;
  minima.delta_r_pos = minima.delta_r_neg = 1e9;
  minima.t_l_pos = minima.t_l_neg = 1e9;
  minima.t_r_pos = minima.t_r_neg = 1e9;
  for (int d = 0; d < kDrivers; ++d) {
    const auto& f = drivers[d];
    std::printf("%-8d %8.4f %8.4f %8.4f %8.4f %8.3f %8.3f %8.3f %8.3f\n",
                d + 1, f.delta_l_pos, f.delta_l_neg, f.delta_r_pos,
                f.delta_r_neg, f.t_l_pos, f.t_l_neg, f.t_r_pos, f.t_r_neg);
    minima.delta_l_pos = std::min(minima.delta_l_pos, f.delta_l_pos);
    minima.delta_l_neg = std::min(minima.delta_l_neg, f.delta_l_neg);
    minima.delta_r_pos = std::min(minima.delta_r_pos, f.delta_r_pos);
    minima.delta_r_neg = std::min(minima.delta_r_neg, f.delta_r_neg);
    minima.t_l_pos = std::min(minima.t_l_pos, f.t_l_pos);
    minima.t_l_neg = std::min(minima.t_l_neg, f.t_l_neg);
    minima.t_r_pos = std::min(minima.t_r_pos, f.t_r_pos);
    minima.t_r_neg = std::min(minima.t_r_neg, f.t_r_neg);
  }

  const double delta_min =
      std::min({minima.delta_l_pos, minima.delta_l_neg, minima.delta_r_pos,
                minima.delta_r_neg});
  const double t_min = std::min(
      {minima.t_l_pos, minima.t_l_neg, minima.t_r_pos, minima.t_r_neg});

  std::printf("\nTable I (minima over drivers):\n");
  std::printf("%-22s %10s %10s %10s %10s %12s\n", "", "dL", "dL-", "dR",
              "dR-", "min (rad/s)");
  std::printf("%-22s %10.4f %10.4f %10.4f %10.4f %12.4f\n",
              "delta (ours)", minima.delta_l_pos, minima.delta_l_neg,
              minima.delta_r_pos, minima.delta_r_neg, delta_min);
  std::printf("%-22s %10.4f %10.4f %10.4f %10.4f %12.4f\n",
              "delta (paper)", 0.1215, 0.1445, 0.1723, 0.1167, 0.1167);
  std::printf("%-22s %10.3f %10.3f %10.3f %10.3f %12.3f\n", "T (ours)",
              minima.t_l_pos, minima.t_l_neg, minima.t_r_pos, minima.t_r_neg,
              t_min);
  std::printf("%-22s %10.3f %10.3f %10.3f %10.3f %12.3f\n", "T (paper)",
              1.625, 1.766, 1.383, 2.072, 1.383);

  std::printf(
      "\ncalibrated thresholds (0.95 x minima): delta_min = %.4f rad/s, "
      "T_min = %.3f s\n"
      "library defaults (0.10 rad/s, 0.55 s) keep extra margin below the\n"
      "calibrated minima for driver styles/speeds beyond this experiment.\n",
      0.95 * delta_min, 0.95 * t_min);
  std::printf(
      "note: delta magnitudes match the paper closely; our maneuver family\n"
      "completes lane changes faster at high speed, so T minima land below\n"
      "the paper's 1.383 s — same feature, different driver population.\n");
  return 0;
}
