#include "core/alignment.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/angles.hpp"
#include "math/ema_gain.hpp"

namespace rge::core {

namespace {

/// Mark spike samples and linearly interpolate across them.
void excise_spikes(std::vector<double>& xs, const std::vector<double>& t,
                   double magnitude_thr, double slew_thr,
                   std::size_t guard) {
  const std::size_t n = xs.size();
  if (n < 3) return;
  std::vector<bool> bad(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (std::abs(xs[i]) > magnitude_thr) bad[i] = true;
    if (i > 0) {
      const double dt = std::max(1e-6, t[i] - t[i - 1]);
      if (std::abs(xs[i] - xs[i - 1]) / dt > slew_thr) {
        bad[i] = true;
        bad[i - 1] = true;
      }
    }
  }
  // Expand by the guard margin.
  std::vector<bool> expanded = bad;
  for (std::size_t i = 0; i < n; ++i) {
    if (!bad[i]) continue;
    const std::size_t lo = i >= guard ? i - guard : 0;
    const std::size_t hi = std::min(n - 1, i + guard);
    for (std::size_t j = lo; j <= hi; ++j) expanded[j] = true;
  }
  // Interpolate across bad runs using the nearest good neighbours.
  std::size_t i = 0;
  while (i < n) {
    if (!expanded[i]) {
      ++i;
      continue;
    }
    std::size_t run_end = i;
    while (run_end < n && expanded[run_end]) ++run_end;
    const bool has_left = i > 0;
    const bool has_right = run_end < n;
    const double left = has_left ? xs[i - 1] : (has_right ? xs[run_end] : 0.0);
    const double right = has_right ? xs[run_end] : left;
    const double t0 = has_left ? t[i - 1] : t[i];
    const double t1 = has_right ? t[run_end] : t[run_end - 1];
    for (std::size_t j = i; j < run_end; ++j) {
      const double frac =
          t1 > t0 ? std::clamp((t[j] - t0) / (t1 - t0), 0.0, 1.0) : 0.0;
      xs[j] = left * (1.0 - frac) + right * frac;
    }
    i = run_end;
  }
}

}  // namespace

AlignedStates align_states(const sensors::SensorTrace& trace,
                           const AlignmentConfig& config) {
  if (trace.imu.empty()) {
    throw std::invalid_argument("align_states: trace has no IMU samples");
  }

  const std::size_t n = trace.imu.size();
  AlignedStates out;
  out.t.reserve(n);
  out.yaw_rate.reserve(n);
  out.accel_forward.reserve(n);
  for (const auto& s : trace.imu) {
    out.t.push_back(s.t);
    out.yaw_rate.push_back(s.gyro_z);
    out.accel_forward.push_back(s.accel_forward);
  }

  // ---- Relative-movement transient removal [14] ---------------------
  if (config.remove_spikes) {
    excise_spikes(out.yaw_rate, out.t, config.spike_threshold,
                  config.spike_slew_threshold, config.spike_guard_samples);
    excise_spikes(out.accel_forward, out.t, 8.0, 60.0,
                  config.spike_guard_samples);
  }

  // ---- Road direction change rate from GPS geography -----------------
  out.road_rate.assign(n, 0.0);
  out.gps_available.assign(n, false);

  std::size_t fix_idx = 0;
  bool have_prev_fix = false;
  double prev_heading = 0.0;
  double prev_fix_t = -1e9;
  double target_rate = 0.0;
  double last_rate_update_t = -1e9;
  double road_rate_state = 0.0;
  double gyro_slow = 0.0;  // long-horizon gyro average (outage fallback)
  math::EmaGain slow_gain{std::max(0.1, config.outage_gyro_tau_s)};
  math::EmaGain road_gain{config.road_rate_tau_s};

  for (std::size_t i = 0; i < n; ++i) {
    const double ti = out.t[i];
    // Consume GPS fixes up to this time.
    while (fix_idx < trace.gps.size() && trace.gps[fix_idx].t <= ti) {
      const auto& fix = trace.gps[fix_idx];
      ++fix_idx;
      if (!fix.valid) {
        have_prev_fix = false;
        continue;
      }
      if (have_prev_fix && fix.t - prev_fix_t <= 3.0 &&
          fix.t > prev_fix_t) {
        target_rate = math::angle_diff(fix.heading_rad, prev_heading) /
                      (fix.t - prev_fix_t);
        last_rate_update_t = fix.t;
      }
      prev_heading = fix.heading_rad;
      prev_fix_t = fix.t;
      have_prev_fix = true;
    }

    const bool fresh = ti - last_rate_update_t < 3.0;
    out.gps_available[i] = ti - prev_fix_t < 2.0 && have_prev_fix;
    const double dt = i > 0 ? std::max(1e-6, out.t[i] - out.t[i - 1])
                            : 1.0 / std::max(1.0, trace.imu_rate_hz);
    gyro_slow += slow_gain(dt) * (out.yaw_rate[i] - gyro_slow);
    const double target =
        fresh ? target_rate
              : (config.outage_gyro_fallback ? gyro_slow : 0.0);
    road_rate_state += road_gain(dt) * (target - road_rate_state);
    out.road_rate[i] = road_rate_state;
  }

  // ---- Steering rate + slow gyro bias removal ------------------------
  out.steer_rate.assign(n, 0.0);
  double bias = 0.0;
  math::EmaGain bias_gain{config.bias_tau_s};
  for (std::size_t i = 0; i < n; ++i) {
    const double raw = out.yaw_rate[i] - out.road_rate[i];
    if (config.remove_bias) {
      const double dt = i > 0 ? std::max(1e-6, out.t[i] - out.t[i - 1])
                              : 1.0 / std::max(1.0, trace.imu_rate_hz);
      // Only learn the bias while the residual is small (not steering).
      if (std::abs(raw - bias) < 0.08) bias += bias_gain(dt) * (raw - bias);
      out.steer_rate[i] = raw - bias;
    } else {
      out.steer_rate[i] = raw;
    }
  }

  return out;
}

}  // namespace rge::core
