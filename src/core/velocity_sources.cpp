#include "core/velocity_sources.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rge::core {

std::vector<VelocityMeasurement> velocity_from_gps(
    const sensors::SensorTrace& trace, const VelocitySourceConfig& cfg) {
  std::vector<VelocityMeasurement> out;
  out.reserve(trace.gps.size());
  for (const auto& fix : trace.gps) {
    if (!fix.valid) continue;
    out.push_back(VelocityMeasurement{fix.t, fix.speed_mps, cfg.gps_variance});
  }
  return out;
}

std::vector<VelocityMeasurement> velocity_from_speedometer(
    const sensors::SensorTrace& trace, const VelocitySourceConfig& cfg) {
  std::vector<VelocityMeasurement> out;
  out.reserve(trace.speedometer.size());
  for (const auto& s : trace.speedometer) {
    out.push_back(VelocityMeasurement{s.t, s.value, cfg.speedometer_variance});
  }
  return out;
}

std::vector<VelocityMeasurement> velocity_from_canbus(
    const sensors::SensorTrace& trace, const VelocitySourceConfig& cfg) {
  std::vector<VelocityMeasurement> out;
  out.reserve(trace.canbus_speed.size());
  for (const auto& s : trace.canbus_speed) {
    out.push_back(VelocityMeasurement{s.t, s.value, cfg.canbus_variance});
  }
  return out;
}

std::vector<VelocityMeasurement> velocity_from_imu(
    const sensors::SensorTrace& trace, const VelocitySourceConfig& cfg) {
  std::vector<VelocityMeasurement> out;
  if (trace.imu.empty()) return out;

  // Seed from the first GPS speed if available.
  double v = trace.gps.empty() ? 0.0 : trace.gps.front().speed_mps;
  std::size_t gps_idx = 0;
  double next_emit_t = trace.imu.front().t;
  const double emit_dt = 1.0 / std::max(0.1, cfg.imu_emit_rate_hz);

  double prev_t = trace.imu.front().t;
  for (const auto& s : trace.imu) {
    const double dt = std::max(0.0, s.t - prev_t);
    prev_t = s.t;
    // Flat-road dead reckoning: the gravity component of the specific force
    // is unknown here, which is exactly why this stream drifts on hills.
    v = std::max(0.0, v + s.accel_forward * dt);
    // Complementary blend toward GPS speed.
    while (gps_idx < trace.gps.size() && trace.gps[gps_idx].t <= s.t) {
      if (trace.gps[gps_idx].valid) {
        const double k =
            std::clamp(cfg.imu_gps_blend_per_s * 1.0, 0.0, 1.0);
        v += k * (trace.gps[gps_idx].speed_mps - v);
      }
      ++gps_idx;
    }
    if (s.t >= next_emit_t) {
      next_emit_t += emit_dt;
      out.push_back(VelocityMeasurement{s.t, v, cfg.imu_variance});
    }
  }
  return out;
}

std::vector<VelocityMeasurement> apply_lane_change_adjustment(
    std::vector<VelocityMeasurement> measurements,
    std::span<const double> steer_t, std::span<const double> w_steer,
    const std::vector<DetectedLaneChange>& changes) {
  if (steer_t.size() != w_steer.size()) {
    throw std::invalid_argument(
        "apply_lane_change_adjustment: steering series size mismatch");
  }
  for (const auto& lc : changes) {
    // Integrate alpha over the window on the steering series' timeline.
    const auto begin_it =
        std::lower_bound(steer_t.begin(), steer_t.end(), lc.t_start);
    const auto end_it =
        std::upper_bound(steer_t.begin(), steer_t.end(), lc.t_end);
    const auto i0 = static_cast<std::size_t>(begin_it - steer_t.begin());
    const auto i1 = static_cast<std::size_t>(end_it - steer_t.begin());
    if (i0 >= i1) continue;

    std::vector<double> alpha_t;
    std::vector<double> alpha_v;
    alpha_t.reserve(i1 - i0);
    alpha_v.reserve(i1 - i0);
    double alpha = 0.0;
    for (std::size_t i = i0; i < i1; ++i) {
      const double omega = i > i0 ? steer_t[i] - steer_t[i - 1] : 0.0;
      alpha += w_steer[i] * omega;
      alpha_t.push_back(steer_t[i]);
      alpha_v.push_back(alpha);
    }

    // Scale the measurements inside the window by cos(alpha(t)).
    for (auto& m : measurements) {
      if (m.t < lc.t_start || m.t > lc.t_end) continue;
      const auto it = std::lower_bound(alpha_t.begin(), alpha_t.end(), m.t);
      std::size_t j = static_cast<std::size_t>(it - alpha_t.begin());
      if (j >= alpha_v.size()) j = alpha_v.size() - 1;
      m.v *= std::cos(alpha_v[j]);
    }
  }
  return measurements;
}

}  // namespace rge::core
