#include "baselines/ekf_altitude.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "math/matn.hpp"

namespace rge::baselines {

using math::MatN;
using math::VecN;

core::GradeTrack run_altitude_ekf(const sensors::SensorTrace& trace,
                                  const vehicle::VehicleParams& params,
                                  const AltitudeEkfConfig& cfg) {
  if (trace.imu.empty()) {
    throw std::invalid_argument("run_altitude_ekf: empty trace");
  }

  const double z0 =
      trace.barometer_alt.empty() ? 0.0 : trace.barometer_alt.front().value;
  const double v0 =
      trace.speedometer.empty() ? 0.0 : trace.speedometer.front().value;

  MatN<3, 3> p0;
  p0(0, 0) = cfg.initial_alt_var;
  p0(1, 1) = cfg.initial_speed_var;
  p0(2, 2) = cfg.initial_grade_var;
  math::EkfN<3> ekf(VecN<3>{{z0, v0, 0.0}}, p0);

  // Measurement models (fixed shapes): the barometer sees z, the
  // speedometer v. Neither update is gated.
  const MatN<1, 3> baro_h{{1.0, 0.0, 0.0}};
  const MatN<1, 1> baro_r{{cfg.baro_variance}};
  const MatN<1, 3> vel_h{{0.0, 1.0, 0.0}};
  const MatN<1, 1> vel_r{{cfg.velocity_variance}};

  core::GradeTrack track;
  track.source = "baseline-ekf-altitude";

  std::size_t baro_idx = 0;
  std::size_t spd_idx = 0;
  double odometry = 0.0;
  const std::size_t decim = std::max<std::size_t>(1, cfg.record_decimation);

  double prev_t = trace.imu.front().t;
  for (std::size_t i = 0; i < trace.imu.size(); ++i) {
    const auto& s = trace.imu[i];
    const double dt = std::max(0.0, s.t - prev_t);
    prev_t = s.t;

    if (dt > 0.0) {
      // f and F at the prior state.
      const double a_hat = s.accel_forward;
      const double g = params.gravity;
      const double z = ekf.state()[0];
      const double v = ekf.state()[1];
      const double theta = ekf.state()[2];
      const VecN<3> x_next{
          {z + v * std::sin(theta) * dt,
           std::max(0.0, v + (a_hat - g * std::sin(theta)) * dt), theta}};
      MatN<3, 3> f_jac = MatN<3, 3>::identity();
      f_jac(0, 1) = std::sin(theta) * dt;
      f_jac(0, 2) = v * std::cos(theta) * dt;
      f_jac(1, 2) = -g * std::cos(theta) * dt;
      MatN<3, 3> q;
      q(0, 0) = cfg.altitude_process_sigma * cfg.altitude_process_sigma * dt;
      q(1, 1) = cfg.accel_sigma * cfg.accel_sigma * dt * dt;
      q(2, 2) = cfg.grade_process_psd * dt;
      ekf.predict(x_next, f_jac, q);
      odometry += ekf.state()[1] * dt;
    }

    while (baro_idx < trace.barometer_alt.size() &&
           trace.barometer_alt[baro_idx].t <= s.t) {
      ekf.update(VecN<1>{{ekf.state()[0]}}, baro_h, baro_r,
                 VecN<1>{{trace.barometer_alt[baro_idx].value}});
      ++baro_idx;
    }
    while (spd_idx < trace.speedometer.size() &&
           trace.speedometer[spd_idx].t <= s.t) {
      ekf.update(VecN<1>{{ekf.state()[1]}}, vel_h, vel_r,
                 VecN<1>{{trace.speedometer[spd_idx].value}});
      ++spd_idx;
    }

    if (i % decim == 0) {
      track.t.push_back(s.t);
      track.grade.push_back(ekf.state()[2]);
      track.grade_var.push_back(ekf.covariance()(2, 2));
      track.speed.push_back(ekf.state()[1]);
      track.s.push_back(odometry);
    }
  }
  return track;
}

}  // namespace rge::baselines
