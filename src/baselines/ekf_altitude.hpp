// Baseline: altitude-based EKF road grade estimation in the style of
// Sahlholm & Johansson [7] ("EKF" in the paper's evaluation).
//
// State x = [z, v, theta]: altitude, longitudinal velocity, road gradient.
// Process:
//   z'     = z + v sin(theta) dt
//   v'     = v + (a_hat - g sin(theta)) dt
//   theta' = theta                   (random walk)
// Measurements: barometer altitude (poor: metres of noise and drift [19])
// and velocity. The driving torque is reconstructed from velocity and
// acceleration with the flat-road force balance, exactly as the paper's
// evaluation section describes ("we directly calculate the driving torque
// with vehicle velocity, acceleration and vehicle mass ... to avoid the
// measurement of active gear and engine torque"); the gravity component of
// the accelerometer is modelled in the v channel.
//
// The barometer's error floor is what limits this method — reproducing the
// paper's finding that OPS beats it.
#pragma once

#include <cstddef>

#include "core/grade_ekf.hpp"  // GradeTrack
#include "sensors/trace.hpp"
#include "vehicle/params.hpp"

namespace rge::baselines {

struct AltitudeEkfConfig {
  double accel_sigma = 0.12;        ///< process noise on v (m/s^2)
  double grade_process_psd = 3e-4;  ///< rad^2/s random walk on theta
  double altitude_process_sigma = 0.05;  ///< extra altitude process noise
  double baro_variance = 9.0;       ///< R for barometer altitude (m^2)
  double velocity_variance = 0.1;   ///< R for the velocity measurement
  double initial_alt_var = 25.0;
  double initial_speed_var = 4.0;
  double initial_grade_var = 0.01;
  std::size_t record_decimation = 5;
};

/// Run the altitude-EKF baseline over a sensor trace. Velocity comes from
/// the phone speedometer (as in the paper's experiments); acceleration from
/// the accelerometer with the gravity component *not* separable (this
/// baseline does not model the tilt leak — one of its handicaps).
core::GradeTrack run_altitude_ekf(const sensors::SensorTrace& trace,
                                  const vehicle::VehicleParams& params,
                                  const AltitudeEkfConfig& cfg = {});

}  // namespace rge::baselines
