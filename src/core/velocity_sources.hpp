// Velocity measurement sources (paper Section III-C3: "vehicle velocity can
// be obtained through different ways such as GPS data, speedometer and
// accelerometer", plus CAN-bus over bluetooth). Each source becomes one
// measurement stream that feeds its own gradient EKF and hence one fusion
// track.
#pragma once

#include <span>
#include <vector>

#include "core/grade_ekf.hpp"
#include "core/lane_change_detector.hpp"
#include "sensors/trace.hpp"

namespace rge::core {

struct VelocitySourceConfig {
  double gps_variance = 0.09;          ///< (0.3 m/s)^2
  double speedometer_variance = 0.16;  ///< (0.4 m/s)^2
  double canbus_variance = 0.01;       ///< (0.1 m/s)^2
  double imu_variance = 1.0;           ///< (1.0 m/s)^2, dead-reckoned
  /// Complementary-filter blend gain pulling the IMU-integrated velocity
  /// toward GPS speed (per second); keeps unbounded drift at bay the way
  /// phone fusion stacks do.
  double imu_gps_blend_per_s = 0.8;
  /// Emission rate of the IMU-derived velocity stream (Hz).
  double imu_emit_rate_hz = 10.0;
};

/// Velocity stream from valid GPS fixes.
std::vector<VelocityMeasurement> velocity_from_gps(
    const sensors::SensorTrace& trace, const VelocitySourceConfig& cfg = {});

/// Velocity stream from the phone speedometer.
std::vector<VelocityMeasurement> velocity_from_speedometer(
    const sensors::SensorTrace& trace, const VelocitySourceConfig& cfg = {});

/// Velocity stream from the CAN-bus (bluetooth OBD).
std::vector<VelocityMeasurement> velocity_from_canbus(
    const sensors::SensorTrace& trace, const VelocitySourceConfig& cfg = {});

/// Dead-reckoned velocity from the accelerometer: integrate the forward
/// specific force (flat-road assumption) with a slow complementary blend
/// toward GPS speed. The noisiest of the four streams.
std::vector<VelocityMeasurement> velocity_from_imu(
    const sensors::SensorTrace& trace, const VelocitySourceConfig& cfg = {});

/// Apply the Eq. 2 lane-change adjustment to an arbitrary measurement
/// stream: inside each detected window, v is scaled by cos(alpha(t)) where
/// alpha is integrated from the steering-rate series (`steer_t`,
/// `w_steer`). The pipeline passes its detection-rate series (det_t and
/// the raw steering rate, 10 Hz by default).
/// @throws std::invalid_argument if steer_t and w_steer differ in size.
std::vector<VelocityMeasurement> apply_lane_change_adjustment(
    std::vector<VelocityMeasurement> measurements,
    std::span<const double> steer_t, std::span<const double> w_steer,
    const std::vector<DetectedLaneChange>& changes);

}  // namespace rge::core
