// The scalar reference of the trip kernel, shared by its parity test
// (test_grade_ekf_trip.cpp) and its perf ratio (test_batch_kernels_perf.cpp):
// one trip's EKF-stage inputs, and GradeEkf stepped over one source of
// them in run_grade_ekf's order.
#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/grade_ekf.hpp"
#include "core/pipeline.hpp"
#include "core/velocity_sources.hpp"
#include "sensors/trace.hpp"
#include "vehicle/params.hpp"

namespace rge::core {

/// The EKF-stage inputs of one trip: its aligned IMU timeline and forward
/// specific force, and the Eq. 2-adjusted stream of every source that has
/// measurements, in the pipeline's source order.
struct TripInputs {
  std::vector<double> t;
  std::vector<double> f;
  std::vector<std::string> names;
  std::vector<std::vector<VelocityMeasurement>> meas;

  std::vector<SourceStream> streams() const {
    std::vector<SourceStream> out;
    for (std::size_t j = 0; j < names.size(); ++j) {
      out.push_back({names[j], meas[j]});
    }
    return out;
  }
};

/// Runs the pipeline on `trace` for its alignment and lane changes, and
/// builds the four velocity streams from the trace as the pipeline does.
inline TripInputs trip_inputs(const sensors::SensorTrace& trace,
                              const vehicle::VehicleParams& params) {
  const PipelineResult r = estimate_gradient(trace, params);
  TripInputs in;
  in.t = r.aligned.t;
  in.f = r.aligned.accel_forward;
  const std::pair<const char*, std::vector<VelocityMeasurement>> sources[] = {
      {"gps", velocity_from_gps(trace)},
      {"speedometer", velocity_from_speedometer(trace)},
      {"canbus", velocity_from_canbus(trace)},
      {"imu", velocity_from_imu(trace)}};
  for (const auto& [name, meas] : sources) {
    if (meas.empty()) continue;
    in.names.emplace_back(name);
    in.meas.push_back(apply_lane_change_adjustment(
        meas, r.det_t, r.det_steer_raw, r.lane_changes));
  }
  return in;
}

/// GradeEkf over source j of `in` in run_grade_ekf's step order:
/// predict, odometry, updates, record.
inline GradeTrack reference_track(const TripInputs& in, std::size_t j,
                                  const vehicle::VehicleParams& params,
                                  const GradeEkfConfig& cfg) {
  GradeTrack tr;
  tr.source = in.names[j];
  const auto& meas = in.meas[j];
  GradeEkf ekf(params, cfg, meas.empty() ? 0.0 : meas.front().v, 0.0);
  std::size_t m = 0;
  double odometry = 0.0;
  const std::size_t decim = std::max<std::size_t>(1, cfg.record_decimation);
  for (std::size_t i = 0; i < in.t.size(); ++i) {
    const double dt = i > 0 ? in.t[i] - in.t[i - 1] : 0.0;
    if (dt > 0.0) {
      ekf.predict(in.f[i], dt);
      odometry += ekf.speed() * dt;
    }
    while (m < meas.size() && meas[m].t <= in.t[i]) {
      ekf.update_velocity(meas[m].v, meas[m].variance);
      ++m;
    }
    if (i % decim == 0) {
      tr.t.push_back(in.t[i]);
      tr.grade.push_back(ekf.grade());
      tr.grade_var.push_back(ekf.grade_variance());
      tr.speed.push_back(ekf.speed());
      tr.s.push_back(odometry);
    }
  }
  return tr;
}

}  // namespace rge::core
