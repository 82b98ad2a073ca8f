// Trip kernel: one trip's velocity-source EKFs stepped in lockstep as the
// lanes of one loop over their shared IMU timeline (DESIGN.md §8).
//
// Under RGE_SIMD=ON this translation unit is compiled with the host-tuned
// kernel flags plus -ffp-contract=off (see src/core/CMakeLists.txt). The
// polynomial sin/cos and hoisted reciprocals of the predict are then all
// that separates it from the libm path: the update, odometry and record
// arithmetic stay exact, and no FMA contraction makes the bits depend on
// the host's FMA support.
#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/grade_ekf.hpp"
#include "core/grade_ekf_kernel.hpp"

namespace rge::core {

std::vector<GradeTrack> run_grade_ekf_trip(
    std::span<const double> t, std::span<const double> accel_forward,
    std::span<const SourceStream> sources,
    const vehicle::VehicleParams& params, const GradeEkfConfig& cfg) {
  if (t.size() != accel_forward.size()) {
    throw std::invalid_argument("run_grade_ekf_trip: size mismatch");
  }
  if (sources.size() > kTripKernelLanes) {
    throw std::invalid_argument("run_grade_ekf_trip: more than " +
                                std::to_string(kTripKernelLanes) +
                                " sources");
  }
  const std::size_t n_src = sources.size();
  std::vector<GradeTrack> tracks(n_src);
  for (std::size_t j = 0; j < n_src; ++j) {
    tracks[j].source = std::string(sources[j].name);
  }
  const std::size_t n = t.size();
  if (n == 0) return tracks;

  const std::size_t decim = std::max<std::size_t>(1, cfg.record_decimation);
  const std::size_t records = (n + decim - 1) / decim;
  for (GradeTrack& tr : tracks) {
    tr.t.reserve(records);
    tr.grade.reserve(records);
    tr.grade_var.reserve(records);
    tr.speed.reserve(records);
    tr.s.reserve(records);
  }

  // Source j in lane j, seeded like GradeEkf(params, cfg, v0, 0.0). Unused
  // lanes hold zeros, which the predict masks off and nothing reads.
  constexpr std::size_t kLanes = kTripKernelLanes;
  static_assert(kLanes == ekf_kernel::kLanes);
  alignas(32) double v[kLanes] = {};
  alignas(32) double th[kLanes] = {};
  alignas(32) double p00[kLanes] = {};
  alignas(32) double p01[kLanes] = {};
  alignas(32) double p11[kLanes] = {};
  alignas(32) double on[kLanes] = {};
  double odometry[kLanes] = {};
  std::size_t next[kLanes] = {};
  for (std::size_t j = 0; j < n_src; ++j) {
    const auto& meas = sources[j].measurements;
    v[j] = meas.empty() ? 0.0 : meas.front().v;
    p00[j] = cfg.initial_speed_var;
    p11[j] = cfg.initial_grade_var;
    on[j] = 1.0;
  }
  const auto lane = [&](std::size_t j) {
    return ekf_kernel::StateRef{v[j], th[j], p00[j], p01[j], p11[j]};
  };

  // rho * A_f * C_d / m  (Eq. 4 coefficient; drag_k = rho*A_f*C_d/2)
  const double c = 2.0 * params.drag_k() / params.mass_kg;
  const ekf_kernel::SimdPredictConsts k{params.gravity,
                                        1.0 / params.gravity,
                                        c,
                                        cfg.use_paper_drift_term ? 1.0 : 0.0,
                                        cfg.accel_sigma,
                                        cfg.grade_process_psd};

  for (std::size_t i = 0; i < n; ++i) {
    const double dt = i > 0 ? t[i] - t[i - 1] : 0.0;
    if (dt > 0.0) {
      ekf_kernel::predict_lanes(v, th, p00, p01, p11, on, accel_forward[i], dt,
                                k);
      for (std::size_t j = 0; j < kLanes; ++j) odometry[j] += v[j] * dt;
    }
    for (std::size_t j = 0; j < n_src; ++j) {
      const auto& meas = sources[j].measurements;
      while (next[j] < meas.size() && meas[next[j]].t <= t[i]) {
        ekf_kernel::update_velocity(lane(j), meas[next[j]].v,
                                    meas[next[j]].variance, cfg.gate_nis);
        ++next[j];
      }
    }
    if (i % decim == 0) {
      for (std::size_t j = 0; j < n_src; ++j) {
        GradeTrack& tr = tracks[j];
        tr.t.push_back(t[i]);
        tr.grade.push_back(th[j]);
        tr.grade_var.push_back(p11[j]);
        tr.speed.push_back(v[j]);
        tr.s.push_back(odometry[j]);
      }
    }
  }
  return tracks;
}

GradeTrack run_grade_ekf(const std::string& source_name,
                         std::span<const double> t,
                         std::span<const double> accel_forward,
                         const std::vector<VelocityMeasurement>& measurements,
                         const vehicle::VehicleParams& params,
                         const GradeEkfConfig& cfg) {
  const SourceStream source{source_name, measurements};
  return std::move(
      run_grade_ekf_trip(t, accel_forward, {&source, 1}, params, cfg)
          .front());
}

}  // namespace rge::core
