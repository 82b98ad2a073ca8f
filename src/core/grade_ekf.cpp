#include "core/grade_ekf.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "core/grade_ekf_kernel.hpp"
#include "math/matn.hpp"

namespace rge::core {

using math::MatN;
using math::VecN;

namespace {

constexpr double kMaxGradeRad = ekf_kernel::kMaxGradeRad;

}  // namespace

void GradeTrack::validate() const {
  const auto fail = [this](const char* what) {
    throw std::logic_error("GradeTrack[" + source + "]: " + what);
  };
  const std::size_t n = t.size();
  if (grade.size() != n || grade_var.size() != n || speed.size() != n ||
      s.size() != n) {
    fail("parallel arrays disagree in size");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!std::isfinite(t[i]) || !std::isfinite(grade[i]) ||
        !std::isfinite(grade_var[i]) || !std::isfinite(speed[i]) ||
        !std::isfinite(s[i])) {
      fail("non-finite sample");
    }
    if (grade_var[i] < 0.0) fail("negative grade variance");
    if (i > 0 && t[i] < t[i - 1]) fail("t not non-decreasing");
    if (i > 0 && s[i] < s[i - 1]) fail("s not non-decreasing");
  }
}

GradeEkf::GradeEkf(const vehicle::VehicleParams& params,
                   const GradeEkfConfig& cfg, double initial_speed,
                   double initial_grade)
    : params_(params),
      cfg_(cfg),
      v_(initial_speed),
      th_(initial_grade),
      p00_(cfg.initial_speed_var),
      p01_(0.0),
      p11_(cfg.initial_grade_var) {}

// The arithmetic lives in grade_ekf_kernel.hpp (shared with the SoA batch
// filter); it is the EkfN<2> computation unrolled for this 2-state model
// in the same association order (see the hpp note). The scalar filter
// always uses libm sin/cos regardless of RGE_SIMD.

void GradeEkf::predict(double specific_force, double dt) {
  ekf_kernel::StateRef s{v_, th_, p00_, p01_, p11_};
  // rho * A_f * C_d / m  (Eq. 4 coefficient; drag_k = rho*A_f*C_d/2)
  const double c = 2.0 * params_.drag_k() / params_.mass_kg;
  ekf_kernel::predict(
      s, specific_force, dt, params_.gravity, c, cfg_.use_paper_drift_term,
      cfg_.accel_sigma, cfg_.grade_process_psd,
      [](double x) { return std::sin(x); },
      [](double x) { return std::cos(x); });
}

bool GradeEkf::update_velocity(double v_meas, double variance) {
  ekf_kernel::StateRef s{v_, th_, p00_, p01_, p11_};
  return ekf_kernel::update_velocity(s, v_meas, variance, cfg_.gate_nis);
}

GradeTrack run_grade_rts(const std::string& source_name,
                         std::span<const double> t,
                         std::span<const double> accel_forward,
                         const std::vector<VelocityMeasurement>& measurements,
                         const vehicle::VehicleParams& params,
                         const GradeEkfConfig& cfg, double rts_rate_hz) {
  if (t.size() != accel_forward.size()) {
    throw std::invalid_argument("run_grade_rts: size mismatch");
  }
  if (rts_rate_hz <= 0.0) {
    throw std::invalid_argument("run_grade_rts: bad rate");
  }
  GradeTrack track;
  track.source = source_name;
  if (t.empty()) return track;

  // ---- Block-average the specific force onto the smoothing grid. ----
  const double dt = 1.0 / rts_rate_hz;
  std::vector<double> grid_t;
  std::vector<double> grid_f;
  {
    double next = t.front() + dt;
    double acc = 0.0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < t.size(); ++i) {
      acc += accel_forward[i];
      ++count;
      if (t[i] >= next || i + 1 == t.size()) {
        grid_t.push_back(t[i]);
        grid_f.push_back(acc / static_cast<double>(count));
        acc = 0.0;
        count = 0;
        next = t[i] + dt;
      }
    }
  }
  const std::size_t n = grid_t.size();
  if (n < 2) return track;

  // ---- Forward EKF pass, recording what the backward sweep needs. ----
  // Fixed-size (stack) state math: EkfN<2>/MatN<2,2> run the step loop
  // with zero heap traffic. test_matn pins their arithmetic; the
  // rts_offline golden scenario bounds the smoothed track's error.
  const double g = params.gravity;
  const double c = 2.0 * params.drag_k() / params.mass_kg;
  const bool drift = cfg.use_paper_drift_term;

  const double v0 = measurements.empty() ? 0.0 : measurements.front().v;
  MatN<2, 2> p0;
  p0(0, 0) = cfg.initial_speed_var;
  p0(1, 1) = cfg.initial_grade_var;
  math::EkfN<2> ekf(VecN<2>{{v0, 0.0}}, p0);

  MatN<1, 2> vel_h;
  vel_h(0, 0) = 1.0;

  std::vector<VecN<2>> x_filt(n);
  std::vector<MatN<2, 2>> p_filt(n);
  std::vector<VecN<2>> x_pred(n);  // prediction *into* step k
  std::vector<MatN<2, 2>> p_pred(n);
  std::vector<MatN<2, 2>> f_jacs(n);  // Jacobian used for k-1 -> k

  std::size_t m_idx = 0;
  for (std::size_t k = 0; k < n; ++k) {
    if (k > 0) {
      const double step = grid_t[k] - grid_t[k - 1];
      const double f_hat = grid_f[k];
      const double v = ekf.state()[0];
      const double theta = ekf.state()[1];
      const double cth = std::cos(theta);
      MatN<2, 2> j = MatN<2, 2>::identity();
      j(0, 1) = -g * cth * step;
      if (drift) {
        j(1, 0) = c * f_hat * step / (g * cth);
        j(1, 1) =
            1.0 + c * v * f_hat * step * std::sin(theta) / (g * cth * cth);
      }
      double v_next = std::max(0.0, v + (f_hat - g * std::sin(theta)) * step);
      double theta_next = theta;
      if (drift) theta_next += c * v * f_hat * step / (g * std::cos(theta));
      theta_next = std::clamp(theta_next, -kMaxGradeRad, kMaxGradeRad);
      const double qv = cfg.accel_sigma * cfg.accel_sigma * step * step;
      MatN<2, 2> q;
      q(0, 0) = qv;
      q(1, 1) = cfg.grade_process_psd * step;
      f_jacs[k] = j;
      ekf.predict(VecN<2>{{v_next, theta_next}}, j, q);
    } else {
      f_jacs[k] = MatN<2, 2>::identity();
    }
    x_pred[k] = ekf.state();
    p_pred[k] = ekf.covariance();
    while (m_idx < measurements.size() && measurements[m_idx].t <= grid_t[k]) {
      MatN<1, 1> r;
      r(0, 0) = measurements[m_idx].variance;
      ekf.update(VecN<1>{{ekf.state()[0]}}, vel_h, r,
                 VecN<1>{{measurements[m_idx].v}}, cfg.gate_nis);
      ++m_idx;
    }
    x_filt[k] = ekf.state();
    p_filt[k] = ekf.covariance();
  }

  // ---- Backward RTS sweep. ----
  std::vector<VecN<2>> x_smooth(n);
  std::vector<MatN<2, 2>> p_smooth(n);
  x_smooth[n - 1] = x_filt[n - 1];
  p_smooth[n - 1] = p_filt[n - 1];
  for (std::size_t k = n - 1; k-- > 0;) {
    // Gain C_k = P_f[k] F_{k+1}^T P_pred[k+1]^{-1}.
    MatN<2, 2> gain;
    try {
      gain = p_filt[k] * f_jacs[k + 1].transpose() * p_pred[k + 1].inverse();
    } catch (const math::SingularMatrixError&) {
      x_smooth[k] = x_filt[k];
      p_smooth[k] = p_filt[k];
      continue;
    }
    x_smooth[k] = x_filt[k] + gain * (x_smooth[k + 1] - x_pred[k + 1]);
    MatN<2, 2> p = p_filt[k] +
                   gain * (p_smooth[k + 1] - p_pred[k + 1]) * gain.transpose();
    p.symmetrize();
    // Guard against numerical loss of positive-definiteness.
    if (p(0, 0) <= 0.0 || p(1, 1) <= 0.0) p = p_filt[k];
    p_smooth[k] = p;
  }

  // ---- Emit. ----
  double odometry = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    if (k > 0) {
      odometry += std::max(0.0, x_smooth[k][0]) * (grid_t[k] - grid_t[k - 1]);
    }
    track.t.push_back(grid_t[k]);
    track.grade.push_back(std::clamp(x_smooth[k][1], -kMaxGradeRad,
                                     kMaxGradeRad));
    track.grade_var.push_back(std::max(1e-10, p_smooth[k](1, 1)));
    track.speed.push_back(std::max(0.0, x_smooth[k][0]));
    track.s.push_back(odometry);
  }
  return track;
}

GradeTrack run_grade_ekf_with_baro(
    const std::string& source_name, std::span<const double> t,
    std::span<const double> accel_forward,
    const std::vector<VelocityMeasurement>& measurements,
    const std::vector<sensors::ScalarSample>& barometer,
    const vehicle::VehicleParams& params, const GradeEkfConfig& cfg,
    double baro_variance) {
  if (t.size() != accel_forward.size()) {
    throw std::invalid_argument("run_grade_ekf_with_baro: size mismatch");
  }
  GradeTrack track;
  track.source = source_name;
  if (t.empty()) return track;

  const double g = params.gravity;
  const double v0 = measurements.empty() ? 0.0 : measurements.front().v;
  const double z0 = barometer.empty() ? 0.0 : barometer.front().value;

  // 3-state [z, v, theta] filter on fixed-size math (zero heap allocation
  // per IMU sample).
  MatN<3, 3> p0;
  p0(0, 0) = 25.0;
  p0(1, 1) = cfg.initial_speed_var;
  p0(2, 2) = cfg.initial_grade_var;
  math::EkfN<3> ekf(VecN<3>{{z0, v0, 0.0}}, p0);

  MatN<1, 3> vel_h;
  vel_h(0, 1) = 1.0;
  MatN<1, 3> baro_h;
  baro_h(0, 0) = 1.0;
  MatN<1, 1> baro_r;
  baro_r(0, 0) = baro_variance;

  std::size_t m_idx = 0;
  std::size_t b_idx = 0;
  double odometry = 0.0;
  const std::size_t decim = std::max<std::size_t>(1, cfg.record_decimation);

  for (std::size_t i = 0; i < t.size(); ++i) {
    const double dt = i > 0 ? t[i] - t[i - 1] : 0.0;
    if (dt > 0.0) {
      const double f_hat = accel_forward[i];
      const double z = ekf.state()[0];
      const double v = ekf.state()[1];
      const double theta = ekf.state()[2];
      const VecN<3> x_next{
          {z + v * std::sin(theta) * dt,
           std::max(0.0, v + (f_hat - g * std::sin(theta)) * dt),
           std::clamp(theta, -kMaxGradeRad, kMaxGradeRad)}};
      MatN<3, 3> f_jac = MatN<3, 3>::identity();
      f_jac(0, 1) = std::sin(theta) * dt;
      f_jac(0, 2) = v * std::cos(theta) * dt;
      f_jac(1, 2) = -g * std::cos(theta) * dt;
      const double qv = cfg.accel_sigma * cfg.accel_sigma * dt * dt;
      MatN<3, 3> q;
      q(0, 0) = 1e-3 * dt;
      q(1, 1) = qv;
      q(2, 2) = cfg.grade_process_psd * dt;
      ekf.predict(x_next, f_jac, q);
      odometry += ekf.state()[1] * dt;
    }
    while (m_idx < measurements.size() && measurements[m_idx].t <= t[i]) {
      MatN<1, 1> r;
      r(0, 0) = measurements[m_idx].variance;
      ekf.update(VecN<1>{{ekf.state()[1]}}, vel_h, r,
                 VecN<1>{{measurements[m_idx].v}}, cfg.gate_nis);
      ++m_idx;
    }
    while (b_idx < barometer.size() && barometer[b_idx].t <= t[i]) {
      ekf.update(VecN<1>{{ekf.state()[0]}}, baro_h, baro_r,
                 VecN<1>{{barometer[b_idx].value}});
      ++b_idx;
    }
    if (i % decim == 0) {
      track.t.push_back(t[i]);
      track.grade.push_back(ekf.state()[2]);
      track.grade_var.push_back(ekf.covariance()(2, 2));
      track.speed.push_back(ekf.state()[1]);
      track.s.push_back(odometry);
    }
  }
  return track;
}

}  // namespace rge::core
