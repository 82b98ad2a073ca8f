// SoA grade-EKF predict kernel. Under RGE_SIMD=ON this translation unit is
// compiled with host-tuned vector flags (see src/core/CMakeLists.txt); the
// lane loop below is written so GCC auto-vectorizes it (no calls, no
// lane-crossing dependencies, ternary selects instead of branches).
#include "core/grade_ekf_batch.hpp"

#include <algorithm>
#include <stdexcept>

namespace rge::core {

#if RGE_SIMD_ENABLED
namespace {

/// Vectorized lane loop: same operation sequence as ekf_kernel::predict
/// with polynomial sin/cos; every lane (including masked-off ones, on
/// benign inputs) runs the identical elementwise code and a ternary
/// select keeps or commits the state, which is what makes the result
/// lane-permutation invariant.
///
/// A free function with restrict-qualified parameters on purpose: GCC
/// honours parameter restrict when building alias cliques, while restrict
/// on locals pointing into members does not survive — the loop then needs
/// more runtime alias checks than vect-max-version-for-alias-checks
/// allows and silently stays scalar. The drift term enters as a 0/1
/// multiplier so the body is branch-free: the vectorizer will not
/// if-convert a division guarded by `drift ? ... : ...` under default
/// trapping math.
void predict_lanes(std::size_t padded, double* RGE_RESTRICT v_a,
                   double* RGE_RESTRICT th_a, double* RGE_RESTRICT p00_a,
                   double* RGE_RESTRICT p01_a, double* RGE_RESTRICT p11_a,
                   const double* RGE_RESTRICT f_a,
                   const double* RGE_RESTRICT dt_a,
                   const double* RGE_RESTRICT on_a, double g, double c,
                   double drift_s, double accel_sigma, double psd) {
  const double inv_g = 1.0 / g;
  for (std::size_t i = 0; i < padded; ++i) {
    const double f_hat = f_a[i];
    const double dti = dt_a[i];
    const double v = v_a[i];
    const double theta = th_a[i];
    const double p00 = p00_a[i];
    const double p01 = p01_a[i];
    const double p11 = p11_a[i];

    const double cth = math::lane_cos(theta);
    const double sth = math::lane_sin(theta);
    // One reciprocal per lane; g is hoisted into inv_g. |theta| <= 0.35,
    // so cth >= cos(0.35) > 0.9 and the division never traps.
    const double inv_cth = 1.0 / cth;
    const double drift_gain = drift_s * c * f_hat * dti * inv_g * inv_cth;
    const double j01 = -g * cth * dti;
    const double j10 = drift_gain;
    const double j11 = 1.0 + drift_gain * v * sth * inv_cth;

    double v_next = v + (f_hat - g * sth) * dti;
    v_next = std::max(0.0, v_next);
    double theta_next = theta + drift_gain * v;
    theta_next = std::clamp(theta_next, -ekf_kernel::kMaxGradeRad,
                            ekf_kernel::kMaxGradeRad);

    const double a00 = 1.0 * p00 + j01 * p01;
    const double a01 = 1.0 * p01 + j01 * p11;
    const double a10 = j10 * p00 + j11 * p01;
    const double a11 = j10 * p01 + j11 * p11;
    const double b00 = a00 * 1.0 + a01 * j01;
    const double b01 = a00 * j10 + a01 * j11;
    const double b10 = a10 * 1.0 + a11 * j01;
    const double b11 = a10 * j10 + a11 * j11;
    const double qv = accel_sigma * accel_sigma * dti * dti;

    const bool sel = on_a[i] != 0.0;
    v_a[i] = sel ? v_next : v;
    th_a[i] = sel ? theta_next : theta;
    p00_a[i] = sel ? b00 + qv : p00;
    p01_a[i] = sel ? 0.5 * (b01 + b10) : p01;
    p11_a[i] = sel ? b11 + psd * dti : p11;
  }
}

}  // namespace
#endif  // RGE_SIMD_ENABLED

GradeEkfBatch::GradeEkfBatch(std::size_t lanes,
                             const vehicle::VehicleParams& params,
                             const GradeEkfConfig& cfg)
    : lanes_(lanes),
      padded_(math::padded_lanes(lanes)),
      cfg_(cfg),
      g_(params.gravity),
      c_(2.0 * params.drag_k() / params.mass_kg),
      drift_(cfg.use_paper_drift_term),
      v_(padded_, 0.0),
      th_(padded_, 0.0),
      p00_(padded_, 0.0),
      p01_(padded_, 0.0),
      p11_(padded_, 0.0),
      live_(padded_, 0.0),
      f_pad_(padded_, 0.0),
      dt_pad_(padded_, 0.0),
      on_pad_(padded_, 0.0) {}

void GradeEkfBatch::seed(std::size_t lane, double initial_speed,
                         double initial_grade) {
  if (lane >= lanes_) {
    throw std::out_of_range("GradeEkfBatch::seed: lane out of range");
  }
  v_[lane] = initial_speed;
  th_[lane] = initial_grade;
  p00_[lane] = cfg_.initial_speed_var;
  p01_[lane] = 0.0;
  p11_[lane] = cfg_.initial_grade_var;
  live_[lane] = 1.0;
}

void GradeEkfBatch::reset(std::size_t lane) {
  if (lane >= lanes_) {
    throw std::out_of_range("GradeEkfBatch::reset: lane out of range");
  }
  v_[lane] = 0.0;
  th_[lane] = 0.0;
  p00_[lane] = 0.0;
  p01_[lane] = 0.0;
  p11_[lane] = 0.0;
  live_[lane] = 0.0;
}

void GradeEkfBatch::predict(std::span<const double> specific_force,
                            std::span<const double> dt) {
  predict_masked(specific_force, dt, nullptr);
}

void GradeEkfBatch::predict(std::span<const double> specific_force,
                            std::span<const double> dt,
                            std::span<const std::uint8_t> active) {
  if (active.size() < lanes_) {
    throw std::invalid_argument("GradeEkfBatch::predict: active mask short");
  }
  predict_masked(specific_force, dt, active.data());
}

void GradeEkfBatch::predict_masked(std::span<const double> specific_force,
                                   std::span<const double> dt,
                                   const std::uint8_t* active) {
  if (specific_force.size() < lanes_ || dt.size() < lanes_) {
    throw std::invalid_argument("GradeEkfBatch::predict: input span short");
  }
  // Stage inputs into the padded scratch: inactive and tail lanes get
  // benign values (f = 0, dt = 0) so the math loop needs no bounds logic.
  for (std::size_t i = 0; i < lanes_; ++i) {
    const bool on = live_[i] != 0.0 && dt[i] > 0.0 &&
                    (active == nullptr || active[i] != 0);
    on_pad_[i] = on ? 1.0 : 0.0;
    f_pad_[i] = on ? specific_force[i] : 0.0;
    dt_pad_[i] = on ? dt[i] : 0.0;
  }
  for (std::size_t i = lanes_; i < padded_; ++i) {
    on_pad_[i] = 0.0;
    f_pad_[i] = 0.0;
    dt_pad_[i] = 0.0;
  }

#if !RGE_SIMD_ENABLED
  // Scalar fallback: the exact shared kernel per lane — bit-identical to
  // stepping N GradeEkf instances. Only this branch calls predict_lane,
  // so the kernel-flag build of this file never emits a copy of it.
  for (std::size_t i = 0; i < lanes_; ++i) {
    if (on_pad_[i] != 0.0) predict_lane(i, f_pad_[i], dt_pad_[i]);
  }
#else
  predict_lanes(padded_, v_.data(), th_.data(), p00_.data(), p01_.data(),
                p11_.data(), f_pad_.data(), dt_pad_.data(), on_pad_.data(),
                g_, c_, drift_ ? 1.0 : 0.0, cfg_.accel_sigma,
                cfg_.grade_process_psd);
#endif
}

}  // namespace rge::core
