// Per-lane kernels of the 2-state grade EKF (paper Section III-C).
//
// The predict/update arithmetic of GradeEkf lives here as inline functions
// over a 5-double state so the scalar filter (grade_ekf.cpp), the trip
// kernel (grade_ekf_trip.cpp) and the online estimator share one
// definition. The expressions and association order are the generic EKF
// (math::EkfN<2>) unrolled for this model, bit for bit (pinned by
// GradeEkf.MatchesGenericEkfBitExact and OnlinePins).
//
// `sin_fn`/`cos_fn` are injected so callers choose the sin/cos; the scalar
// filter and every RGE_SIMD=OFF lane loop use libm. predict_simd is the
// vectorizable form of the same step that predict_lanes runs under
// RGE_SIMD=ON, in the trip kernel and the online estimator.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "math/simd.hpp"
#include "math/singular.hpp"

namespace rge::core::ekf_kernel {

/// ~20 degrees; physical sanity clamp on the gradient state.
inline constexpr double kMaxGradeRad = 0.35;

/// Lanes of predict_lanes: one AVX2 vector of doubles.
inline constexpr std::size_t kLanes = 4;

/// One lane's filter state: x = [v, theta] and the symmetric covariance.
struct StateRef {
  double& v;
  double& th;
  double& p00;
  double& p01;
  double& p11;
};

/// One predict step (state + covariance + process noise), mirroring
/// GradeEkf::predict line by line. `g` is gravity, `c` is 2*drag_k/m (the
/// Eq. 4 coefficient); `accel_sigma`/`grade_process_psd` are the
/// GradeEkfConfig noise fields.
template <class SinFn, class CosFn>
inline void predict(StateRef s, double specific_force, double dt, double g,
                    double c, bool drift, double accel_sigma,
                    double grade_process_psd, SinFn sin_fn, CosFn cos_fn) {
  if (dt <= 0.0) return;
  const double f_hat = specific_force;
  const double v = s.v;
  const double theta = s.th;

  // Jacobian, evaluated at the pre-propagation state.
  const double cth = cos_fn(theta);
  const double sth = sin_fn(theta);
  const double j01 = -g * cth * dt;
  double j10 = 0.0;
  double j11 = 1.0;
  if (drift) {
    j10 = c * f_hat * dt / (g * cth);
    j11 = 1.0 + c * v * f_hat * dt * sth / (g * cth * cth);
  }

  // State propagation (paper Eq. 4/5).
  double v_next = v + (f_hat - g * sth) * dt;
  v_next = std::max(0.0, v_next);
  double theta_next = theta;
  if (drift) {
    theta_next += c * v * f_hat * dt / (g * cth);
  }
  theta_next = std::clamp(theta_next, -kMaxGradeRad, kMaxGradeRad);
  s.v = v_next;
  s.th = theta_next;

  // P <- F P F^T + Q with F = [[1, j01], [j10, j11]].
  const double a00 = 1.0 * s.p00 + j01 * s.p01;
  const double a01 = 1.0 * s.p01 + j01 * s.p11;
  const double a10 = j10 * s.p00 + j11 * s.p01;
  const double a11 = j10 * s.p01 + j11 * s.p11;
  const double b00 = a00 * 1.0 + a01 * j01;
  const double b01 = a00 * j10 + a01 * j11;
  const double b10 = a10 * 1.0 + a11 * j01;
  const double b11 = a10 * j10 + a11 * j11;
  const double qv = accel_sigma * accel_sigma * dt * dt;
  s.p00 = b00 + qv;
  s.p11 = b11 + grade_process_psd * dt;
  s.p01 = 0.5 * (b01 + b10);  // symmetrize
}

/// Per-lane constants of predict_simd, hoisted out of the lane loops.
struct SimdPredictConsts {
  double g = 0.0;
  double inv_g = 0.0;    ///< 1 / g
  double c = 0.0;        ///< 2*drag_k/m (Eq. 4 coefficient)
  double drift = 1.0;    ///< 1.0 with the Eq. 4 drift term, 0.0 without
  double accel_sigma = 0.0;
  double psd = 0.0;      ///< grade_process_psd
};

/// The lane body of the RGE_SIMD=ON predict loops: predict's operation
/// sequence with polynomial sin/cos (math::lane_sin/lane_cos), one
/// reciprocal per lane and g hoisted into inv_g, and no branches, so GCC
/// vectorizes a loop that calls it. The drift term enters as a 0/1
/// multiplier: the vectorizer will not if-convert a division guarded by
/// `drift ? ... : ...` under default trapping math. A lane with
/// `on == false` keeps its state; every lane runs the same instructions,
/// which makes the loops invariant under lane permutation.
inline void predict_simd(StateRef s, double f_hat, double dt, bool on,
                         const SimdPredictConsts& k) {
  const double v = s.v;
  const double theta = s.th;
  const double p00 = s.p00;
  const double p01 = s.p01;
  const double p11 = s.p11;

  const double cth = math::lane_cos(theta);
  const double sth = math::lane_sin(theta);
  // |theta| <= kMaxGradeRad, so cth >= cos(0.35) > 0.9 and the division
  // never traps.
  const double inv_cth = 1.0 / cth;
  const double drift_gain = k.drift * k.c * f_hat * dt * k.inv_g * inv_cth;
  const double j01 = -k.g * cth * dt;
  const double j10 = drift_gain;
  const double j11 = 1.0 + drift_gain * v * sth * inv_cth;

  double v_next = v + (f_hat - k.g * sth) * dt;
  v_next = std::max(0.0, v_next);
  double theta_next = theta + drift_gain * v;
  theta_next = std::clamp(theta_next, -kMaxGradeRad, kMaxGradeRad);

  const double a00 = 1.0 * p00 + j01 * p01;
  const double a01 = 1.0 * p01 + j01 * p11;
  const double a10 = j10 * p00 + j11 * p01;
  const double a11 = j10 * p01 + j11 * p11;
  const double b00 = a00 * 1.0 + a01 * j01;
  const double b01 = a00 * j10 + a01 * j11;
  const double b10 = a10 * 1.0 + a11 * j01;
  const double b11 = a10 * j10 + a11 * j11;
  const double qv = k.accel_sigma * k.accel_sigma * dt * dt;

  s.v = on ? v_next : v;
  s.th = on ? theta_next : theta;
  s.p00 = on ? b00 + qv : p00;
  s.p01 = on ? 0.5 * (b01 + b10) : p01;
  s.p11 = on ? b11 + k.psd * dt : p11;
}

/// One predict of kLanes filters that share (f, dt > 0): lane j advances
/// iff on[j] != 0. Under RGE_SIMD=ON every lane runs predict_simd, which
/// a caller compiled with the kernel flags gets as one 4-double vector;
/// under OFF each live lane runs the libm predict, bit-identical to
/// GradeEkf::predict. The trip kernel and the online estimator call it.
///
/// The lane arrays are restrict-qualified parameters on purpose: the same
/// loop written over member arrays stays scalar (DESIGN.md §8).
inline void predict_lanes(double* RGE_RESTRICT v, double* RGE_RESTRICT th,
                          double* RGE_RESTRICT p00, double* RGE_RESTRICT p01,
                          double* RGE_RESTRICT p11,
                          const double* RGE_RESTRICT on, double f, double dt,
                          const SimdPredictConsts& k) {
#if RGE_SIMD_ENABLED
  for (std::size_t j = 0; j < kLanes; ++j) {
    predict_simd({v[j], th[j], p00[j], p01[j], p11[j]}, f, dt, on[j] != 0.0,
                 k);
  }
#else
  for (std::size_t j = 0; j < kLanes; ++j) {
    if (on[j] == 0.0) continue;
    predict(
        {v[j], th[j], p00[j], p01[j], p11[j]}, f, dt, k.g, k.c,
        k.drift != 0.0, k.accel_sigma, k.psd,
        [](double x) { return std::sin(x); },
        [](double x) { return std::cos(x); });
  }
#endif
}

/// One velocity update (H = [1, 0]), mirroring GradeEkf::update_velocity.
/// Returns false when the NIS gate rejects the measurement.
inline bool update_velocity(StateRef s, double v_meas, double variance,
                            double gate_nis) {
  // H = [1, 0], so S = p00 + R and the innovation is scalar.
  const double y = v_meas - s.v;
  const double sc = s.p00 + variance;
  if (std::abs(sc) < 1e-300) {
    throw math::SingularMatrixError(
        "update_velocity: singular innovation covariance");
  }
  const double s_inv = 1.0 / sc;
  const double nis = y * (s_inv * y);
  if (gate_nis > 0.0 && nis > gate_nis) return false;

  const double k0 = s.p00 * s_inv;
  const double k1 = s.p01 * s_inv;
  s.v = s.v + k0 * y;
  s.th = s.th + k1 * y;

  // Joseph form: P <- (I-KH) P (I-KH)^T + K R K^T, with
  // I-KH = [[1-k0, 0], [-k1, 1]].
  const double i00 = 1.0 - k0;
  const double i10 = 0.0 - k1;
  const double a00 = i00 * s.p00;
  const double a01 = i00 * s.p01;
  const double a10 = i10 * s.p00 + 1.0 * s.p01;
  const double a11 = i10 * s.p01 + 1.0 * s.p11;
  const double b00 = a00 * i00;
  const double b01 = a00 * i10 + a01;
  const double b10 = a10 * i00;
  const double b11 = a10 * i10 + a11;
  const double c0 = k0 * variance;
  const double c1 = k1 * variance;
  s.p00 = b00 + c0 * k0;
  s.p11 = b11 + c1 * k1;
  s.p01 = 0.5 * ((b01 + c0 * k1) + (b10 + c1 * k0));  // symmetrize
  return true;
}

}  // namespace rge::core::ekf_kernel
