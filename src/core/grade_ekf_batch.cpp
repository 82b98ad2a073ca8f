// SoA grade-EKF predict kernel. Under RGE_SIMD=ON this translation unit is
// compiled with host-tuned vector flags (see src/core/CMakeLists.txt); the
// lane loop below is written so GCC auto-vectorizes it (an inline body, no
// lane-crossing dependencies, ternary selects instead of branches).
#include "core/grade_ekf_batch.hpp"

#include <algorithm>
#include <stdexcept>

namespace rge::core {

#if RGE_SIMD_ENABLED
namespace {

/// Vectorized lane loop over ekf_kernel::predict_simd; every lane
/// (including masked-off ones, on benign inputs) runs the identical
/// elementwise code and the select keeps or commits the state, which is
/// what makes the result lane-permutation invariant.
///
/// A free function with restrict-qualified parameters on purpose: GCC
/// honours parameter restrict when building alias cliques, while restrict
/// on locals pointing into members does not survive — the loop then needs
/// more runtime alias checks than vect-max-version-for-alias-checks
/// allows and silently stays scalar.
void predict_lanes(std::size_t padded, double* RGE_RESTRICT v_a,
                   double* RGE_RESTRICT th_a, double* RGE_RESTRICT p00_a,
                   double* RGE_RESTRICT p01_a, double* RGE_RESTRICT p11_a,
                   const double* RGE_RESTRICT f_a,
                   const double* RGE_RESTRICT dt_a,
                   const double* RGE_RESTRICT on_a,
                   const ekf_kernel::SimdPredictConsts k) {
  for (std::size_t i = 0; i < padded; ++i) {
    ekf_kernel::predict_simd({v_a[i], th_a[i], p00_a[i], p01_a[i], p11_a[i]},
                             f_a[i], dt_a[i], on_a[i] != 0.0, k);
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
  const ekf_kernel::SimdPredictConsts k{g_,
                                        1.0 / g_,
                                        c_,
                                        drift_ ? 1.0 : 0.0,
                                        cfg_.accel_sigma,
                                        cfg_.grade_process_psd};
  predict_lanes(padded_, v_.data(), th_.data(), p00_.data(), p01_.data(),
                p11_.data(), f_pad_.data(), dt_pad_.data(), on_pad_.data(), k);
#endif
}

}  // namespace rge::core
