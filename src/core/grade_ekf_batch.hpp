// Structure-of-arrays batch of independent 2-state grade EKFs.
//
// Runs N vehicles' predict steps as lane-parallel vector loops over SoA
// state arrays (v, theta, p00, p01, p11), sharing one VehicleParams and
// GradeEkfConfig across lanes. Velocity updates stay scalar per lane (they
// arrive at 1-10 Hz per source, two orders of magnitude below the IMU
// rate) and reuse the exact scalar kernel.
//
// Parity contract (DESIGN.md §8):
//   RGE_SIMD=OFF  predict runs the scalar kernel per lane — bit-identical
//                 to stepping N GradeEkf instances.
//   RGE_SIMD=ON   predict runs a vectorized lane loop over
//                 ekf_kernel::predict_simd under host-tuned flags, with
//                 polynomial sin/cos (math/simd.hpp): same operation
//                 sequence, pinned tolerance vs scalar
//                 (poly error < 1 ulp over the clamped grade range plus
//                 possible FMA contraction).
// In both modes the lane arrays are padded to a multiple of
// math::kBatchLaneWidth and every lane executes identical elementwise
// code, so outputs are invariant under lane permutation bit-for-bit.
//
// update_velocity and predict_lane are defined inline in this header so
// they compile with the *caller's* flags: they are bit-identical to
// GradeEkf::update_velocity / GradeEkf::predict in every build mode; only
// the lane-parallel predict carries the SIMD tolerance.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/grade_ekf.hpp"
#include "core/grade_ekf_kernel.hpp"
#include "math/simd.hpp"
#include "vehicle/params.hpp"

namespace rge::core {

class GradeEkfBatch {
 public:
  GradeEkfBatch(std::size_t lanes, const vehicle::VehicleParams& params,
                const GradeEkfConfig& cfg = {});

  std::size_t lanes() const { return lanes_; }
  const GradeEkfConfig& config() const { return cfg_; }

  /// Initialize one lane, like constructing GradeEkf(params, cfg, v0, th0).
  /// Re-seeding an already-seeded lane resets it.
  void seed(std::size_t lane, double initial_speed,
            double initial_grade = 0.0);
  bool seeded(std::size_t lane) const { return live_[lane] != 0.0; }
  /// Return one lane to its constructed state: unseeded, all zero.
  void reset(std::size_t lane);

  /// Vectorized predict across all lanes: lane i advances iff it is seeded
  /// and specific_force/dt[i] has dt > 0 (exactly GradeEkf::predict's
  /// early-out). Spans must cover lanes().
  void predict(std::span<const double> specific_force,
               std::span<const double> dt);

  /// Masked variant: lane i additionally requires active[i] != 0.
  void predict(std::span<const double> specific_force,
               std::span<const double> dt,
               std::span<const std::uint8_t> active);

  /// One lane's predict with libm sin/cos: identical arithmetic to
  /// GradeEkf::predict, in every build mode. A no-op on an unseeded lane
  /// and for dt <= 0.
  void predict_lane(std::size_t lane, double specific_force, double dt) {
    if (!seeded(lane)) return;
    ekf_kernel::StateRef s{v_[lane], th_[lane], p00_[lane], p01_[lane],
                           p11_[lane]};
    ekf_kernel::predict(
        s, specific_force, dt, g_, c_, drift_, cfg_.accel_sigma,
        cfg_.grade_process_psd, [](double x) { return std::sin(x); },
        [](double x) { return std::cos(x); });
  }

  /// One velocity measurement for one lane; identical arithmetic to
  /// GradeEkf::update_velocity (returns false when the NIS gate rejects).
  bool update_velocity(std::size_t lane, double v_meas, double variance) {
    ekf_kernel::StateRef s{v_[lane], th_[lane], p00_[lane], p01_[lane],
                           p11_[lane]};
    return ekf_kernel::update_velocity(s, v_meas, variance, cfg_.gate_nis);
  }

  double speed(std::size_t lane) const { return v_[lane]; }
  double grade(std::size_t lane) const { return th_[lane]; }
  double grade_variance(std::size_t lane) const { return p11_[lane]; }
  double speed_variance(std::size_t lane) const { return p00_[lane]; }
  double speed_grade_cov(std::size_t lane) const { return p01_[lane]; }

 private:
  void predict_masked(std::span<const double> specific_force,
                      std::span<const double> dt, const std::uint8_t* active);

  std::size_t lanes_ = 0;
  std::size_t padded_ = 0;
  GradeEkfConfig cfg_{};
  double g_ = 0.0;      ///< gravity
  double c_ = 0.0;      ///< 2*drag_k/m (Eq. 4 coefficient)
  bool drift_ = true;   ///< cfg.use_paper_drift_term

  // SoA lane state; padded tail lanes hold benign values (theta = 0) so
  // the vector loop can run the full padded range unconditionally.
  std::vector<double> v_;
  std::vector<double> th_;
  std::vector<double> p00_;
  std::vector<double> p01_;
  std::vector<double> p11_;
  std::vector<double> live_;  ///< 1.0 = seeded, 0.0 = not (select mask)

  // Per-call scratch (members so steady-state predicts allocate nothing).
  std::vector<double> f_pad_;
  std::vector<double> dt_pad_;
  std::vector<double> on_pad_;
};

}  // namespace rge::core
