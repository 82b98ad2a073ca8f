// Unit tests for the road-gradient EKF (Eq. 5 state space + EKF).
#include "core/grade_ekf.hpp"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "math/angles.hpp"
#include "math/matn.hpp"
#include "math/rng.hpp"

namespace rge::core {
namespace {

using math::deg2rad;

constexpr double kG = 9.80665;

/// Synthetic drive on a constant grade: the accelerometer reads
/// a + g*sin(theta); velocity measurements see the true v.
struct SyntheticDrive {
  std::vector<double> t;
  std::vector<double> f;  // specific force
  std::vector<VelocityMeasurement> meas;
  double final_v = 0.0;
};

SyntheticDrive constant_grade_drive(double grade_rad, double duration_s,
                                    double accel_noise, double vel_noise,
                                    std::uint64_t seed = 1,
                                    double meas_rate = 10.0) {
  SyntheticDrive d;
  math::Rng rng(seed);
  const double dt = 0.02;  // 50 Hz
  double v = 10.0;
  double next_meas = 0.0;
  for (double t = 0.0; t <= duration_s; t += dt) {
    // Driver gently varies acceleration (gives the filter excitation).
    const double a = 0.5 * std::sin(0.4 * t);
    d.t.push_back(t);
    d.f.push_back(a + kG * std::sin(grade_rad) +
                  rng.gaussian(0.0, accel_noise));
    if (t >= next_meas) {
      next_meas += 1.0 / meas_rate;
      d.meas.push_back(VelocityMeasurement{
          t, v + rng.gaussian(0.0, vel_noise), vel_noise * vel_noise});
    }
    v += a * dt;
  }
  d.final_v = v;
  return d;
}

// The Eq. 4 drift term slightly biases constant-grade scenarios (it models
// grade *change*); recovery tests therefore disable it and a dedicated test
// covers its behaviour.
GradeEkfConfig no_drift_cfg() {
  GradeEkfConfig cfg;
  cfg.use_paper_drift_term = false;
  return cfg;
}

TEST(GradeEkf, RecoversConstantUphill) {
  const double grade = deg2rad(3.0);
  const auto d = constant_grade_drive(grade, 60.0, 0.05, 0.2);
  const auto track = run_grade_ekf("test", d.t, d.f, d.meas,
                                   vehicle::VehicleParams{}, no_drift_cfg());
  ASSERT_FALSE(track.grade.empty());
  EXPECT_NEAR(track.grade.back(), grade, deg2rad(0.3));
  EXPECT_NEAR(track.speed.back(), d.final_v, 0.3);
}

TEST(GradeEkf, RecoversDownhillWithSign) {
  const double grade = deg2rad(-4.0);
  const auto d = constant_grade_drive(grade, 60.0, 0.05, 0.2, 2);
  const auto track = run_grade_ekf("test", d.t, d.f, d.meas,
                                   vehicle::VehicleParams{}, no_drift_cfg());
  // Average the converged tail (single samples carry the filter's own
  // random-walk jitter).
  double tail = 0.0;
  std::size_t n_tail = 0;
  for (std::size_t i = track.t.size() * 3 / 4; i < track.t.size(); ++i) {
    tail += track.grade[i];
    ++n_tail;
  }
  tail /= static_cast<double>(n_tail);
  EXPECT_NEAR(tail, grade, deg2rad(0.35));
  EXPECT_LT(tail, 0.0);
}

TEST(GradeEkf, VarianceDecreasesOverTime) {
  const auto d = constant_grade_drive(deg2rad(2.0), 30.0, 0.05, 0.2, 3);
  const auto track = run_grade_ekf("test", d.t, d.f, d.meas,
                                   vehicle::VehicleParams{});
  ASSERT_GT(track.grade_var.size(), 10u);
  EXPECT_LT(track.grade_var.back(), track.grade_var.front());
}

TEST(GradeEkf, TracksGradeStep) {
  // Grade jumps from 0 to 3 degrees mid-drive; the filter must follow
  // within a few seconds.
  SyntheticDrive d;
  math::Rng rng(4);
  const double dt = 0.02;
  double v = 12.0;
  double next_meas = 0.0;
  for (double t = 0.0; t <= 80.0; t += dt) {
    const double grade = t < 40.0 ? 0.0 : deg2rad(3.0);
    const double a = 0.4 * std::sin(0.3 * t);
    d.t.push_back(t);
    d.f.push_back(a + kG * std::sin(grade) + rng.gaussian(0.0, 0.05));
    if (t >= next_meas) {
      next_meas += 0.1;
      d.meas.push_back(
          VelocityMeasurement{t, v + rng.gaussian(0.0, 0.2), 0.04});
    }
    v += a * dt;
  }
  const auto track = run_grade_ekf("test", d.t, d.f, d.meas,
                                   vehicle::VehicleParams{});
  // Well before the step: near zero. Well after: near 3 degrees.
  double before = 0.0;
  double after = 0.0;
  for (std::size_t i = 0; i < track.t.size(); ++i) {
    if (track.t[i] < 39.0) before = track.grade[i];
    if (track.t[i] < 79.0) after = track.grade[i];
  }
  EXPECT_NEAR(before, 0.0, deg2rad(0.4));
  EXPECT_NEAR(after, deg2rad(3.0), deg2rad(0.4));
}

TEST(GradeEkf, GatingRejectsVelocityGlitch) {
  GradeEkf ekf(vehicle::VehicleParams{}, GradeEkfConfig{}, 10.0);
  for (int i = 0; i < 500; ++i) {
    ekf.predict(0.0, 0.02);
    if (i % 5 == 0) {
      EXPECT_TRUE(ekf.update_velocity(10.0, 0.04));
    }
  }
  const double grade_before = ekf.grade();
  // A 40 m/s GPS glitch must be gated out.
  EXPECT_FALSE(ekf.update_velocity(50.0, 0.04));
  EXPECT_NEAR(ekf.grade(), grade_before, 1e-12);
}

TEST(GradeEkf, GateCanBeDisabled) {
  GradeEkfConfig cfg;
  cfg.gate_nis = 0.0;
  GradeEkf ekf(vehicle::VehicleParams{}, cfg, 10.0);
  ekf.predict(0.0, 0.02);
  EXPECT_TRUE(ekf.update_velocity(50.0, 0.04));  // accepted, not gated
}

TEST(GradeEkf, PaperDriftTermIsSmall) {
  // The Eq. 4 drift term should barely move theta on its own.
  GradeEkfConfig with;
  GradeEkfConfig without;
  without.use_paper_drift_term = false;
  GradeEkf a(vehicle::VehicleParams{}, with, 15.0, deg2rad(2.0));
  GradeEkf b(vehicle::VehicleParams{}, without, 15.0, deg2rad(2.0));
  for (int i = 0; i < 100; ++i) {
    a.predict(1.0, 0.02);
    b.predict(1.0, 0.02);
  }
  EXPECT_NEAR(a.grade(), b.grade(), deg2rad(0.2));
  EXPECT_NE(a.grade(), b.grade());  // but not identical
}

TEST(GradeEkf, SpeedStaysNonNegative) {
  GradeEkf ekf(vehicle::VehicleParams{}, GradeEkfConfig{}, 0.5);
  for (int i = 0; i < 200; ++i) {
    ekf.predict(-3.0, 0.02);  // hard braking
  }
  EXPECT_GE(ekf.speed(), 0.0);
}

TEST(GradeEkf, GradeStaysWithinPhysicalClamp) {
  GradeEkfConfig cfg;
  cfg.grade_process_psd = 1e-2;  // very loose
  GradeEkf ekf(vehicle::VehicleParams{}, cfg, 10.0);
  math::Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    ekf.predict(5.0, 0.02);  // persistent absurd force
    if (i % 5 == 0) ekf.update_velocity(10.0, 0.01);
  }
  EXPECT_LE(std::abs(ekf.grade()), 0.36);
}

TEST(RunGradeEkf, Validation) {
  const std::vector<double> t{0.0, 0.02};
  const std::vector<double> f{0.0};
  EXPECT_THROW(
      run_grade_ekf("x", t, f, {}, vehicle::VehicleParams{}),
      std::invalid_argument);
  // Empty series produce an empty track.
  const auto track = run_grade_ekf("x", std::vector<double>{},
                                   std::vector<double>{}, {},
                                   vehicle::VehicleParams{});
  EXPECT_TRUE(track.t.empty());
}

TEST(RunGradeEkf, DecimationAndOdometry) {
  const auto d = constant_grade_drive(0.0, 20.0, 0.02, 0.1, 6);
  GradeEkfConfig cfg;
  cfg.record_decimation = 10;
  const auto track = run_grade_ekf("test", d.t, d.f, d.meas,
                                   vehicle::VehicleParams{}, cfg);
  EXPECT_NEAR(static_cast<double>(track.t.size()),
              static_cast<double>(d.t.size()) / 10.0, 2.0);
  // Odometry approximates the integral of the true speed profile
  // v(t) = 10 + int 0.5 sin(0.4 tau) dtau = 10 + 1.25 (1 - cos 0.4 t).
  const double expected_dist =
      10.0 * 20.0 + 1.25 * (20.0 - std::sin(0.4 * 20.0) / 0.4);
  EXPECT_NEAR(track.s.back(), expected_dist, 15.0);
  // Odometry is nondecreasing.
  for (std::size_t i = 1; i < track.s.size(); ++i) {
    EXPECT_GE(track.s[i], track.s[i - 1]);
  }
}

TEST(GradeEkf, NisIsStatisticallyConsistent) {
  // Filter health check: with matched noise models, the normalized
  // innovation squared averages ~1 (one measurement dof).
  const auto d = constant_grade_drive(deg2rad(2.0), 120.0, 0.05, 0.2, 77);
  GradeEkfConfig cfg;
  cfg.use_paper_drift_term = false;
  cfg.gate_nis = 0.0;  // gating would truncate the statistic
  // Run the model on the generic filter, which reports each update's NIS.
  std::size_t m_idx = 0;
  double nis_sum = 0.0;
  std::size_t nis_n = 0;
  math::EkfN<2> raw(math::VecN<2>{{d.meas.front().v, 0.0}},
                    math::MatN<2, 2>{{cfg.initial_speed_var, 0.0, 0.0,
                                      cfg.initial_grade_var}});
  const double g = 9.80665;
  for (std::size_t i = 1; i < d.t.size(); ++i) {
    const double dt = d.t[i] - d.t[i - 1];
    const double f_hat = d.f[i];
    const double v = raw.state()[0];
    const double theta = raw.state()[1];
    math::MatN<2, 2> f_jac = math::MatN<2, 2>::identity();
    f_jac(0, 1) = -g * std::cos(theta) * dt;
    const double qv = cfg.accel_sigma * cfg.accel_sigma * dt * dt;
    raw.predict(math::VecN<2>{{v + (f_hat - g * std::sin(theta)) * dt, theta}},
                f_jac,
                math::MatN<2, 2>{{qv, 0.0, 0.0, cfg.grade_process_psd * dt}});
    while (m_idx < d.meas.size() && d.meas[m_idx].t <= d.t[i]) {
      double nis = 0.0;
      raw.update(math::VecN<1>{{raw.state()[0]}}, math::MatN<1, 2>{{1.0, 0.0}},
                 math::MatN<1, 1>{{d.meas[m_idx].variance}},
                 math::VecN<1>{{d.meas[m_idx].v}}, 0.0, &nis);
      if (d.t[i] > 20.0) {  // after convergence
        nis_sum += nis;
        ++nis_n;
      }
      ++m_idx;
    }
  }
  ASSERT_GT(nis_n, 200u);
  EXPECT_NEAR(nis_sum / static_cast<double>(nis_n), 1.0, 0.35);
}

TEST(GradeRts, Validation) {
  EXPECT_THROW(run_grade_rts("x", std::vector<double>{0.0, 1.0},
                             std::vector<double>{0.0}, {},
                             vehicle::VehicleParams{}),
               std::invalid_argument);
  EXPECT_THROW(run_grade_rts("x", std::vector<double>{0.0, 1.0},
                             std::vector<double>{0.0, 0.0}, {},
                             vehicle::VehicleParams{}, {}, 0.0),
               std::invalid_argument);
  const auto empty =
      run_grade_rts("x", std::vector<double>{}, std::vector<double>{}, {},
                    vehicle::VehicleParams{});
  EXPECT_TRUE(empty.t.empty());
}

TEST(GradeRts, TighterThanCausalOnConstantGrade) {
  const double grade = deg2rad(3.0);
  const auto d = constant_grade_drive(grade, 90.0, 0.05, 0.2, 31);
  GradeEkfConfig cfg = no_drift_cfg();
  const auto causal = run_grade_ekf("ekf", d.t, d.f, d.meas,
                                    vehicle::VehicleParams{}, cfg);
  const auto smooth = run_grade_rts("rts", d.t, d.f, d.meas,
                                    vehicle::VehicleParams{}, cfg);
  // RMS error of the smoothed track must undercut the causal filter's.
  auto rms_err = [&](const GradeTrack& tr) {
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < tr.t.size(); ++i) {
      if (tr.t[i] < 15.0) continue;
      acc += (tr.grade[i] - grade) * (tr.grade[i] - grade);
      ++n;
    }
    return std::sqrt(acc / static_cast<double>(n));
  };
  EXPECT_LT(rms_err(smooth), 0.8 * rms_err(causal));
  // Smoothed variance reported below the filtered variance mid-drive.
  EXPECT_LT(smooth.grade_var[smooth.size() / 2],
            causal.grade_var[causal.size() / 2] * 1.01);
}

TEST(GradeRts, HalvesStepTransitionLag) {
  // Grade step at t=40 (as in GradeEkf.TracksGradeStep): compare the
  // error right after the step.
  SyntheticDrive d;
  math::Rng rng(32);
  const double dt = 0.02;
  double v = 12.0;
  double next_meas = 0.0;
  for (double t = 0.0; t <= 80.0; t += dt) {
    const double grade = t < 40.0 ? 0.0 : deg2rad(3.0);
    const double a = 0.4 * std::sin(0.3 * t);
    d.t.push_back(t);
    d.f.push_back(a + kG * std::sin(grade) + rng.gaussian(0.0, 0.05));
    if (t >= next_meas) {
      next_meas += 0.1;
      d.meas.push_back(
          VelocityMeasurement{t, v + rng.gaussian(0.0, 0.2), 0.04});
    }
    v += a * dt;
  }
  const auto causal = run_grade_ekf("ekf", d.t, d.f, d.meas,
                                    vehicle::VehicleParams{});
  const auto smooth = run_grade_rts("rts", d.t, d.f, d.meas,
                                    vehicle::VehicleParams{});
  auto window_err = [&](const GradeTrack& tr) {
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < tr.t.size(); ++i) {
      if (tr.t[i] < 38.0 || tr.t[i] > 46.0) continue;
      const double truth = tr.t[i] < 40.0 ? 0.0 : deg2rad(3.0);
      acc += std::abs(tr.grade[i] - truth);
      ++n;
    }
    return acc / static_cast<double>(n);
  };
  EXPECT_LT(window_err(smooth), 0.6 * window_err(causal));
}

// Parameterized: recovery works across the paper's grade range.
class GradeRecovery : public ::testing::TestWithParam<double> {};

TEST_P(GradeRecovery, ConstantGrade) {
  const double grade = deg2rad(GetParam());
  const auto d = constant_grade_drive(grade, 60.0, 0.05, 0.2,
                                      42 + static_cast<int>(GetParam()));
  const auto track = run_grade_ekf("test", d.t, d.f, d.meas,
                                   vehicle::VehicleParams{}, no_drift_cfg());
  double tail = 0.0;
  std::size_t n_tail = 0;
  for (std::size_t i = track.t.size() * 3 / 4; i < track.t.size(); ++i) {
    tail += track.grade[i];
    ++n_tail;
  }
  tail /= static_cast<double>(n_tail);
  EXPECT_NEAR(tail, grade, deg2rad(0.4));
}

INSTANTIATE_TEST_SUITE_P(Grades, GradeRecovery,
                         ::testing::Values(-8.0, -5.0, -2.0, -0.5, 0.0, 0.5,
                                           2.0, 5.0, 8.0));

// ---- bit-exactness vs. the generic EKF --------------------------------
// GradeEkf is a hand-unrolled 2-state specialization (zero allocations per
// step). This test drives it and the generic math::EkfN<2>, with the
// process/measurement model written out in full, through a long
// randomized predict/update sequence and requires every state and
// covariance entry to match bit-for-bit.

/// The grade model on top of the generic EKF.
class GenericGradeEkf {
 public:
  GenericGradeEkf(const vehicle::VehicleParams& params,
                  const GradeEkfConfig& cfg, double initial_speed,
                  double initial_grade)
      : params_(params),
        cfg_(cfg),
        ekf_(math::VecN<2>{{initial_speed, initial_grade}},
             math::MatN<2, 2>{{cfg.initial_speed_var, 0.0, 0.0,
                               cfg.initial_grade_var}}) {}

  void predict(double specific_force, double dt) {
    if (dt <= 0.0) return;
    const double g = params_.gravity;
    const double c = 2.0 * params_.drag_k() / params_.mass_kg;
    const bool drift = cfg_.use_paper_drift_term;
    constexpr double kMaxGradeRad = 0.35;

    // f and F at the prior state.
    const double v = ekf_.state()[0];
    const double theta = ekf_.state()[1];
    const double f_hat = specific_force;
    double v_next = v + (f_hat - g * std::sin(theta)) * dt;
    v_next = std::max(0.0, v_next);
    double theta_next = theta;
    if (drift) {
      theta_next += c * v * f_hat * dt / (g * std::cos(theta));
    }
    theta_next = std::clamp(theta_next, -kMaxGradeRad, kMaxGradeRad);

    const double cth = std::cos(theta);
    math::MatN<2, 2> f_jac = math::MatN<2, 2>::identity();
    f_jac(0, 1) = -g * cth * dt;
    if (drift) {
      f_jac(1, 0) = c * f_hat * dt / (g * cth);
      f_jac(1, 1) = 1.0 + c * v * f_hat * dt * std::sin(theta) /
                              (g * cth * cth);
    }
    const double qv = cfg_.accel_sigma * cfg_.accel_sigma * dt * dt;
    ekf_.predict(math::VecN<2>{{v_next, theta_next}}, f_jac,
                 math::MatN<2, 2>{{qv, 0.0, 0.0,
                                   cfg_.grade_process_psd * dt}});
  }

  bool update_velocity(double v_meas, double variance) {
    return ekf_.update(math::VecN<1>{{ekf_.state()[0]}},
                       math::MatN<1, 2>{{1.0, 0.0}},
                       math::MatN<1, 1>{{variance}},
                       math::VecN<1>{{v_meas}}, cfg_.gate_nis);
  }

  double speed() const { return ekf_.state()[0]; }
  double grade() const { return ekf_.state()[1]; }
  double p00() const { return ekf_.covariance()(0, 0); }
  double p01() const { return ekf_.covariance()(0, 1); }
  double p10() const { return ekf_.covariance()(1, 0); }
  double p11() const { return ekf_.covariance()(1, 1); }

 private:
  vehicle::VehicleParams params_;
  GradeEkfConfig cfg_;
  math::EkfN<2> ekf_;
};

TEST(GradeEkf, MatchesGenericEkfBitExact) {
  for (const bool drift : {true, false}) {
    GradeEkfConfig cfg;
    cfg.use_paper_drift_term = drift;
    const vehicle::VehicleParams params{};

    GradeEkf fast(params, cfg, 12.0, 0.01);
    GenericGradeEkf slow(params, cfg, 12.0, 0.01);

    math::Rng rng(drift ? 77 : 78);
    for (int step = 0; step < 4000; ++step) {
      const double dt = 0.02;
      const double f = rng.gaussian(0.3, 1.5);
      fast.predict(f, dt);
      slow.predict(f, dt);
      if (step % 7 == 0) {
        // Occasional far-out measurement exercises the NIS gate branch.
        const double v = step % 35 == 0 ? rng.gaussian(60.0, 5.0)
                                        : rng.gaussian(12.0, 0.5);
        const double var = 0.04 + rng.uniform(0.0, 0.2);
        const bool a_fast = fast.update_velocity(v, var);
        const bool a_slow = slow.update_velocity(v, var);
        ASSERT_EQ(a_fast, a_slow) << "gate disagreement at step " << step;
      }
      ASSERT_EQ(fast.speed(), slow.speed()) << "step " << step;
      ASSERT_EQ(fast.grade(), slow.grade()) << "step " << step;
      ASSERT_EQ(fast.speed_variance(), slow.p00()) << "step " << step;
      ASSERT_EQ(fast.grade_variance(), slow.p11()) << "step " << step;
      // The generic filter symmetrizes P, so its off-diagonals agree with
      // the single p01 the specialization stores.
      ASSERT_EQ(slow.p01(), slow.p10()) << "step " << step;
    }
  }
}

}  // namespace
}  // namespace rge::core
