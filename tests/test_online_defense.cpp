// Robustness tests for the self-defending online estimator: innovation
// gating with an adaptive R floor, per-source health scoring, quarantine
// with timed re-admission probes, and consensus accel-bias compensation.
//
// Contracts pinned here:
//  * under kAccelBiasRamp / kGpsSpoofJump / kStuckSensor the defended
//    (default-config) estimator has strictly lower grade RMSE than the
//    trusting, ungated baseline (defense off AND the EKF NIS gate off);
//  * on clean traces the defenses stay out of the way: accuracy in the
//    same class, nobody quarantined, no accel-bias engaged;
//  * the quarantine/re-admission state machine: health collapse enters
//    quarantine, the hold consumes measurements without applying them, a
//    failed probe re-arms the hold, readmit_probes consecutive passes
//    readmit on probation health;
//  * quarantined sources are excluded from fusion while any healthy
//    source exists (mask contract of OnlineEstimate);
//  * the per-source health / R_eff / quarantine gauges sum over live
//    estimators only.
#include "core/online_estimator.hpp"

#include <cmath>
#include <iostream>
#include <string>

#include <gtest/gtest.h>

#include "core/evaluation.hpp"
#include "obs/obs.hpp"
#include "road/network.hpp"
#include "sensors/smartphone.hpp"
#include "testing/fault_injection.hpp"
#include "vehicle/trip.hpp"

namespace rge::core {
namespace {

struct Scenario {
  road::Road road;
  vehicle::Trip trip;
  sensors::SensorTrace trace;
};

Scenario make_scenario(std::uint64_t seed) {
  Scenario sc{road::make_table3_route(2019), {}, {}};
  vehicle::TripConfig tc;
  tc.seed = seed;
  sc.trip = vehicle::simulate_trip(sc.road, tc);
  sensors::SmartphoneConfig pc;
  pc.seed = seed + 70;
  sc.trace = sensors::simulate_sensors(sc.trip, sc.road.anchor(),
                                       vehicle::VehicleParams{}, pc);
  return sc;
}

/// Stream a full trace into the estimator in timestamp order, recording
/// the estimate after every 5th IMU sample (test_online_estimator idiom).
GradeTrack stream_trace(OnlineGradientEstimator& est,
                        const sensors::SensorTrace& trace) {
  GradeTrack track;
  track.source = "online";
  std::size_t gi = 0;
  std::size_t si = 0;
  std::size_t ci = 0;
  std::size_t bi = 0;
  std::size_t n = 0;
  for (const auto& imu : trace.imu) {
    while (gi < trace.gps.size() && trace.gps[gi].t <= imu.t) {
      est.push_gps(trace.gps[gi++]);
    }
    while (bi < trace.barometer_alt.size() &&
           trace.barometer_alt[bi].t <= imu.t) {
      est.push_baro(trace.barometer_alt[bi].t,
                    trace.barometer_alt[bi].value);
      ++bi;
    }
    while (si < trace.speedometer.size() &&
           trace.speedometer[si].t <= imu.t) {
      est.push_speedometer(trace.speedometer[si].t,
                           trace.speedometer[si].value);
      ++si;
    }
    while (ci < trace.canbus_speed.size() &&
           trace.canbus_speed[ci].t <= imu.t) {
      est.push_canbus(trace.canbus_speed[ci].t,
                      trace.canbus_speed[ci].value);
      ++ci;
    }
    est.push_imu(imu);
    if (++n % 5 == 0) {
      const auto e = est.estimate();
      track.t.push_back(e.t);
      track.grade.push_back(e.grade_rad);
      track.grade_var.push_back(std::max(1e-10, e.grade_var));
      track.speed.push_back(e.speed_mps);
      track.s.push_back(e.odometry_m);
    }
  }
  return track;
}

/// The trusting baseline: defense layer off AND the EKF's own NIS gate
/// disabled — every measurement is believed.
OnlineEstimatorConfig ungated_config() {
  OnlineEstimatorConfig cfg;
  cfg.defense.enabled = false;
  cfg.ekf.gate_nis = 0.0;
  return cfg;
}

double rmse_with(const Scenario& sc, const sensors::SensorTrace& trace,
                 const OnlineEstimatorConfig& cfg,
                 OnlineGradientEstimator* est_out = nullptr) {
  OnlineGradientEstimator est(vehicle::VehicleParams{}, cfg);
  const GradeTrack track = stream_trace(est, trace);
  const double rmse = evaluate_track(track, sc.trip).rmse_rad;
  EXPECT_TRUE(std::isfinite(rmse));
  if (est_out != nullptr) *est_out = std::move(est);
  return rmse;
}

/// Defended-vs-ungated RMSE pair on one fault spec.
std::pair<double, double> rmse_pair(std::uint64_t seed,
                                    const testing::FaultSpec& spec) {
  const Scenario sc = make_scenario(seed);
  sensors::SensorTrace faulted = sc.trace;
  testing::apply_fault(faulted, spec);
  const double defended = rmse_with(sc, faulted, OnlineEstimatorConfig{});
  const double ungated = rmse_with(sc, faulted, ungated_config());
  std::cout << "[ defense  ] " << testing::fault_name(spec.kind)
            << ": defended rmse=" << defended << " rad, ungated rmse="
            << ungated << " rad\n";
  return {defended, ungated};
}

// ---- RMSE under attack: defended strictly beats trusting ---------------

TEST(OnlineDefense, LowerRmseUnderAccelBiasRamp) {
  // A ramp strong enough to matter: the default 0.35 m/s^2/min barely
  // moves grade RMSE on this route, so pin the defense against the
  // sun-baked-dashboard worst case the compensator exists for.
  testing::FaultSpec spec =
      testing::make_fault(testing::FaultKind::kAccelBiasRamp);
  spec.bias_ramp_start_frac = 0.2;
  spec.bias_ramp_mps2_per_min = 1.5;
  const auto [defended, ungated] = rmse_pair(41, spec);
  EXPECT_LT(defended, ungated);
}

TEST(OnlineDefense, LowerRmseUnderGpsSpoofJump) {
  const auto [defended, ungated] =
      rmse_pair(42, testing::make_fault(testing::FaultKind::kGpsSpoofJump));
  EXPECT_LT(defended, ungated);
}

TEST(OnlineDefense, LowerRmseUnderStuckSensor) {
  // A long freeze starting early: both wheel-speed streams republish one
  // stale value while the vehicle keeps maneuvering.
  testing::FaultSpec spec =
      testing::make_fault(testing::FaultKind::kStuckSensor);
  spec.stuck_start_frac = 0.2;
  spec.stuck_duration_s = 120.0;
  const auto [defended, ungated] = rmse_pair(43, spec);
  EXPECT_LT(defended, ungated);
}

// ---- clean traces: defenses must stay out of the way -------------------

TEST(OnlineDefense, NeutralOnCleanTrace) {
  const Scenario sc = make_scenario(44);
  OnlineGradientEstimator defended_est(vehicle::VehicleParams{});
  OnlineEstimatorConfig legacy;
  legacy.defense.enabled = false;
  const double defended = rmse_with(sc, sc.trace, OnlineEstimatorConfig{},
                                    &defended_est);
  const double trusting = rmse_with(sc, sc.trace, legacy);
  // Same accuracy class (the gate may shave a few tail outliers either
  // way, but it must not cost real accuracy).
  EXPECT_LT(defended, 1.15 * trusting + 1e-4);
  // Nobody gets quarantined on nominal sensors, and the consensus bias
  // compensator never engages.
  for (const auto which :
       {VelocitySource::kGps, VelocitySource::kSpeedometer,
        VelocitySource::kCanbus}) {
    const SourceDiagnostics d = defended_est.source_diagnostics(which);
    EXPECT_TRUE(d.seeded);
    EXPECT_FALSE(d.quarantined);
    EXPECT_GT(d.health, 0.5);
  }
  EXPECT_LT(std::abs(defended_est.accel_bias_estimate()), 0.2);
}

TEST(OnlineDefense, SpoofedGpsFixesAreGated) {
  const Scenario sc = make_scenario(45);
  sensors::SensorTrace faulted = sc.trace;
  testing::apply_fault(
      faulted, testing::make_fault(testing::FaultKind::kGpsSpoofJump));
  OnlineGradientEstimator est(vehicle::VehicleParams{});
  (void)stream_trace(est, faulted);
  const SourceDiagnostics gps = est.source_diagnostics(VelocitySource::kGps);
  EXPECT_GT(gps.gate_rejected, 0u);
  // The other sources are clean and must not be collateral damage.
  EXPECT_FALSE(
      est.source_diagnostics(VelocitySource::kSpeedometer).quarantined);
  EXPECT_FALSE(est.source_diagnostics(VelocitySource::kCanbus).quarantined);
}

// ---- quarantine / re-admission state machine ---------------------------

/// Drive the canbus filter into quarantine with sustained outliers.
/// Returns the sample time of the last (quarantining) push.
double quarantine_canbus(OnlineGradientEstimator& est, double t0) {
  double t = t0;
  est.push_canbus(t, 10.0);  // seeds the filter
  for (int i = 0; i < 100; ++i) {
    if (est.source_diagnostics(VelocitySource::kCanbus).quarantined) return t;
    t += 0.1;
    est.push_canbus(t, 60.0);  // wildly implausible: always gate-rejected
  }
  return t;
}

TEST(OnlineDefense, SustainedOutliersEnterQuarantine) {
  OnlineGradientEstimator est(vehicle::VehicleParams{});
  quarantine_canbus(est, 0.0);
  const SourceDiagnostics d = est.source_diagnostics(VelocitySource::kCanbus);
  ASSERT_TRUE(d.quarantined);
  EXPECT_LT(d.health, OnlineDefenseConfig{}.quarantine_below);
  EXPECT_EQ(d.accepted, 1u);  // only the seeding measurement got through
  EXPECT_GT(d.gate_rejected, 5u);
}

TEST(OnlineDefense, HoldConsumesMeasurementsWithoutApplyingThem) {
  OnlineGradientEstimator est(vehicle::VehicleParams{});
  const double t_q = quarantine_canbus(est, 0.0);
  // Good measurements inside the hold advance the stream clock (replay
  // protection stays live) but never reach the EKF.
  est.push_canbus(t_q + 1.0, 10.0);
  const SourceDiagnostics d = est.source_diagnostics(VelocitySource::kCanbus);
  EXPECT_TRUE(d.quarantined);
  EXPECT_EQ(d.accepted, 1u);
  // ... and the consumed epoch is a duplicate afterwards: the accepted /
  // rejected counts stay put.
  est.push_canbus(t_q + 1.0, 10.0);
  EXPECT_EQ(est.source_diagnostics(VelocitySource::kCanbus).accepted, 1u);
}

TEST(OnlineDefense, ConsecutiveProbePassesReadmitOnProbation) {
  OnlineGradientEstimator est(vehicle::VehicleParams{});
  const OnlineDefenseConfig defaults;
  const double t_q = quarantine_canbus(est, 0.0);
  double t = t_q + defaults.readmit_after_s;
  for (int k = 0; k < defaults.readmit_probes; ++k) {
    EXPECT_TRUE(
        est.source_diagnostics(VelocitySource::kCanbus).quarantined);
    t += 0.1;
    est.push_canbus(t, 10.0);
  }
  const SourceDiagnostics d = est.source_diagnostics(VelocitySource::kCanbus);
  EXPECT_FALSE(d.quarantined);
  // Probation, not a clean slate: readmit() resets health to 0.5 and the
  // readmitting probe itself is accepted, earning one recovery step.
  EXPECT_DOUBLE_EQ(d.health, 0.5 + defaults.health_recover * 0.5);
  EXPECT_DOUBLE_EQ(d.bias_ewma, 0.0);
  EXPECT_EQ(d.accepted, 2u);  // seed + the readmitting probe
}

TEST(OnlineDefense, FailedProbeReArmsTheHold) {
  OnlineGradientEstimator est(vehicle::VehicleParams{});
  const OnlineDefenseConfig defaults;
  const double t_q = quarantine_canbus(est, 0.0);
  // First probe after the hold fails -> the hold re-arms; good
  // measurements right after must NOT count as probes.
  double t = t_q + defaults.readmit_after_s + 0.1;
  est.push_canbus(t, 60.0);
  for (int k = 0; k < defaults.readmit_probes; ++k) {
    t += 0.1;
    est.push_canbus(t, 10.0);
  }
  EXPECT_TRUE(est.source_diagnostics(VelocitySource::kCanbus).quarantined);
  // After the re-armed hold expires, consistent probes readmit as usual.
  t += defaults.readmit_after_s;
  for (int k = 0; k < defaults.readmit_probes; ++k) {
    t += 0.1;
    est.push_canbus(t, 10.0);
  }
  EXPECT_FALSE(est.source_diagnostics(VelocitySource::kCanbus).quarantined);
}

TEST(OnlineDefense, QuarantinedSourceExcludedFromFusionMasks) {
  OnlineGradientEstimator est(vehicle::VehicleParams{});
  // Seed two sources; then collapse only canbus.
  est.push_speedometer(0.05, 10.0);
  quarantine_canbus(est, 0.0);
  sensors::ImuSample imu;
  imu.t = 20.0;
  imu.accel_vertical = 9.81;
  est.push_imu(imu);
  const OnlineEstimate e = est.estimate();
  const auto canbus_bit = static_cast<std::uint8_t>(
      1u << static_cast<unsigned>(VelocitySource::kCanbus));
  const auto spd_bit = static_cast<std::uint8_t>(
      1u << static_cast<unsigned>(VelocitySource::kSpeedometer));
  EXPECT_EQ(e.sources_quarantined_mask, canbus_bit);
  EXPECT_EQ(e.sources_fused_mask & canbus_bit, 0);
  EXPECT_EQ(e.sources_fused_mask & spd_bit, spd_bit);
}

TEST(OnlineDefense, AllQuarantinedFallsBackToFusingEverything) {
  OnlineGradientEstimator est(vehicle::VehicleParams{});
  quarantine_canbus(est, 0.0);  // the only seeded source
  sensors::ImuSample imu;
  imu.t = 20.0;
  imu.accel_vertical = 9.81;
  est.push_imu(imu);
  const OnlineEstimate e = est.estimate();
  // Degraded continuity beats silence: the masks are equal and non-zero.
  EXPECT_NE(e.sources_fused_mask, 0);
  EXPECT_EQ(e.sources_fused_mask, e.sources_quarantined_mask);
}

#if RGE_OBS_ENABLED
TEST(OnlineDefense, SourceGaugesCountLiveEstimatorsOnly) {
  obs::reset_all();
  obs::set_enabled(true);
  const auto gauge = [](const std::string& name) {
    const auto snap = obs::Registry::global().snapshot();
    const auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? std::int64_t{0} : it->second;
  };
  // Three estimators in turn, each fed 1 s of IMU and speedometer samples
  // (and a quarantined CAN bus), then destroyed.
  for (int k = 0; k < 3; ++k) {
    OnlineGradientEstimator est(vehicle::VehicleParams{});
    for (int i = 0; i < 50; ++i) {
      const double t = 0.02 * i;
      if (i % 5 == 0) est.push_speedometer(t, 10.0);
      sensors::ImuSample imu;
      imu.t = t;
      imu.accel_vertical = 9.81;
      est.push_imu(imu);
    }
    quarantine_canbus(est, 1.0);
    EXPECT_EQ(gauge("online.health.speedometer"), 1000) << "estimator " << k;
    EXPECT_EQ(gauge("online.r_eff.speedometer"), 160) << "estimator " << k;
    EXPECT_EQ(gauge("online.quarantined.canbus"), 1) << "estimator " << k;
  }
  EXPECT_EQ(gauge("online.health.speedometer"), 0);
  EXPECT_EQ(gauge("online.r_eff.speedometer"), 0);
  EXPECT_EQ(gauge("online.health.canbus"), 0);
  EXPECT_EQ(gauge("online.quarantined.canbus"), 0);
  obs::set_enabled(false);
  obs::reset_all();
}
#endif

}  // namespace
}  // namespace rge::core
