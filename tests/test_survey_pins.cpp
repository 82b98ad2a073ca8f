// Bit pins for the survey path: FNV-1a fingerprints over every output
// array of estimate_gradient on two seeded trips, and over
// CsrGraph::potential for every node pair and metric on the stitched
// 164.8 km city network. OnlinePins does the same for the streaming
// OnlineGradientEstimator over every scenario's first trip, clean and
// under the three faults its defense layer sees, and BaselinePins for the
// altitude-EKF baseline over the same streams.
//
// The fingerprints hash raw IEEE-754 bits, so any rewrite of the
// resampling, alignment, landmark or filter code that moves a
// single output bit fails here. Change a pin only for a deliberate
// numerical change, and record why in the change log.
//
// The pipeline and online pins have two sets. The causal EKFs run on the
// trip kernel (run_grade_ekf_trip) and the online estimator's four-lane
// predict, whose predict under RGE_SIMD=ON uses polynomial sin/cos and
// hoisted reciprocals (DESIGN.md §8): one value holds under RGE_SIMD=OFF,
// where every output equals the libm scalar path, and one under ON, in
// the default and the sanitizer builds alike (both TUs compile with
// -ffp-contract=off).
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/ekf_altitude.hpp"
#include "core/online_estimator.hpp"
#include "core/pipeline.hpp"
#include "math/simd.hpp"
#include "planning/city_gen.hpp"
#include "planning/csr_graph.hpp"
#include "road/network.hpp"
#include "sensors/trace.hpp"
#include "testing/fault_injection.hpp"
#include "testing/network_survey.hpp"
#include "testing/scenario.hpp"
#include "vehicle/params.hpp"

#include "fnv1a.hpp"
#include "pin_inputs.hpp"

namespace rge {
namespace {

using testing::Fnv1a;
using testing::kPinFaults;

void hash_lane_changes(Fnv1a& h,
                       const std::vector<core::DetectedLaneChange>& lcs) {
  h.u64(lcs.size());
  for (const auto& lc : lcs) {
    h.f64(lc.t_start);
    h.f64(lc.t_end);
    h.u64(static_cast<std::uint64_t>(lc.type));
    h.f64(lc.displacement_m);
    h.f64(lc.peak_rate);
  }
}

void hash_track(Fnv1a& h, const core::GradeTrack& tr) {
  h.str(tr.source);
  h.f64s(tr.t);
  h.f64s(tr.grade);
  h.f64s(tr.grade_var);
  h.f64s(tr.speed);
  h.f64s(tr.s);
}

/// Every output array of one pipeline run, in declaration order.
std::uint64_t fingerprint(const core::PipelineResult& r) {
  Fnv1a h;
  h.u64(r.sanitize.total());
  h.f64(r.mount.yaw_rad);
  h.f64(r.mount.crown_estimate);
  h.u64(r.mount.samples_used);
  h.u64(r.mount.reliable ? 1 : 0);
  const core::AlignedStates& a = r.aligned;
  h.f64s(a.t);
  h.f64s(a.yaw_rate);
  h.f64s(a.road_rate);
  h.f64s(a.steer_rate);
  h.f64s(a.accel_forward);
  h.u64(a.gps_available.size());
  for (const bool g : a.gps_available) h.u64(g ? 1 : 0);
  h.f64s(r.det_t);
  h.f64s(r.det_steer_raw);
  h.f64s(r.det_steer_smoothed);
  h.f64s(r.det_speed);
  hash_lane_changes(h, r.lane_changes);
  h.u64(r.tracks.size());
  for (const auto& tr : r.tracks) hash_track(h, tr);
  hash_track(h, r.fused);
  return h.value();
}

TEST(SurveyPins, PipelineOutputsOnLaneChangeTrip) {
  const auto res = core::estimate_gradient(testing::lane_change_pin_trace(),
                                           vehicle::VehicleParams{});
  ASSERT_FALSE(res.lane_changes.empty());
  EXPECT_EQ(fingerprint(res), math::simd_enabled() ? 0x12a45253db658669ull
                                                   : 0x8ce50b67c518b795ull);
}

TEST(SurveyPins, PipelineOutputsOnCityRoadWithMountYawAndOutage) {
  const auto res = core::estimate_gradient(testing::city_pin_trace(),
                                           vehicle::VehicleParams{});
  ASSERT_TRUE(res.mount.reliable);
  EXPECT_EQ(fingerprint(res), math::simd_enabled() ? 0x986e295f18a53df8ull
                                                   : 0x2d78400854f3c5f1ull);
}

TEST(SurveyPins, LandmarkPotentialsOnCityNetwork) {
  const road::RoadNetwork net = road::make_city_network(2019);
  // Ground-truth profiles: the pin isolates the graph from the pipeline.
  const auto truth = testing::survey_network_grades(
      net, /*trips_per_road=*/0, /*base_seed=*/9000, /*step_m=*/25.0);
  const planning::CsrGraph csr(
      planning::build_network_graph(net, truth, 25.0));
  const std::size_t n = csr.node_count();
  ASSERT_GT(n, 100u);
  const std::uint64_t pins[planning::kMetricCount] = {
      0x437907b31bb9d23aull, 0x1a17333973d2655eull, 0xb033610a49362ff9ull,
      0x09802e5174b7e7f7ull};
  for (int mi = 0; mi < planning::kMetricCount; ++mi) {
    const auto m = static_cast<planning::Metric>(mi);
    Fnv1a h;
    for (const std::size_t lm : csr.landmarks(m)) h.u64(lm);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t t = 0; t < n; ++t) h.f64(csr.potential(m, v, t));
    }
    EXPECT_EQ(h.value(), pins[mi]) << planning::metric_name(m);
  }
}

void hash_estimate(Fnv1a& h, const core::OnlineEstimate& e) {
  h.f64(e.t);
  h.f64(e.grade_rad);
  h.f64(e.grade_var);
  h.f64(e.speed_mps);
  h.f64(e.odometry_m);
  h.u64(e.in_lane_change ? 1 : 0);
  h.u64(e.lane_changes_detected);
  h.u64(e.sources_fused_mask);
  h.u64(e.sources_quarantined_mask);
}

/// What one stream exercised, so the pins are known to cover the defense
/// layer and the detector.
struct StreamCoverage {
  std::uint64_t gate_rejected = 0;
  std::size_t lane_changes = 0;
  bool accel_bias = false;  ///< the bias estimate ended non-zero
};

/// Streams `trace` through a fresh estimator in run_online_batch's merge
/// order (every GPS fix, speedometer, CAN and barometer sample with
/// t <= imu.t, then the IMU sample) and hashes every 25th estimate, the
/// final estimate, the lane changes, all three sources' diagnostics and
/// the accel-bias estimate.
StreamCoverage hash_online_stream(Fnv1a& h, const sensors::SensorTrace& trace,
                                  const core::OnlineEstimatorConfig& cfg) {
  core::OnlineGradientEstimator est(vehicle::VehicleParams{}, cfg);
  StreamCoverage cov;
  std::size_t gi = 0, si = 0, ci = 0, bi = 0, step = 0;
  for (const auto& imu : trace.imu) {
    while (gi < trace.gps.size() && trace.gps[gi].t <= imu.t) {
      est.push_gps(trace.gps[gi++]);
    }
    while (si < trace.speedometer.size() && trace.speedometer[si].t <= imu.t) {
      est.push_speedometer(trace.speedometer[si].t,
                           trace.speedometer[si].value);
      ++si;
    }
    while (ci < trace.canbus_speed.size() &&
           trace.canbus_speed[ci].t <= imu.t) {
      est.push_canbus(trace.canbus_speed[ci].t, trace.canbus_speed[ci].value);
      ++ci;
    }
    while (bi < trace.barometer_alt.size() &&
           trace.barometer_alt[bi].t <= imu.t) {
      est.push_baro(trace.barometer_alt[bi].t, trace.barometer_alt[bi].value);
      ++bi;
    }
    est.push_imu(imu);
    if (++step % 25 == 0) hash_estimate(h, est.estimate());
  }
  hash_estimate(h, est.estimate());
  hash_lane_changes(h, est.lane_changes());
  for (const auto which :
       {core::VelocitySource::kGps, core::VelocitySource::kSpeedometer,
        core::VelocitySource::kCanbus}) {
    const core::SourceDiagnostics d = est.source_diagnostics(which);
    h.u64(d.seeded ? 1 : 0);
    h.u64(d.quarantined ? 1 : 0);
    h.f64(d.health);
    h.f64(d.nis_ewma);
    h.f64(d.bias_ewma);
    h.f64(d.r_eff);
    h.u64(d.accepted);
    h.u64(d.gate_rejected);
    cov.gate_rejected += d.gate_rejected;
  }
  h.f64(est.accel_bias_estimate());
  cov.lane_changes = est.lane_changes().size();
  cov.accel_bias = est.accel_bias_estimate() != 0.0;
  return cov;
}

TEST(OnlinePins, ScenarioStreamsCleanAndFaulted) {
  // Per scenario, trip 0 clean and under the three faults the velocity
  // gate sees, through the default (defended, incremental) estimator and
  // through the reference configuration (defense off, full re-scan
  // detection). Two sets: RGE_SIMD=OFF predicts with libm (the values of
  // every earlier build), and the ON set (the polynomial four-lane
  // predict) holds in the default and asan presets.
  struct Pin {
    std::uint64_t defended;
    std::uint64_t reference;
  };
  const std::map<std::string, Pin> off_pins = {
      {"flat_baseline", {0x36cf7edb09075442ull, 0xbd51338198c9d870ull}},
      {"table3_nominal", {0xe6f140b270fa3e53ull, 0xaca04be3f5055efdull}},
      {"hilly_steep", {0x4c8a66626656660eull, 0x21f3063f3d5e75a6ull}},
      {"rolling_hills_calm", {0xb603e2139da329a3ull, 0x6852bc796797761cull}},
      {"lane_change_storm", {0xd7da0661c23d3f61ull, 0x5298c0c230c61411ull}},
      {"stop_and_go", {0x4a05bb620ec9195full, 0xada80d25a18d8c16ull}},
      {"noisy_phone", {0x97f2d873e918a9eeull, 0x055a072174bea80cull}},
      {"gps_degraded", {0xc9edb45d6ea98e92ull, 0x0487a317d5220199ull}},
      {"highway_cruise", {0xdb64106f294ac556ull, 0xd48bc4977a7d8884ull}},
      {"rts_offline", {0x2419b775552e720eull, 0x147c0e87d5cf445dull}},
      {"cloud_fusion_x3", {0x92b40b913aebea59ull, 0xa4f9e921a5e91a0full}},
      {"hostile_canyon_switchbacks",
       {0x1d66b09680be636cull, 0x74e174318260fcb9ull}},
      {"hostile_steep_canyon", {0x865241eec07c6d0eull, 0x03419272894907bfull}},
      {"hostile_tunnel_canyon",
       {0xfb3631fc30714314ull, 0x377067b0924c3015ull}},
  };
  const std::map<std::string, Pin> on_pins = {
      {"flat_baseline", {0x87f74ba441498298ull, 0x4ae0b0060c371641ull}},
      {"table3_nominal", {0xbcab6831d2b51bb7ull, 0x78e43acb92c40506ull}},
      {"hilly_steep", {0x0c5e31ec1c8e50b4ull, 0xcb1b6b1b50be234eull}},
      {"rolling_hills_calm", {0x42c648f72c89c486ull, 0xac9dcff0ef8b975dull}},
      {"lane_change_storm", {0x24d37aa5c224f4cfull, 0x267a84c99b65c3a1ull}},
      {"stop_and_go", {0x3973cc3ba92306f0ull, 0xe6655efe41c8f8eaull}},
      {"noisy_phone", {0xc5ae34fa30530a7bull, 0xc299e37082f3af85ull}},
      {"gps_degraded", {0x26b6dea323152990ull, 0x86b458473d59e1afull}},
      {"highway_cruise", {0xb6440a683e4875dfull, 0x748c0f58cead3593ull}},
      {"rts_offline", {0x4dce388f807ecab2ull, 0x31b59643763205e5ull}},
      {"cloud_fusion_x3", {0x603898651a083dfcull, 0xa362afa39d4f5383ull}},
      {"hostile_canyon_switchbacks",
       {0xbd0a37c6d948f1dcull, 0x9a18edefdcb5244full}},
      {"hostile_steep_canyon", {0x3362e52b23ab681eull, 0x6831cf16d6973becull}},
      {"hostile_tunnel_canyon",
       {0x4f9e5e64f9a25973ull, 0xdaf39e7ae1138db8ull}},
  };
  const auto& pins = math::simd_enabled() ? on_pins : off_pins;
  core::OnlineEstimatorConfig reference;
  reference.defense.enabled = false;
  reference.incremental_detection = false;

  StreamCoverage total;
  std::size_t streams = 0;
  std::size_t biased = 0;
  const auto matrix = testing::scenario_matrix();
  for (const auto& spec : matrix) {
    const auto world = testing::build_world(spec);
    ASSERT_FALSE(world.traces.empty()) << spec.name;
    Fnv1a defended;
    Fnv1a undefended;
    for (const testing::FaultKind kind : kPinFaults) {
      sensors::SensorTrace trace = world.traces.front();
      testing::apply_fault(trace, testing::make_fault(kind));
      const StreamCoverage cov = hash_online_stream(defended, trace, {});
      hash_online_stream(undefended, trace, reference);
      total.gate_rejected += cov.gate_rejected;
      total.lane_changes += cov.lane_changes;
      if (cov.accel_bias) ++biased;
      ++streams;
    }
    const auto pin = pins.find(spec.name);
    ASSERT_NE(pin, pins.end()) << spec.name << " has no pin";
    EXPECT_EQ(defended.value(), pin->second.defended) << spec.name;
    EXPECT_EQ(undefended.value(), pin->second.reference) << spec.name;
  }
  EXPECT_EQ(pins.size(), matrix.size());
  // The defended streams reach the gate and the detector, and the bias
  // compensator on every stream.
  EXPECT_GT(total.gate_rejected, 0u);
  EXPECT_GT(total.lane_changes, 0u);
  EXPECT_EQ(biased, streams);
}

TEST(BaselinePins, AltitudeEkfOnScenarios) {
  // The Sahlholm & Johansson altitude EKF [7] over every scenario's first
  // trip under kPinFaults; one pin per scenario.
  const std::map<std::string, std::uint64_t> pins = {
      {"flat_baseline", 0x52a008378d107df7ull},
      {"table3_nominal", 0xd8fed0e6f864712bull},
      {"hilly_steep", 0x62c0ab8f7d6afbf7ull},
      {"rolling_hills_calm", 0xb39beaaa59cb9cdbull},
      {"lane_change_storm", 0xf909b800304fbd3cull},
      {"stop_and_go", 0x60d8b01ed6085ebbull},
      {"noisy_phone", 0x5f7fd24093e86c59ull},
      {"gps_degraded", 0x521a9d5988da27b6ull},
      {"highway_cruise", 0x7070d5203e15013aull},
      {"rts_offline", 0x0c206d53137b10d1ull},
      {"cloud_fusion_x3", 0xdfafa0770c62f6dbull},
      {"hostile_canyon_switchbacks", 0x7937726fa99f18a4ull},
      {"hostile_steep_canyon", 0x7a5f0e98ba076f69ull},
      {"hostile_tunnel_canyon", 0xadc2759d51bfbdf7ull},
  };
  const auto matrix = testing::scenario_matrix();
  for (const auto& spec : matrix) {
    const auto world = testing::build_world(spec);
    ASSERT_FALSE(world.traces.empty()) << spec.name;
    Fnv1a h;
    for (const testing::FaultKind kind : kPinFaults) {
      sensors::SensorTrace trace = world.traces.front();
      testing::apply_fault(trace, testing::make_fault(kind));
      hash_track(h, baselines::run_altitude_ekf(trace,
                                                vehicle::VehicleParams{}));
    }
    const auto pin = pins.find(spec.name);
    ASSERT_NE(pin, pins.end()) << spec.name << " has no pin";
    EXPECT_EQ(h.value(), pin->second) << spec.name;
  }
  EXPECT_EQ(pins.size(), matrix.size());
}

}  // namespace
}  // namespace rge
