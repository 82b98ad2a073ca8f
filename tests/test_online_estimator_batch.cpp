// run_online_batch parity and determinism:
//   * every result of run_online_batch equals a standalone
//     OnlineGradientEstimator fed the same stream, bit for bit in every
//     build mode, across the full scenario matrix (hostile worlds
//     included);
//   * fleet results are bit-identical for any thread count and any
//     traces-per-block grouping, and invariant under input order;
//   * an uneven fleet (empty, one-sample and equal-length traces
//     included) streams to the same bits at every thread count and block
//     size;
//   * a standalone estimator moved mid-trace carries its filters along.
#include "core/online_estimator_batch.hpp"

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testing/scenario.hpp"

namespace rge::core {
namespace {

/// Read positions in one trace's five streams.
struct StreamCursor {
  std::size_t imu = 0;
  std::size_t gps = 0;
  std::size_t speedo = 0;
  std::size_t canbus = 0;
  std::size_t baro = 0;
};

/// Scalar reference stream up to IMU sample `imu_end`, resuming at `c`:
/// the exact merge order run_online_batch documents (all GPS with
/// t <= imu.t, then speedometer, then CAN, then barometer, then the IMU
/// sample).
void stream_until(OnlineGradientEstimator& est,
                  const sensors::SensorTrace& trace, StreamCursor& c,
                  std::size_t imu_end) {
  for (; c.imu < imu_end; ++c.imu) {
    const auto& imu = trace.imu[c.imu];
    while (c.gps < trace.gps.size() && trace.gps[c.gps].t <= imu.t) {
      est.push_gps(trace.gps[c.gps++]);
    }
    while (c.speedo < trace.speedometer.size() &&
           trace.speedometer[c.speedo].t <= imu.t) {
      est.push_speedometer(trace.speedometer[c.speedo].t,
                           trace.speedometer[c.speedo].value);
      ++c.speedo;
    }
    while (c.canbus < trace.canbus_speed.size() &&
           trace.canbus_speed[c.canbus].t <= imu.t) {
      est.push_canbus(trace.canbus_speed[c.canbus].t,
                      trace.canbus_speed[c.canbus].value);
      ++c.canbus;
    }
    while (c.baro < trace.barometer_alt.size() &&
           trace.barometer_alt[c.baro].t <= imu.t) {
      est.push_baro(trace.barometer_alt[c.baro].t,
                    trace.barometer_alt[c.baro].value);
      ++c.baro;
    }
    est.push_imu(imu);
  }
}

void stream_trace(OnlineGradientEstimator& est,
                  const sensors::SensorTrace& trace) {
  StreamCursor c;
  stream_until(est, trace, c, trace.imu.size());
}

void expect_lane_changes_equal(const std::vector<DetectedLaneChange>& a,
                               const std::vector<DetectedLaneChange>& b,
                               const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_start, b[i].t_start) << label;
    EXPECT_EQ(a[i].t_end, b[i].t_end) << label;
    EXPECT_EQ(a[i].type, b[i].type) << label;
    EXPECT_EQ(a[i].displacement_m, b[i].displacement_m) << label;
    EXPECT_EQ(a[i].peak_rate, b[i].peak_rate) << label;
  }
}

/// Every field of two estimates equal bit for bit.
void expect_estimate_bits(const OnlineEstimate& a, const OnlineEstimate& b,
                          const std::string& label) {
  EXPECT_EQ(a.t, b.t) << label;
  EXPECT_EQ(a.grade_rad, b.grade_rad) << label;
  EXPECT_EQ(a.grade_var, b.grade_var) << label;
  EXPECT_EQ(a.speed_mps, b.speed_mps) << label;
  EXPECT_EQ(a.odometry_m, b.odometry_m) << label;
  EXPECT_EQ(a.in_lane_change, b.in_lane_change) << label;
  EXPECT_EQ(a.lane_changes_detected, b.lane_changes_detected) << label;
  EXPECT_EQ(a.sources_fused_mask, b.sources_fused_mask) << label;
  EXPECT_EQ(a.sources_quarantined_mask, b.sources_quarantined_mask)
      << label;
}

/// All scenario traces as one heterogeneous fleet of different lengths.
std::vector<sensors::SensorTrace> scenario_fleet() {
  std::vector<sensors::SensorTrace> traces;
  for (const auto& spec : rge::testing::scenario_matrix()) {
    const auto world = rge::testing::build_world(spec);
    if (!world.traces.empty() && !world.traces.front().imu.empty()) {
      traces.push_back(world.traces.front());
    }
  }
  return traces;
}

TEST(OnlineEstimatorBatch, ScenarioMatrixParityVsScalarLanes) {
  const auto matrix = rge::testing::scenario_matrix();
  ASSERT_GE(matrix.size(), 10u);
  const auto traces = scenario_fleet();
  ASSERT_GE(traces.size(), 10u);

  const vehicle::VehicleParams params{};
  // The defended default and the reference configuration (defense off,
  // full re-scan detection). Small blocks, so the fleet spans several
  // blocks on the pool and one block holds fewer traces than the others.
  OnlineEstimatorConfig reference;
  reference.defense.enabled = false;
  reference.incremental_detection = false;
  for (const OnlineEstimatorConfig& config :
       {OnlineEstimatorConfig{}, reference}) {
    const auto fleet =
        run_online_batch(traces, params, config,
                         /*n_threads=*/2, /*traces_per_block=*/5);
    ASSERT_EQ(fleet.size(), traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
      OnlineGradientEstimator scalar(params, config);
      stream_trace(scalar, traces[i]);
      const std::string label = "trace " + std::to_string(i) +
                                (config.defense.enabled ? "" : " reference");
      expect_estimate_bits(fleet[i].final_estimate, scalar.estimate(),
                           label);
      expect_lane_changes_equal(fleet[i].lane_changes,
                                scalar.lane_changes(), label);
    }
  }
}

TEST(OnlineEstimatorBatch, FleetResultsDeterministicAcrossThreadsAndBlocks) {
  const auto traces = scenario_fleet();
  ASSERT_GE(traces.size(), 4u);
  const vehicle::VehicleParams params{};
  const auto ref = run_online_batch(traces, params, {}, 1, 0);
  // Vehicles are independent, so any thread count and any
  // traces-per-block grouping must reproduce the same bits.
  const struct {
    std::size_t threads;
    std::size_t block;
  } grids[] = {{2, 3}, {8, 1}, {4, 64}, {0, 7}};
  for (const auto& g : grids) {
    const auto out = run_online_batch(traces, params, {}, g.threads, g.block);
    ASSERT_EQ(out.size(), ref.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::string label = "threads=" + std::to_string(g.threads) +
                                " block=" + std::to_string(g.block) +
                                " trace " + std::to_string(i);
      expect_estimate_bits(out[i].final_estimate, ref[i].final_estimate,
                           label);
      expect_lane_changes_equal(out[i].lane_changes, ref[i].lane_changes,
                                label);
    }
  }
}

TEST(OnlineEstimatorBatch, LanePermutationInvarianceBitExact) {
  auto traces = scenario_fleet();
  ASSERT_GE(traces.size(), 4u);
  const vehicle::VehicleParams params{};
  const auto ref = run_online_batch(traces, params, {}, 1, 0);

  // Reverse the fleet: result i must follow trace n-1-i. run_online_batch
  // picks each vehicle's block and turn itself (longest first), so this
  // pins the schedule against input order.
  std::vector<sensors::SensorTrace> reversed(traces.rbegin(), traces.rend());
  const auto out =
      run_online_batch(reversed, params, {}, 1, reversed.size());
  ASSERT_EQ(out.size(), ref.size());
  const std::size_t n = ref.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::string label = "trace " + std::to_string(i);
    expect_estimate_bits(out[i].final_estimate,
                         ref[n - 1 - i].final_estimate, label);
    expect_lane_changes_equal(out[i].lane_changes,
                              ref[n - 1 - i].lane_changes, label);
  }
}

/// Traces of uneven lengths: the scenario fleet, a prefix of every trace, three traces cut to one shared length,
/// a one-sample trace and a trace with no IMU samples at all (its
/// measurements must never be delivered). Measurement streams are kept
/// whole; both run_online_batch and the scalar reference deliver only
/// those due by the last IMU sample.
std::vector<sensors::SensorTrace> uneven_fleet() {
  const auto base = scenario_fleet();
  std::vector<sensors::SensorTrace> traces = base;
  for (const auto& tr : base) {
    traces.push_back(tr);
    traces.back().imu.resize(tr.imu.size() * 2 / 5);
  }
  for (std::size_t k = 0; k < 3; ++k) {
    traces.push_back(base[k]);
    traces.back().imu.resize(2000);
  }
  traces.push_back(base[0]);
  traces.back().imu.resize(1);
  traces.push_back(base[1]);
  traces.back().imu.clear();
  return traces;
}

TEST(OnlineEstimatorBatch, RefillParityAcrossThreadsAndBlocks) {
  const auto traces = uneven_fleet();
  ASSERT_GT(traces.size(), 16u);
  const vehicle::VehicleParams params{};
  const OnlineEstimatorConfig config{};
  std::vector<OnlineGradientEstimator> scalar;
  scalar.reserve(traces.size());
  for (const auto& tr : traces) {
    scalar.emplace_back(params, config);
    stream_trace(scalar.back(), tr);
  }
  const auto ref = run_online_batch(traces, params, config, 1, 64);
  ASSERT_EQ(ref.size(), traces.size());
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::string label = "trace " + std::to_string(i);
    expect_estimate_bits(ref[i].final_estimate, scalar[i].estimate(),
                         label);
    expect_lane_changes_equal(ref[i].lane_changes, scalar[i].lane_changes(),
                              label);
  }
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const std::size_t block : {1u, 3u, 16u, 64u}) {
      const auto out =
          run_online_batch(traces, params, config, threads, block);
      ASSERT_EQ(out.size(), ref.size());
      for (std::size_t i = 0; i < out.size(); ++i) {
        const std::string label = "threads=" + std::to_string(threads) +
                                  " block=" + std::to_string(block) +
                                  " trace " + std::to_string(i);
        expect_estimate_bits(out[i].final_estimate, ref[i].final_estimate,
                             label);
        expect_lane_changes_equal(out[i].lane_changes, ref[i].lane_changes,
                                  label);
      }
    }
  }
}

TEST(OnlineEstimatorBatch, EmptyFleetReturnsEmpty) {
  EXPECT_TRUE(
      run_online_batch({}, vehicle::VehicleParams{}, {}, 1, 0).empty());
}

TEST(OnlineFilterStore, MovedStandaloneEstimatorMatchesUnmovedTwin) {
  // A standalone estimator keeps its filters in its own lane arrays:
  // moved halfway through a trace, with the moved-from object destroyed
  // before the second half, it must finish on the same bits as a twin.
  const vehicle::VehicleParams params{};
  const auto traces = scenario_fleet();
  ASSERT_GE(traces.size(), 10u);
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const sensors::SensorTrace& trace = traces[i];
    const std::string label = "trace " + std::to_string(i);
    OnlineGradientEstimator twin(params);
    stream_trace(twin, trace);

    auto first = std::make_unique<OnlineGradientEstimator>(params);
    StreamCursor cursor;
    stream_until(*first, trace, cursor, trace.imu.size() / 2);
    OnlineGradientEstimator moved(std::move(*first));
    first.reset();
    stream_until(moved, trace, cursor, trace.imu.size());

    expect_estimate_bits(moved.estimate(), twin.estimate(), label);
    expect_lane_changes_equal(moved.lane_changes(), twin.lane_changes(),
                              label);
    EXPECT_EQ(moved.accel_bias_estimate(), twin.accel_bias_estimate())
        << label;
    for (const auto which :
         {VelocitySource::kGps, VelocitySource::kSpeedometer,
          VelocitySource::kCanbus}) {
      const auto dm = moved.source_diagnostics(which);
      const auto dt = twin.source_diagnostics(which);
      EXPECT_EQ(dm.seeded, dt.seeded) << label;
      EXPECT_EQ(dm.health, dt.health) << label;
      EXPECT_EQ(dm.r_eff, dt.r_eff) << label;
      EXPECT_EQ(dm.accepted, dt.accepted) << label;
      EXPECT_EQ(dm.gate_rejected, dt.gate_rejected) << label;
    }
  }
}

}  // namespace
}  // namespace rge::core
