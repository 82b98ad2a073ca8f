// Fleet batch estimator parity and determinism:
//   * every lane of OnlineEstimatorBatch / run_online_batch matches an
//     independent scalar OnlineGradientEstimator fed the same stream,
//     across the full scenario matrix (hostile worlds included) — bit-exact
//     with RGE_SIMD=OFF, pinned tolerance (masks and detections still
//     exactly equal) with RGE_SIMD=ON;
//   * fleet results are bit-identical for any thread count and any
//     lanes-per-block grouping, and invariant under lane permutation;
//   * the refilling lane store: a fleet with more traces than lanes
//     (empty, one-sample and equal-length traces included) streams to
//     the same bits at every thread count and block size, and a lane
//     reset for a new trace behaves exactly like a fresh lane;
//   * the lockstep push_imu hot path performs zero heap allocations at
//     steady state (same global-new counting as the scalar test);
//   * filter-state ownership: a batch never moves (its lanes point into
//     its store), and a standalone estimator moved mid-trace carries its
//     own store along.
#include "core/online_estimator_batch.hpp"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "math/simd.hpp"
#include "obs/obs.hpp"
#include "testing/scenario.hpp"

// ---- allocation counting ------------------------------------------------
namespace {
std::atomic<std::int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// Out of line: where GCC inlines a delete into a caller it flags the
// free() against the (not inlined) operator new it pairs with
// (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

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

void expect_estimate_parity(const OnlineEstimate& batch,
                            const OnlineEstimate& scalar,
                            const std::string& label) {
  // Timestamps, detections and the defense-layer masks are discrete
  // decisions: exactly equal in every build mode.
  EXPECT_EQ(batch.t, scalar.t) << label;
  EXPECT_EQ(batch.in_lane_change, scalar.in_lane_change) << label;
  EXPECT_EQ(batch.lane_changes_detected, scalar.lane_changes_detected)
      << label;
  EXPECT_EQ(batch.sources_fused_mask, scalar.sources_fused_mask) << label;
  EXPECT_EQ(batch.sources_quarantined_mask, scalar.sources_quarantined_mask)
      << label;
  if constexpr (math::simd_enabled()) {
    const auto near = [&](double a, double b) {
      EXPECT_NEAR(a, b, 1e-6 * std::max(1.0, std::abs(b))) << label;
    };
    near(batch.grade_rad, scalar.grade_rad);
    near(batch.grade_var, scalar.grade_var);
    near(batch.speed_mps, scalar.speed_mps);
    near(batch.odometry_m, scalar.odometry_m);
  } else {
    EXPECT_EQ(batch.grade_rad, scalar.grade_rad) << label;
    EXPECT_EQ(batch.grade_var, scalar.grade_var) << label;
    EXPECT_EQ(batch.speed_mps, scalar.speed_mps) << label;
    EXPECT_EQ(batch.odometry_m, scalar.odometry_m) << label;
  }
}

void expect_lane_changes_equal(const std::vector<DetectedLaneChange>& a,
                               const std::vector<DetectedLaneChange>& b,
                               const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_start, b[i].t_start) << label;
    EXPECT_EQ(a[i].t_end, b[i].t_end) << label;
    EXPECT_EQ(a[i].type, b[i].type) << label;
  }
}

/// Every field of two estimates equal bit for bit (lanes of the batch
/// layer in either SIMD mode).
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

/// Lockstep drive of one OnlineEstimatorBatch: lane l streams
/// *lane_traces[l] in run_online_batch's merge order; a null entry keeps
/// the lane inactive. Lanes whose trace ran out go inactive.
void drive_lanes(OnlineEstimatorBatch& batch,
                 const std::vector<const sensors::SensorTrace*>& lane_traces) {
  const std::size_t n = lane_traces.size();
  std::vector<std::size_t> gi(n), si(n), ci(n), bi(n), ii(n);
  std::vector<sensors::ImuSample> samples(n);
  std::vector<std::uint8_t> active(n, 1);
  bool any = true;
  while (any) {
    any = false;
    for (std::size_t l = 0; l < n; ++l) {
      const sensors::SensorTrace* tr = lane_traces[l];
      if (tr == nullptr || ii[l] >= tr->imu.size()) {
        active[l] = 0;
        continue;
      }
      any = true;
      active[l] = 1;
      const auto& imu = tr->imu[ii[l]++];
      while (gi[l] < tr->gps.size() && tr->gps[gi[l]].t <= imu.t) {
        batch.push_gps(l, tr->gps[gi[l]++]);
      }
      while (si[l] < tr->speedometer.size() &&
             tr->speedometer[si[l]].t <= imu.t) {
        batch.push_speedometer(l, tr->speedometer[si[l]].t,
                               tr->speedometer[si[l]].value);
        ++si[l];
      }
      while (ci[l] < tr->canbus_speed.size() &&
             tr->canbus_speed[ci[l]].t <= imu.t) {
        batch.push_canbus(l, tr->canbus_speed[ci[l]].t,
                          tr->canbus_speed[ci[l]].value);
        ++ci[l];
      }
      while (bi[l] < tr->barometer_alt.size() &&
             tr->barometer_alt[bi[l]].t <= imu.t) {
        batch.push_baro(l, tr->barometer_alt[bi[l]].t,
                        tr->barometer_alt[bi[l]].value);
        ++bi[l];
      }
      samples[l] = imu;
    }
    if (any) batch.push_imu(samples, active);
  }
}

/// All scenario traces as one heterogeneous fleet (different lengths, so
/// lanes go inactive at different rounds).
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
  const OnlineEstimatorConfig config{};
  // Small blocks so the fleet spans several OnlineEstimatorBatch
  // instances and some blocks carry a partial lane set.
  const auto fleet = run_online_batch(traces, params, config,
                                      /*n_threads=*/2, /*lanes_per_block=*/5);
  ASSERT_EQ(fleet.size(), traces.size());

  for (std::size_t i = 0; i < traces.size(); ++i) {
    OnlineGradientEstimator scalar(params, config);
    stream_trace(scalar, traces[i]);
    const std::string label = "lane " + std::to_string(i);
    expect_estimate_parity(fleet[i].final_estimate, scalar.estimate(),
                           label);
    expect_lane_changes_equal(fleet[i].lane_changes, scalar.lane_changes(),
                              label);
  }
}

TEST(OnlineEstimatorBatch, DirectBatchMatchesScalarWithDiagnostics) {
  // Drive one OnlineEstimatorBatch directly (not through run_online_batch)
  // against scalar estimators, and compare the per-source defense
  // diagnostics lane by lane.
  const auto matrix = rge::testing::scenario_matrix();
  std::vector<sensors::SensorTrace> traces;
  for (const auto& spec : matrix) {
    const auto world = rge::testing::build_world(spec);
    if (!world.traces.empty() && !world.traces.front().imu.empty()) {
      traces.push_back(world.traces.front());
    }
    if (traces.size() == 4) break;
  }
  ASSERT_EQ(traces.size(), 4u);

  const vehicle::VehicleParams params{};
  const OnlineEstimatorConfig config{};
  OnlineEstimatorBatch batch(traces.size(), params, config);
  std::vector<const sensors::SensorTrace*> lane_traces;
  for (const auto& tr : traces) lane_traces.push_back(&tr);
  drive_lanes(batch, lane_traces);

  for (std::size_t l = 0; l < traces.size(); ++l) {
    OnlineGradientEstimator scalar(params, config);
    stream_trace(scalar, traces[l]);
    const std::string label = "lane " + std::to_string(l);
    expect_estimate_parity(batch.estimate(l), scalar.estimate(), label);
    for (const auto which :
         {VelocitySource::kGps, VelocitySource::kSpeedometer,
          VelocitySource::kCanbus}) {
      const auto db = batch.source_diagnostics(l, which);
      const auto ds = scalar.source_diagnostics(which);
      EXPECT_EQ(db.seeded, ds.seeded) << label;
      EXPECT_EQ(db.quarantined, ds.quarantined) << label;
      EXPECT_EQ(db.accepted, ds.accepted) << label;
      EXPECT_EQ(db.gate_rejected, ds.gate_rejected) << label;
    }
  }
}

TEST(OnlineEstimatorBatch, FleetResultsDeterministicAcrossThreadsAndBlocks) {
  const auto traces = scenario_fleet();
  ASSERT_GE(traces.size(), 4u);
  const vehicle::VehicleParams params{};
  const auto ref = run_online_batch(traces, params, {}, 1, 0);
  // Lanes are independent, so any thread count and any lanes-per-block
  // grouping must reproduce the same bits — even in SIMD builds.
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
                                " lane " + std::to_string(i);
      EXPECT_EQ(out[i].final_estimate.grade_rad,
                ref[i].final_estimate.grade_rad)
          << label;
      EXPECT_EQ(out[i].final_estimate.speed_mps,
                ref[i].final_estimate.speed_mps)
          << label;
      EXPECT_EQ(out[i].final_estimate.odometry_m,
                ref[i].final_estimate.odometry_m)
          << label;
      EXPECT_EQ(out[i].final_estimate.sources_fused_mask,
                ref[i].final_estimate.sources_fused_mask)
          << label;
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
  // picks each vehicle's lane itself (longest first), so this pins the
  // schedule against input order; PermutedLaneAssignmentBitExact moves
  // vehicles between SoA lanes directly.
  std::vector<sensors::SensorTrace> reversed(traces.rbegin(), traces.rend());
  const auto out =
      run_online_batch(reversed, params, {}, 1, reversed.size());
  ASSERT_EQ(out.size(), ref.size());
  const std::size_t n = ref.size();
  for (std::size_t i = 0; i < n; ++i) {
    const auto& a = out[i].final_estimate;
    const auto& b = ref[n - 1 - i].final_estimate;
    EXPECT_EQ(a.grade_rad, b.grade_rad) << "lane " << i;
    EXPECT_EQ(a.grade_var, b.grade_var) << "lane " << i;
    EXPECT_EQ(a.speed_mps, b.speed_mps) << "lane " << i;
    EXPECT_EQ(a.odometry_m, b.odometry_m) << "lane " << i;
    EXPECT_EQ(a.sources_fused_mask, b.sources_fused_mask) << "lane " << i;
    expect_lane_changes_equal(out[i].lane_changes,
                              ref[n - 1 - i].lane_changes,
                              "lane " + std::to_string(i));
  }
}

/// More traces than the lane store holds, in uneven lengths: the scenario
/// fleet, a prefix of every trace, three traces cut to one shared length,
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
    expect_estimate_parity(ref[i].final_estimate, scalar[i].estimate(),
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

TEST(OnlineEstimatorBatch, PermutedLaneAssignmentBitExact) {
  // run_online_batch picks the lane order itself; here the caller does.
  const auto traces = scenario_fleet();
  ASSERT_GE(traces.size(), 6u);
  const std::size_t n = 6;
  const vehicle::VehicleParams params{};
  const std::size_t perm[n] = {3, 5, 0, 4, 1, 2};
  std::vector<const sensors::SensorTrace*> identity;
  std::vector<const sensors::SensorTrace*> permuted;
  for (std::size_t l = 0; l < n; ++l) {
    identity.push_back(&traces[l]);
    permuted.push_back(&traces[perm[l]]);
  }
  OnlineEstimatorBatch a(n, params);
  OnlineEstimatorBatch b(n, params);
  drive_lanes(a, identity);
  drive_lanes(b, permuted);
  for (std::size_t l = 0; l < n; ++l) {
    const std::string label = "trace " + std::to_string(perm[l]);
    expect_estimate_bits(b.estimate(l), a.estimate(perm[l]), label);
    expect_lane_changes_equal(b.lane_changes(l), a.lane_changes(perm[l]),
                              label);
    EXPECT_EQ(b.accel_bias_estimate(l), a.accel_bias_estimate(perm[l]))
        << label;
  }
}

TEST(OnlineEstimatorBatch, RefilledLaneMatchesFreshLane) {
  const auto traces = scenario_fleet();
  ASSERT_GE(traces.size(), 3u);
  const vehicle::VehicleParams params{};
  const sensors::SensorTrace& a = traces[0];
  const sensors::SensorTrace& b = traces[1];
  const sensors::SensorTrace& other = traces[2];

  // Trace a, then trace b through lane 0, next to a busy lane 1.
  OnlineEstimatorBatch refilled(2, params);
  drive_lanes(refilled, {&a, &other});
  refilled.reset_lane(0);
  drive_lanes(refilled, {&b, nullptr});

  OnlineEstimatorBatch fresh(2, params);
  drive_lanes(fresh, {&b, nullptr});

  expect_estimate_bits(refilled.estimate(0), fresh.estimate(0), "lane 0");
  expect_lane_changes_equal(refilled.lane_changes(0), fresh.lane_changes(0),
                            "lane 0");
  EXPECT_EQ(refilled.accel_bias_estimate(0), fresh.accel_bias_estimate(0));
  for (const auto which : {VelocitySource::kGps, VelocitySource::kSpeedometer,
                           VelocitySource::kCanbus}) {
    const auto dr = refilled.source_diagnostics(0, which);
    const auto df = fresh.source_diagnostics(0, which);
    EXPECT_EQ(dr.seeded, df.seeded);
    EXPECT_EQ(dr.quarantined, df.quarantined);
    EXPECT_EQ(dr.health, df.health);
    EXPECT_EQ(dr.r_eff, df.r_eff);
    EXPECT_EQ(dr.accepted, df.accepted);
    EXPECT_EQ(dr.gate_rejected, df.gate_rejected);
  }
}

TEST(OnlineEstimatorBatch, SteadyStateLockstepPushImuDoesNotAllocate) {
  rge::obs::set_enabled(false);
  constexpr std::size_t kLanes = 4;
  OnlineEstimatorBatch batch(kLanes, vehicle::VehicleParams{});

  // Straight constant-speed fleet: gyro jitter below the detector zero
  // band, CAN-bus speed at 1 Hz per lane (same pattern as the scalar
  // steady-state test).
  const double imu_dt = 0.02;
  double next_canbus_t = 0.0;
  std::vector<sensors::ImuSample> samples(kLanes);
  std::vector<std::uint8_t> active(kLanes, 1);
  const auto drive = [&](double t_begin, double t_end) {
    for (double t = t_begin; t < t_end; t += imu_dt) {
      if (t >= next_canbus_t) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          batch.push_canbus(l, t, 15.0 + static_cast<double>(l));
        }
        next_canbus_t = t + 1.0;
      }
      for (std::size_t l = 0; l < kLanes; ++l) {
        samples[l].t = t;
        samples[l].accel_forward = 0.01;
        samples[l].gyro_z = 0.001 * std::sin(t + static_cast<double>(l));
      }
      batch.push_imu(samples, active);
    }
  };

  drive(0.0, 40.0);  // warm up past the detection-ring fill point

  const std::int64_t before = g_allocations.load(std::memory_order_relaxed);
  drive(40.0, 60.0);
  const std::int64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0)
      << (after - before)
      << " allocations in the batch steady-state window";
}

TEST(OnlineEstimatorBatch, ShortSpansRejected) {
  OnlineEstimatorBatch batch(3, vehicle::VehicleParams{});
  std::vector<sensors::ImuSample> two(2);
  EXPECT_THROW(batch.push_imu(two), std::invalid_argument);
  std::vector<sensors::ImuSample> three(3);
  std::vector<std::uint8_t> short_mask(1, 1);
  EXPECT_THROW(batch.push_imu(three, short_mask), std::invalid_argument);
  EXPECT_THROW(batch.estimate(3), std::out_of_range);
}

TEST(OnlineEstimatorBatch, EmptyFleetReturnsEmpty) {
  EXPECT_TRUE(
      run_online_batch({}, vehicle::VehicleParams{}, {}, 1, 0).empty());
}

// Each lane's estimator points into the batch's filter store, so moving
// the batch would leave them reading the moved-from store.
static_assert(!std::is_move_constructible_v<OnlineEstimatorBatch>);
static_assert(!std::is_copy_constructible_v<OnlineEstimatorBatch>);

TEST(OnlineFilterStore, MovedStandaloneEstimatorMatchesUnmovedTwin) {
  // A standalone estimator owns its three-lane store on the heap: moved
  // halfway through a trace, with the moved-from object destroyed before
  // the second half, it must finish on the same bits as a twin.
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
