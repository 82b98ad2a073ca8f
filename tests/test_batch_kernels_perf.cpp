// Perf-tier budgets for the SoA batch kernels (ctest -L perf):
//
//   * GradeEkfBatch::predict over a 1000-vehicle fleet must beat stepping
//     1000 scalar GradeEkf instances by >= 4x per core;
//   * batched resample_sorted must not lose to per-query interpolation
//     (>= 1x guard; it is bit-exact, so any win is free);
//   * run_online_batch over 128 uneven partial-span traces, one block on
//     one thread, must not lose to streaming the same traces through
//     scalar OnlineGradientEstimators (>= 1x guard).
//
// Budgets only apply to RGE_SIMD=ON builds (the OFF fallback is the scalar
// code by construction — the test SKIPs) and are halved under
// sanitizers, whose instrumentation flattens vector gains. Measured
// numbers land in BENCH_batch_kernels.json (override with
// RGE_BENCH_BATCH_KERNELS_OUT) as this workload's perf-trajectory
// artifact.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/grade_ekf_batch.hpp"
#include "core/online_estimator_batch.hpp"
#include "math/interp.hpp"
#include "math/interp_batch.hpp"
#include "math/rng.hpp"
#include "math/simd.hpp"
#include "road/network.hpp"
#include "sensors/smartphone.hpp"
#include "testing/json.hpp"
#include "vehicle/trip.hpp"

namespace rge::core {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(const Clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

constexpr double kBudget = kSanitized ? 2.0 : 4.0;
constexpr double kNoLossBudget = kSanitized ? 0.5 : 1.0;

/// The samples of one stream recorded in [t0, t1], timestamps rebased.
template <class Sample>
std::vector<Sample> window(const std::vector<Sample>& xs, double t0,
                           double t1) {
  std::vector<Sample> out;
  for (const Sample& x : xs) {
    if (x.t < t0 || x.t > t1) continue;
    out.push_back(x);
    out.back().t -= t0;
  }
  return out;
}

/// A fleet of phones that each record 25-100 % of a drive, anywhere in
/// it, on city roads of different lengths: the uneven traces a streaming
/// fleet batches together.
std::vector<sensors::SensorTrace> partial_span_fleet(std::size_t n,
                                                     math::Rng& rng) {
  const road::RoadNetwork city = road::make_city_network(2019, 40.0);
  const vehicle::VehicleParams params{};
  std::vector<sensors::SensorTrace> drives;
  for (std::size_t r = 0; r < std::min<std::size_t>(16, city.size()); ++r) {
    const road::Road& road = city.roads()[r].road;
    vehicle::TripConfig tc;
    tc.seed = r + 1;
    tc.cruise_speed_mps = rng.uniform(9.5, 13.5);
    tc.lane_changes_per_km = 1.2;
    sensors::SmartphoneConfig pc;
    pc.seed = r + 70;
    drives.push_back(sensors::simulate_sensors(
        vehicle::simulate_trip(road, tc), road.anchor(), params, pc));
  }
  std::vector<sensors::SensorTrace> fleet(n);
  for (std::size_t i = 0; i < n; ++i) {
    const sensors::SensorTrace& d = drives[i % drives.size()];
    const double dur = d.duration_s();
    const double len = dur * rng.uniform(0.25, 1.0);
    const double t0 = (dur - len) * rng.uniform(0.0, 1.0);
    sensors::SensorTrace& tr = fleet[i];
    tr.imu_rate_hz = d.imu_rate_hz;
    tr.imu = window(d.imu, t0, t0 + len);
    tr.gps = window(d.gps, t0, t0 + len);
    tr.speedometer = window(d.speedometer, t0, t0 + len);
    tr.canbus_speed = window(d.canbus_speed, t0, t0 + len);
    tr.barometer_alt = window(d.barometer_alt, t0, t0 + len);
  }
  return fleet;
}

/// One scalar estimator per trace, streams merged in run_online_batch's
/// dispatcher order. Returns a checksum of the final grades.
double stream_scalar(const std::vector<sensors::SensorTrace>& fleet,
                     const vehicle::VehicleParams& params) {
  double sum = 0.0;
  for (const sensors::SensorTrace& tr : fleet) {
    OnlineGradientEstimator est(params);
    std::size_t gi = 0, si = 0, ci = 0, bi = 0;
    for (const auto& imu : tr.imu) {
      while (gi < tr.gps.size() && tr.gps[gi].t <= imu.t) {
        est.push_gps(tr.gps[gi++]);
      }
      while (si < tr.speedometer.size() && tr.speedometer[si].t <= imu.t) {
        est.push_speedometer(tr.speedometer[si].t, tr.speedometer[si].value);
        ++si;
      }
      while (ci < tr.canbus_speed.size() && tr.canbus_speed[ci].t <= imu.t) {
        est.push_canbus(tr.canbus_speed[ci].t, tr.canbus_speed[ci].value);
        ++ci;
      }
      while (bi < tr.barometer_alt.size() &&
             tr.barometer_alt[bi].t <= imu.t) {
        est.push_baro(tr.barometer_alt[bi].t, tr.barometer_alt[bi].value);
        ++bi;
      }
      est.push_imu(imu);
    }
    sum += est.estimate().grade_rad;
  }
  return sum;
}

TEST(BatchKernelsPerf, FleetSpeedupsMeetBudget) {
  if constexpr (!math::simd_enabled()) {
    GTEST_SKIP() << "RGE_SIMD=OFF: batch kernels are the scalar code";
  }

  const vehicle::VehicleParams params{};
  const GradeEkfConfig cfg{};
  math::Rng rng(51);

  // ---- EKF predict: 1000 lanes x kSteps ------------------------------
  constexpr std::size_t kLanes = 1000;
  const std::size_t ekf_steps = kSanitized ? 400 : 2000;
  std::vector<double> v0(kLanes);
  std::vector<double> th0(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    v0[l] = rng.uniform(3.0, 30.0);
    th0[l] = rng.uniform(-0.08, 0.08);
  }
  std::vector<double> f(kLanes);
  std::vector<double> dt(kLanes, 0.02);
  for (auto& x : f) x = rng.uniform(-3.0, 3.0);

  std::vector<GradeEkf> fleet;
  fleet.reserve(kLanes);
  for (std::size_t l = 0; l < kLanes; ++l) {
    fleet.emplace_back(params, cfg, v0[l], th0[l]);
  }
  GradeEkfBatch batch(kLanes, params, cfg);
  for (std::size_t l = 0; l < kLanes; ++l) batch.seed(l, v0[l], th0[l]);

  // Warm both paths (page in code + state).
  for (std::size_t l = 0; l < kLanes; ++l) fleet[l].predict(f[l], 0.02);
  batch.predict(f, dt);

  const auto t_scalar = Clock::now();
  for (std::size_t s = 0; s < ekf_steps; ++s) {
    for (std::size_t l = 0; l < kLanes; ++l) fleet[l].predict(f[l], 0.02);
  }
  const double ekf_scalar_ms = ms_since(t_scalar);
  const auto t_batch = Clock::now();
  for (std::size_t s = 0; s < ekf_steps; ++s) batch.predict(f, dt);
  const double ekf_batch_ms = ms_since(t_batch);
  const double ekf_speedup = ekf_scalar_ms / ekf_batch_ms;
  // Keep the optimizer honest: consume both results.
  double checksum = 0.0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    checksum += batch.grade(l) + fleet[l].grade();
  }
  ASSERT_TRUE(std::isfinite(checksum));

  EXPECT_GE(ekf_speedup, kBudget)
      << "EKF fleet predict: scalar " << ekf_scalar_ms << " ms vs batch "
      << ekf_batch_ms << " ms";

  // ---- Interp resampling: guard only (bit-exact kernel) --------------
  const std::size_t interp_n = 20000;
  const std::size_t interp_q = 50000;
  std::vector<double> keys(interp_n);
  std::vector<double> vals(interp_n);
  double s = 0.0;
  for (std::size_t i = 0; i < interp_n; ++i) {
    s += rng.uniform(0.01, 1.0);
    keys[i] = s;
    vals[i] = rng.gaussian(0.0, 2.0);
  }
  std::vector<double> queries(interp_q);
  for (std::size_t i = 0; i < interp_q; ++i) {
    queries[i] = s * static_cast<double>(i) / static_cast<double>(interp_q);
  }
  const math::LinearInterpolator interp(keys, vals);
  std::vector<double> out(interp_q);
  math::resample_sorted(keys, vals, queries, out);  // warm

  const auto t_iscalar = Clock::now();
  double isum = 0.0;
  for (std::size_t i = 0; i < interp_q; ++i) isum += interp(queries[i]);
  const double interp_scalar_ms = ms_since(t_iscalar);
  const auto t_ibatch = Clock::now();
  math::resample_sorted(keys, vals, queries, out);
  const double interp_batch_ms = ms_since(t_ibatch);
  for (double v : out) isum += v;
  ASSERT_TRUE(std::isfinite(isum));
  const double interp_speedup = interp_scalar_ms / interp_batch_ms;
  EXPECT_GE(interp_speedup, 1.0)
      << "batched resample lost to per-query interpolation: scalar "
      << interp_scalar_ms << " ms vs batch " << interp_batch_ms << " ms";

  // ---- Online fleet: uneven traces, one block, one thread ------------
  const std::size_t online_traces = 128;
  const auto fleet_traces = partial_span_fleet(online_traces, rng);
  std::size_t online_steps = 0;
  for (const auto& tr : fleet_traces) online_steps += tr.imu.size();
  const int online_runs = 5;
  double online_scalar_ms = std::numeric_limits<double>::infinity();
  double online_batch_ms = std::numeric_limits<double>::infinity();
  double osum = 0.0;
  for (int r = 0; r < online_runs; ++r) {
    const auto t_oscalar = Clock::now();
    osum += stream_scalar(fleet_traces, params);
    online_scalar_ms = std::min(online_scalar_ms, ms_since(t_oscalar));
    const auto t_obatch = Clock::now();
    const auto res = run_online_batch(fleet_traces, params, {}, 1,
                                      online_traces);
    online_batch_ms = std::min(online_batch_ms, ms_since(t_obatch));
    osum += res.back().final_estimate.grade_rad;
  }
  ASSERT_TRUE(std::isfinite(osum));
  const double online_speedup = online_scalar_ms / online_batch_ms;
  EXPECT_GE(online_speedup, kNoLossBudget)
      << "run_online_batch lost to scalar estimators on an uneven fleet: "
      << "scalar " << online_scalar_ms << " ms vs batch " << online_batch_ms
      << " ms (min of " << online_runs << " alternating runs)";

  // ---- perf-trajectory artifact --------------------------------------
  testing::Json::Object doc;
  doc["workload"] = testing::Json::Object{
      {"fleet_lanes", kLanes},
      {"ekf_steps", ekf_steps},
      {"interp_keys", interp_n},
      {"interp_queries", interp_q},
      {"online_traces", online_traces},
      {"online_imu_steps", online_steps},
      {"sanitized", kSanitized},
      {"simd", math::simd_enabled()},
  };
  doc["ekf_predict"] = testing::Json::Object{
      {"scalar_ms", ekf_scalar_ms},
      {"batch_ms", ekf_batch_ms},
      {"speedup", ekf_speedup},
      {"budget_min_speedup", kBudget},
  };
  doc["interp"] = testing::Json::Object{
      {"scalar_ms", interp_scalar_ms},
      {"batch_ms", interp_batch_ms},
      {"speedup", interp_speedup},
      {"budget_min_speedup", 1.0},
  };
  doc["online_uneven_fleet"] = testing::Json::Object{
      {"scalar_ms", online_scalar_ms},
      {"batch_ms", online_batch_ms},
      {"speedup", online_speedup},
      {"budget_min_speedup", kNoLossBudget},
  };
  const char* out_path = std::getenv("RGE_BENCH_BATCH_KERNELS_OUT");
  testing::write_json_file(testing::Json(doc),
                           out_path != nullptr ? out_path
                                               : "BENCH_batch_kernels.json");
}

}  // namespace
}  // namespace rge::core
