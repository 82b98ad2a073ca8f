// Perf-tier budgets for the SoA batch kernels (ctest -L perf):
//
//   * the trip kernel (run_grade_ekf_trip, four sources of one city trip)
//     must beat four GradeEkf runs over the same inputs by >= 2.5x: the
//     vectorization canary of ekf_kernel::predict_lanes, which the trip
//     kernel and the online estimator ship (the trip kernel built without
//     the vectorizer reads about 1.5-2.0x);
//   * batched resample_sorted must not lose to per-query interpolation
//     (>= 1x guard; it is bit-exact, so any win is free);
//   * the online estimator's cost per IMU step over 128 uneven
//     partial-span traces (run_online_batch, one block on this thread):
//     recorded, no budget.
//
// Each ratio is the median of paired ratios. The scalar and batch runs
// alternate (ABAB), a fixed number of pairs, each run timed on the calling
// thread's CPU clock (every case runs on this thread alone), which other
// processes and host stalls do not advance.
//
// Budgets only apply to RGE_SIMD=ON builds without sanitizers (the OFF
// fallback is the scalar code by construction — the test SKIPs). Sanitizer
// instrumentation flattens vector gains, so there the ratios are recorded
// but not judged (DESIGN.md §8). Each ratio's min, median and max land in
// BENCH_batch_kernels.json, in the working directory, as this workload's
// perf-trajectory artifact.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/online_estimator_batch.hpp"
#include "math/interp.hpp"
#include "math/interp_batch.hpp"
#include "math/rng.hpp"
#include "math/simd.hpp"
#include "road/network.hpp"
#include "sensors/smartphone.hpp"
#include "testing/json.hpp"
#include "vehicle/trip.hpp"

#include "grade_ekf_reference.hpp"
#include "perf_timing.hpp"

namespace rge::core {
namespace {

using testing::kSanitized;
using testing::thread_cpu_ms;

/// The trip kernel's vectorization canary.
constexpr double kTripBudget = 2.5;

/// Scalar/batch pairs per case; odd, so the median is one pair's ratio.
constexpr std::size_t kPairs = kSanitized ? 5 : 15;

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// A scalar path and its batch counterpart, timed in alternation.
struct PairedTimes {
  std::vector<double> scalar_ms;
  std::vector<double> batch_ms;
  std::vector<double> ratios;  ///< scalar_ms[r] / batch_ms[r]

  double speedup() const { return median(ratios); }

  std::string describe() const {
    return "scalar " + std::to_string(median(scalar_ms)) + " ms vs batch " +
           std::to_string(median(batch_ms)) + " ms (median of " +
           std::to_string(ratios.size()) + " paired ratios, min " +
           std::to_string(*std::min_element(ratios.begin(), ratios.end())) +
           ", max " +
           std::to_string(*std::max_element(ratios.begin(), ratios.end())) +
           ")";
  }

  /// The JSON block; `budget` <= 0 means the ratio has none.
  testing::Json::Object report(double budget) const {
    testing::Json::Object o{
        {"pairs", ratios.size()},
        {"scalar_ms_median", median(scalar_ms)},
        {"batch_ms_median", median(batch_ms)},
        {"speedup_min", *std::min_element(ratios.begin(), ratios.end())},
        {"speedup_median", speedup()},
        {"speedup_max", *std::max_element(ratios.begin(), ratios.end())},
    };
    if (budget > 0.0) o["budget_min_speedup"] = budget;
    return o;
  }
};

/// Runs `scalar` then `batch`, `pairs` times in turn, each run timed on
/// the calling thread's CPU clock.
template <class Scalar, class Batch>
PairedTimes time_pairs(std::size_t pairs, Scalar&& scalar, Batch&& batch) {
  PairedTimes p;
  for (std::size_t r = 0; r < pairs; ++r) {
    const double t0 = thread_cpu_ms();
    scalar();
    const double t1 = thread_cpu_ms();
    batch();
    const double t2 = thread_cpu_ms();
    p.scalar_ms.push_back(t1 - t0);
    p.batch_ms.push_back(t2 - t1);
    p.ratios.push_back((t1 - t0) / (t2 - t1));
  }
  return p;
}

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

/// One drive over the longest road of the 164.8 km city.
sensors::SensorTrace city_trip() {
  const road::RoadNetwork city = road::make_city_network(2019);
  const auto longest = std::max_element(
      city.roads().begin(), city.roads().end(),
      [](const auto& a, const auto& b) {
        return a.road.length_m() < b.road.length_m();
      });
  vehicle::TripConfig tc;
  tc.seed = 5;
  sensors::SmartphoneConfig pc;
  pc.seed = 6;
  return sensors::simulate_sensors(
      vehicle::simulate_trip(longest->road, tc), longest->road.anchor(),
      vehicle::VehicleParams{}, pc);
}

TEST(BatchKernelsPerf, FleetSpeedupsMeetBudget) {
  if constexpr (!math::simd_enabled()) {
    GTEST_SKIP() << "RGE_SIMD=OFF: batch kernels are the scalar code";
  }

  const vehicle::VehicleParams params{};
  const GradeEkfConfig cfg{};
  math::Rng rng(51);

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

  double isum = 0.0;
  const PairedTimes resample = time_pairs(
      kPairs,
      [&] {
        for (std::size_t i = 0; i < interp_q; ++i) isum += interp(queries[i]);
      },
      [&] {
        math::resample_sorted(keys, vals, queries, out);
        isum += out.back();
      });
  ASSERT_TRUE(std::isfinite(isum));
  if (!kSanitized) {
    EXPECT_GE(resample.speedup(), 1.0)
        << "batched resample lost to per-query interpolation: "
        << resample.describe();
  }

  // ---- Online estimator: uneven traces, one block, one thread, no budget
  // One block runs on the calling thread alone, so its CPU clock sees all
  // of the work.
  const std::size_t online_traces = 128;
  const auto fleet_traces = partial_span_fleet(online_traces, rng);
  std::size_t online_steps = 0;
  for (const auto& tr : fleet_traces) online_steps += tr.imu.size();
  double osum = 0.0;
  std::vector<double> online_ns_per_step;
  for (std::size_t r = 0; r < kPairs; ++r) {
    const double t0 = thread_cpu_ms();
    const auto res =
        run_online_batch(fleet_traces, params, {}, 1, online_traces);
    const double t1 = thread_cpu_ms();
    osum += res.back().final_estimate.grade_rad;
    online_ns_per_step.push_back((t1 - t0) * 1e6 /
                                 static_cast<double>(online_steps));
  }
  ASSERT_TRUE(std::isfinite(osum));

  // ---- Trip kernel: four sources of one city trip ---------------------
  const TripInputs trip = trip_inputs(city_trip(), params);
  ASSERT_EQ(trip.names.size(), kTripKernelLanes);
  const std::vector<SourceStream> streams = trip.streams();
  constexpr std::size_t kTripRuns = 4;  // runs per timed side, so each is ~ms
  double tsum = 0.0;
  const PairedTimes trip_kernel = time_pairs(
      kPairs,
      [&] {
        for (std::size_t r = 0; r < kTripRuns; ++r) {
          for (std::size_t j = 0; j < streams.size(); ++j) {
            tsum += reference_track(trip, j, params, cfg).grade.back();
          }
        }
      },
      [&] {
        for (std::size_t r = 0; r < kTripRuns; ++r) {
          const auto tracks =
              run_grade_ekf_trip(trip.t, trip.f, streams, params, cfg);
          for (const GradeTrack& tr : tracks) tsum += tr.grade.back();
        }
      });
  ASSERT_TRUE(std::isfinite(tsum));
  if (!kSanitized) {
    EXPECT_GE(trip_kernel.speedup(), kTripBudget)
        << "trip kernel vs four GradeEkf runs: " << trip_kernel.describe();
  }

  // ---- perf-trajectory artifact --------------------------------------
  testing::Json::Object doc;
  doc["workload"] = testing::Json::Object{
      {"interp_keys", interp_n},
      {"interp_queries", interp_q},
      {"online_traces", online_traces},
      {"online_imu_steps", online_steps},
      {"trip_imu_steps", trip.t.size()},
      {"trip_sources", streams.size()},
      {"trip_runs_per_side", kTripRuns},
      {"timing", "median of paired scalar/batch ratios, thread CPU time"},
      {"sanitized", kSanitized},
      {"simd", math::simd_enabled()},
  };
  doc["interp"] = resample.report(kSanitized ? 0.0 : 1.0);
  doc["trip_kernel"] = trip_kernel.report(kSanitized ? 0.0 : kTripBudget);
  doc["online_estimator"] = testing::Json::Object{
      {"runs", online_ns_per_step.size()},
      {"ns_per_imu_step_min", *std::min_element(online_ns_per_step.begin(),
                                                online_ns_per_step.end())},
      {"ns_per_imu_step_median", median(online_ns_per_step)},
      {"ns_per_imu_step_max", *std::max_element(online_ns_per_step.begin(),
                                                online_ns_per_step.end())},
  };
  testing::write_json_file(testing::Json(doc), "BENCH_batch_kernels.json");
}

}  // namespace
}  // namespace rge::core
