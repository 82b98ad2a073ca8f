// Google-benchmark microbenchmarks: throughput of the estimation stack's
// hot paths (EKF steps, LOESS smoothing, bump extraction / detection,
// track fusion, trace CSV parsing), plus the batch kernels against their
// scalar references: the trip kernel against one-source runs, batched
// resampling against per-query interpolation, and the online estimator
// streaming one city trip. These bound how far the pipeline is from
// real-time on phone-class sample rates (50 Hz IMU).
//
// Besides the console report, the run writes BENCH_micro.json into the
// working directory: per-benchmark ns/op and the scalar-vs-batch
// speedups, the checked-in perf-trajectory artifact for the batch
// kernels.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include "core/alignment.hpp"
#include "core/bump.hpp"
#include "core/grade_ekf.hpp"
#include "core/lane_change_detector.hpp"
#include "core/online_estimator_batch.hpp"
#include "core/pipeline.hpp"
#include "core/track_fusion.hpp"
#include "core/velocity_sources.hpp"
#include "math/interp.hpp"
#include "math/interp_batch.hpp"
#include "math/loess.hpp"
#include "math/rng.hpp"
#include "math/simd.hpp"
#include "road/network.hpp"
#include "sensors/smartphone.hpp"
#include "sensors/trace.hpp"
#include "testing/json.hpp"
#include "vehicle/trip.hpp"

namespace {

using namespace rge;

void BM_GradeEkfStep(benchmark::State& state) {
  core::GradeEkf ekf(vehicle::VehicleParams{}, core::GradeEkfConfig{}, 10.0);
  math::Rng rng(1);
  int i = 0;
  for (auto _ : state) {
    ekf.predict(0.5 + 0.01 * rng.gaussian(), 0.02);
    if (++i % 5 == 0) ekf.update_velocity(10.0 + rng.gaussian(0.0, 0.2), 0.04);
    benchmark::DoNotOptimize(ekf.grade());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GradeEkfStep);

void BM_LoessSmoothing(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  math::Rng rng(3);
  std::vector<double> x(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = 0.1 * static_cast<double>(i);
    y[i] = rng.gaussian();
  }
  math::LoessConfig cfg;
  cfg.span = std::max(0.002, 8.0 / static_cast<double>(n));
  const math::LoessSmoother smoother(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(smoother.fit(x, y));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_LoessSmoothing)->Arg(1000)->Arg(10000);

void BM_BumpExtraction(benchmark::State& state) {
  math::Rng rng(4);
  const std::size_t n = 10000;
  std::vector<double> t(n);
  std::vector<double> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    t[i] = 0.1 * static_cast<double>(i);
    w[i] = 0.05 * std::sin(0.05 * static_cast<double>(i)) +
           rng.gaussian(0.0, 0.01);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::extract_bumps(t, w));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_BumpExtraction);

void BM_TrackFusion4(benchmark::State& state) {
  std::vector<core::GradeTrack> tracks(4);
  math::Rng rng(5);
  for (auto& tr : tracks) {
    for (std::size_t i = 0; i < 2000; ++i) {
      tr.t.push_back(0.1 * static_cast<double>(i));
      tr.grade.push_back(rng.gaussian(0.02, 0.01));
      tr.grade_var.push_back(1e-4);
      tr.speed.push_back(10.0);
      tr.s.push_back(static_cast<double>(i));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::fuse_tracks_time(tracks));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_TrackFusion4);

/// One-time scenario shared by the end-to-end benchmarks.
const sensors::SensorTrace& shared_trace() {
  static const sensors::SensorTrace trace = [] {
    const road::Road route = road::make_table3_route(2019);
    vehicle::TripConfig tc;
    tc.seed = 9;
    const auto trip = vehicle::simulate_trip(route, tc);
    sensors::SmartphoneConfig pc;
    pc.seed = 10;
    return sensors::simulate_sensors(trip, route.anchor(),
                                     vehicle::VehicleParams{}, pc);
  }();
  return trace;
}

void BM_FullPipeline216km(benchmark::State& state) {
  const auto& trace = shared_trace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::estimate_gradient(trace, vehicle::VehicleParams{}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.imu.size()));
}
BENCHMARK(BM_FullPipeline216km);

void BM_TraceCsvRoundTrip(benchmark::State& state) {
  const auto& trace = shared_trace();
  for (auto _ : state) {
    std::stringstream ss;
    sensors::write_csv(trace, ss);
    benchmark::DoNotOptimize(sensors::read_csv(ss));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.imu.size()));
}
BENCHMARK(BM_TraceCsvRoundTrip);

// ---- trip kernel vs one-source runs on one city trip ------------------

/// One drive over the longest road of the 164.8 km city.
const sensors::SensorTrace& city_trip() {
  static const sensors::SensorTrace trace = [] {
    const road::RoadNetwork city = road::make_city_network(2019);
    const road::Road& road =
        std::max_element(city.roads().begin(), city.roads().end(),
                         [](const auto& a, const auto& b) {
                           return a.road.length_m() < b.road.length_m();
                         })
            ->road;
    vehicle::TripConfig tc;
    tc.seed = 5;
    sensors::SmartphoneConfig pc;
    pc.seed = 6;
    return sensors::simulate_sensors(vehicle::simulate_trip(road, tc),
                                     road.anchor(), vehicle::VehicleParams{},
                                     pc);
  }();
  return trace;
}

/// The EKF-stage inputs of city_trip(): its aligned IMU timeline and
/// forward specific force, and its four velocity streams.
struct TripEkfInputs {
  std::vector<double> t;
  std::vector<double> f;
  std::vector<std::string> names;
  std::vector<std::vector<core::VelocityMeasurement>> meas;
  std::vector<core::SourceStream> streams;
};

const TripEkfInputs& trip_ekf_inputs() {
  static const TripEkfInputs in = [] {
    const sensors::SensorTrace& trace = city_trip();
    const core::AlignedStates aligned = core::align_states(trace);
    TripEkfInputs r;
    r.t = aligned.t;
    r.f = aligned.accel_forward;
    r.meas = {core::velocity_from_gps(trace),
              core::velocity_from_speedometer(trace),
              core::velocity_from_canbus(trace),
              core::velocity_from_imu(trace)};
    r.names = {"gps", "speedometer", "canbus", "imu"};
    for (std::size_t j = 0; j < r.meas.size(); ++j) {
      r.streams.push_back({r.names[j], r.meas[j]});
    }
    return r;
  }();
  return in;
}

void BM_GradeEkfTripPerSource(benchmark::State& state) {
  const auto& in = trip_ekf_inputs();
  const vehicle::VehicleParams params{};
  for (auto _ : state) {
    for (std::size_t j = 0; j < in.streams.size(); ++j) {
      benchmark::DoNotOptimize(
          core::run_grade_ekf(in.names[j], in.t, in.f, in.meas[j], params));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(in.t.size()));
}
BENCHMARK(BM_GradeEkfTripPerSource);

void BM_GradeEkfTripKernel(benchmark::State& state) {
  const auto& in = trip_ekf_inputs();
  const vehicle::VehicleParams params{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::run_grade_ekf_trip(in.t, in.f, in.streams, params));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(in.t.size()));
}
BENCHMARK(BM_GradeEkfTripKernel);

/// city_trip() streamed through one online estimator (run_online_batch
/// on a one-trace fleet runs on the caller), items = IMU steps.
void BM_OnlineEstimatorTrip(benchmark::State& state) {
  const std::vector<sensors::SensorTrace> fleet{city_trip()};
  const vehicle::VehicleParams params{};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_online_batch(fleet, params, {}, 1));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(fleet.front().imu.size()));
}
BENCHMARK(BM_OnlineEstimatorTrip);

constexpr std::size_t kInterpKeys = 20000;
constexpr std::size_t kInterpQueries = 50000;

struct InterpInputs {
  std::vector<double> keys;
  std::vector<double> vals;
  std::vector<double> queries;
};

const InterpInputs& interp_inputs() {
  static const InterpInputs in = [] {
    InterpInputs r;
    math::Rng rng(8);
    r.keys.resize(kInterpKeys);
    r.vals.resize(kInterpKeys);
    double s = 0.0;
    for (std::size_t i = 0; i < kInterpKeys; ++i) {
      s += rng.uniform(0.01, 1.0);
      r.keys[i] = s;
      r.vals[i] = rng.gaussian(0.0, 2.0);
    }
    r.queries.resize(kInterpQueries);
    for (std::size_t i = 0; i < kInterpQueries; ++i) {
      r.queries[i] =
          s * static_cast<double>(i) / static_cast<double>(kInterpQueries);
    }
    return r;
  }();
  return in;
}

void BM_ResampleScalar(benchmark::State& state) {
  const auto& in = interp_inputs();
  const math::LinearInterpolator interp(in.keys, in.vals);
  for (auto _ : state) {
    double sum = 0.0;
    for (double q : in.queries) sum += interp(q);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kInterpQueries));
}
BENCHMARK(BM_ResampleScalar);

void BM_ResampleBatch(benchmark::State& state) {
  const auto& in = interp_inputs();
  std::vector<double> out(kInterpQueries);
  for (auto _ : state) {
    math::resample_sorted(in.keys, in.vals, in.queries, out);
    benchmark::DoNotOptimize(out.front());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kInterpQueries));
}
BENCHMARK(BM_ResampleBatch);

// ---- JSON artifact ------------------------------------------------------

/// Console report plus a ns/op collection that lands in BENCH_micro.json.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      const double iters = static_cast<double>(run.iterations);
      if (iters <= 0.0) continue;
      ns_per_op_[run.benchmark_name()] =
          run.real_accumulated_time / iters * 1e9;
    }
  }

  const std::map<std::string, double>& ns_per_op() const { return ns_per_op_; }

 private:
  std::map<std::string, double> ns_per_op_;
};

void write_bench_json(const std::map<std::string, double>& ns_per_op) {
  rge::testing::Json::Object doc;
  rge::testing::Json::Object benches;
  for (const auto& [name, ns] : ns_per_op) benches[name] = ns;
  doc["ns_per_op"] = benches;
  doc["simd"] = math::simd_enabled();
  doc["workload"] = rge::testing::Json::Object{
      {"interp_keys", kInterpKeys},
      {"interp_queries", kInterpQueries},
      {"trip_imu_steps", trip_ekf_inputs().t.size()},
      {"trip_sources", trip_ekf_inputs().streams.size()},
  };
  const auto speedup = [&](const char* scalar, const char* batch,
                           const char* key) {
    const auto s = ns_per_op.find(scalar);
    const auto b = ns_per_op.find(batch);
    if (s != ns_per_op.end() && b != ns_per_op.end() && b->second > 0.0) {
      doc["speedup"][key] = s->second / b->second;
    }
  };
  speedup("BM_ResampleScalar", "BM_ResampleBatch", "interp_resample");
  speedup("BM_GradeEkfTripPerSource", "BM_GradeEkfTripKernel",
          "ekf_trip_kernel");
  const auto online = ns_per_op.find("BM_OnlineEstimatorTrip");
  if (online != ns_per_op.end()) {
    doc["ns_per_imu_step"]["online_estimator_trip"] =
        online->second / static_cast<double>(city_trip().imu.size());
  }
  rge::testing::write_json_file(rge::testing::Json(doc), "BENCH_micro.json");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  write_bench_json(reporter.ns_per_op());
  benchmark::Shutdown();
  return 0;
}
