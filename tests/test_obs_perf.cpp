// Perf-tier guards for the observability layer (ctest -L perf):
//   * the runtime-disabled instrumentation path must stay within a hard
//     per-site cost budget (it guards every hot loop in the repo);
//   * an instrumented scenario run must actually emit the bench metrics
//     snapshot and a Chrome trace with the expected spans.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/obs.hpp"
#include "testing/harness.hpp"

namespace {

double ns_per_op(std::int64_t total_ns, int iters) {
  return static_cast<double>(total_ns) / static_cast<double>(iters);
}

TEST(ObsPerf, DisabledCounterPathWithinBudget) {
  rge::obs::set_enabled(false);
  constexpr int kIters = 2'000'000;
  // Warm the branch predictor / instruction cache.
  for (int i = 0; i < 10'000; ++i) OBS_COUNT("perf.disabled_site", 1);

  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    OBS_COUNT("perf.disabled_site", 1);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  const double per_op = ns_per_op(ns, kIters);

  // A disabled site is one relaxed atomic load + branch: single-digit ns
  // on any machine this runs on. The budget is ~20x that measured cost so
  // the guard only fires on a real regression (e.g. someone putting a
  // lock or a clock read on the disabled path), not on scheduler noise.
  EXPECT_LT(per_op, 60.0) << per_op << " ns per disabled OBS_COUNT";

  // The loop above must not have recorded anything.
  if (rge::obs::kCompiledIn) {
    const std::string json = rge::obs::metrics_json();
    EXPECT_EQ(json.find("perf.disabled_site"), std::string::npos);
  }
}

TEST(ObsPerf, DisabledSpanPathWithinBudget) {
  rge::obs::set_enabled(false);
  rge::obs::set_tracing(false);
  constexpr int kIters = 1'000'000;
  for (int i = 0; i < 10'000; ++i) {
    OBS_SPAN("perf.disabled_span");
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    OBS_SPAN("perf.disabled_span");
  }
  const auto t1 = std::chrono::steady_clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  const double per_op = ns_per_op(ns, kIters);
  // A span with tracing off is a flag load and a sentinel store.
  EXPECT_LT(per_op, 60.0) << per_op << " ns per disabled OBS_SPAN";
}

#if RGE_OBS_ENABLED
TEST(ObsPerf, EnabledCounterPathStaysCheap) {
  rge::obs::reset_all();
  rge::obs::set_enabled(true);
  constexpr int kIters = 1'000'000;
  for (int i = 0; i < 10'000; ++i) OBS_COUNT("perf.enabled_site", 1);
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    OBS_COUNT("perf.enabled_site", 1);
  }
  const auto t1 = std::chrono::steady_clock::now();
  rge::obs::set_enabled(false);
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
  const double per_op = ns_per_op(ns, kIters);
  // Enabled = one relaxed fetch_add into a thread-local shard. Budget is
  // generous; the point is to catch an accidental mutex on the hot path.
  EXPECT_LT(per_op, 200.0) << per_op << " ns per enabled OBS_COUNT";
  rge::obs::reset_all();
}

TEST(ObsPerf, InstrumentedScenarioRunEmitsArtifacts) {
  const std::string dir = ::testing::TempDir();
  const std::string bench = dir + "rge_perf_bench.json";
  const std::string metrics = dir + "rge_perf_bench_metrics.json";
  const std::string trace = dir + "rge_perf_trace.json";

  rge::testing::HarnessOptions opts;
  // Three trips on two threads, so the batch pipeline hands trips to the
  // pool and pool.tasks_submitted is counted. A one-trip run submits no
  // helper task: the trip's sources step in one trip-kernel call.
  opts.scenarios = {"cloud_fusion_x3"};
  opts.bench_out = bench;
  opts.trace_out = trace;
  opts.thread_counts = {2};
  opts.run_faults = false;

  std::ostringstream log;
  const int failures = rge::testing::run_harness(opts, log);
  EXPECT_EQ(failures, 0) << log.str();

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };

  // Metrics snapshot: pipeline + pool counters from the run.
  const std::string metrics_json = slurp(metrics);
  ASSERT_FALSE(metrics_json.empty()) << "missing " << metrics;
  EXPECT_NE(metrics_json.find("\"pipeline.trips\""), std::string::npos);
  EXPECT_NE(metrics_json.find("\"pool.tasks_submitted\""),
            std::string::npos);

  // Chrome trace: pipeline stage spans nested inside the trip span, plus
  // the scenario-level span from the harness.
  const std::string trace_json = slurp(trace);
  ASSERT_FALSE(trace_json.empty()) << "missing " << trace;
  EXPECT_NE(trace_json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"name\":\"pipeline.trip\""),
            std::string::npos);
  EXPECT_NE(trace_json.find("\"name\":\"pipeline.ekf\""), std::string::npos);
  EXPECT_NE(trace_json.find("\"name\":\"scenario."), std::string::npos);

  std::remove(bench.c_str());
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
}
#endif

}  // namespace
