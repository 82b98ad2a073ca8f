// Perf-tier budgets for network-scale eco-routing (ctest -L perf):
//
//   * an ALT fuel query over the ~10.9k-edge OSM-like city must beat the
//     legacy RouteGraph::shortest_path (std::function cost, per-edge VSP
//     re-integration) by >= 10x on mean latency;
//   * warm ALT fuel queries must stay sub-millisecond at p99.
//
// Legacy and ALT batches alternate (ABAB), a fixed number of pairs, each
// timed on the calling thread's CPU clock, which other processes and host
// stalls do not advance. The speedup is the median of the paired ratios
// of mean query cost; p99 is taken over every ALT query's thread CPU time.
//
// Budgets are relaxed under sanitizers (>= 3x, p99 <= 15 ms), whose
// instrumentation dominates pointer-chasing heap code. The checked-in
// perf-trajectory artifact for this workload is BENCH_eco_routing.json,
// produced by bench/bench_eco_routing (this test only enforces budgets).
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "math/rng.hpp"
#include "planning/city_gen.hpp"
#include "planning/csr_graph.hpp"

#include "perf_timing.hpp"

namespace rge::planning {
namespace {

using testing::kSanitized;
using testing::thread_cpu_ms;

constexpr double kMinSpeedup = kSanitized ? 3.0 : 10.0;
constexpr double kP99BudgetMs = kSanitized ? 15.0 : 1.0;

/// Legacy/ALT batch pairs; odd, so the median is one pair's ratio.
constexpr std::size_t kPairs = kSanitized ? 3 : 7;

double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

TEST(EcoRoutingPerf, AltBeatsLegacyDijkstraAndStaysSubMillisecond) {
  const RouteGraph g = make_osm_city();  // 52x52, ~10.9k directed edges
  const CostModel model;
  const CsrGraph csr(g, model);

  math::Rng rng(314);
  const auto hi = static_cast<std::int64_t>(g.node_count()) - 1;
  constexpr std::size_t kQueries = 300;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < kQueries; ++i) {
    pairs.emplace_back(static_cast<std::size_t>(rng.uniform_int(0, hi)),
                       static_cast<std::size_t>(rng.uniform_int(0, hi)));
  }

  const auto legacy_cost = [&model](const Edge& e) {
    const double speed =
        e.speed_mps > 0.0 ? e.speed_mps : model.default_speed_mps;
    return edge_cost_fuel(e, speed, model.vsp);
  };

  // Legacy baseline on a subset (it is the slow side by design).
  const std::size_t legacy_n = kSanitized ? 8 : 24;
  double checksum = 0.0;
  QueryContext ctx;
  // Warm both sides (ALT: context allocation, landmark tables into cache).
  (void)g.shortest_path(pairs[0].first, pairs[0].second, legacy_cost);
  (void)csr.route(pairs[0].first, pairs[0].second, Metric::kFuel, ctx, true);

  std::vector<double> legacy_means;
  std::vector<double> alt_means;
  std::vector<double> ratios;
  std::vector<double> alt_ms;
  alt_ms.reserve(kPairs * kQueries);
  for (std::size_t r = 0; r < kPairs; ++r) {
    const double t0 = thread_cpu_ms();
    for (std::size_t i = 0; i < legacy_n; ++i) {
      checksum +=
          g.shortest_path(pairs[i].first, pairs[i].second, legacy_cost).cost;
    }
    const double legacy_mean =
        (thread_cpu_ms() - t0) / static_cast<double>(legacy_n);
    double alt_total = 0.0;
    for (const auto& [from, to] : pairs) {
      const double q0 = thread_cpu_ms();
      const auto res = csr.route(from, to, Metric::kFuel, ctx, true);
      const double q = thread_cpu_ms() - q0;
      alt_ms.push_back(q);
      alt_total += q;
      checksum += res.cost;
    }
    const double alt_mean = alt_total / static_cast<double>(kQueries);
    legacy_means.push_back(legacy_mean);
    alt_means.push_back(alt_mean);
    ratios.push_back(legacy_mean / alt_mean);
  }
  ASSERT_TRUE(std::isfinite(checksum));

  const double legacy_mean_ms = percentile(legacy_means, 0.5);
  const double alt_mean_ms = percentile(alt_means, 0.5);
  const double alt_p50 = percentile(alt_ms, 0.50);
  const double alt_p99 = percentile(alt_ms, 0.99);
  const double speedup = percentile(ratios, 0.5);

  RecordProperty("legacy_mean_ms", std::to_string(legacy_mean_ms));
  RecordProperty("alt_mean_ms", std::to_string(alt_mean_ms));
  RecordProperty("alt_p99_ms", std::to_string(alt_p99));

  EXPECT_GE(speedup, kMinSpeedup)
      << "median paired ratio " << speedup << " (min "
      << *std::min_element(ratios.begin(), ratios.end()) << ", max "
      << *std::max_element(ratios.begin(), ratios.end())
      << "); median legacy mean " << legacy_mean_ms
      << " ms vs median ALT mean " << alt_mean_ms << " ms (p50 " << alt_p50
      << " ms), thread CPU time";
  EXPECT_LE(alt_p99, kP99BudgetMs)
      << "ALT fuel-query p99 " << alt_p99 << " ms (p50 " << alt_p50
      << " ms) over " << alt_ms.size() << " warm queries, thread CPU time";
}

}  // namespace
}  // namespace rge::planning
