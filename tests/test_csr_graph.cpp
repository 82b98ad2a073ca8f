// Unit tests for the frozen CSR routing graph and the ALT query layer:
// cost-table exactness vs the pluggable cost functions, bit-identical
// cost/path parity between plain Dijkstra, ALT, and the legacy
// RouteGraph::shortest_path, deterministic tie-breaking, potential
// admissibility, and thread-safety of concurrent queries over one shared
// graph (the CsrGraphConcurrency suite runs under the tsan-runtime preset).
#include "planning/csr_graph.hpp"

#include <cmath>
#include <cstdint>
#include <future>
#include <vector>

#include <gtest/gtest.h>

#include "emissions/emissions.hpp"
#include "math/angles.hpp"
#include "math/rng.hpp"
#include "obs/obs.hpp"
#include "planning/city_gen.hpp"
#include "runtime/thread_pool.hpp"

namespace rge::planning {
namespace {

using math::deg2rad;

Edge make_edge(std::size_t from, std::size_t to, double length,
               double grade = 0.0) {
  Edge e;
  e.from = from;
  e.to = to;
  e.length_m = length;
  const auto samples =
      static_cast<std::size_t>(std::max(1.0, std::round(length / 25.0)));
  e.grade_step_m = length / static_cast<double>(samples);
  e.grades.assign(samples, grade);
  return e;
}

constexpr Metric kAllMetrics[] = {Metric::kDistance, Metric::kTime,
                                  Metric::kFuel, Metric::kCo2};

RouteGraph::CostFn legacy_cost(Metric m, const CostModel& model) {
  return [m, model](const Edge& e) {
    const double speed =
        e.speed_mps > 0.0 ? e.speed_mps : model.default_speed_mps;
    switch (m) {
      case Metric::kDistance: return edge_cost_distance(e);
      case Metric::kTime: return edge_cost_time(e, speed);
      case Metric::kFuel: return edge_cost_fuel(e, speed, model.vsp);
      case Metric::kCo2:
        return edge_cost_fuel(e, speed, model.vsp) * model.co2_g_per_gal;
    }
    return 0.0;
  };
}

void expect_identical(const RouteGraph::Route& a, const RouteGraph::Route& b,
                      const char* what) {
  ASSERT_EQ(a.found, b.found) << what;
  if (!a.found) return;
  // Bit-identical cost, identical (not merely equal-cost) path.
  EXPECT_EQ(a.cost, b.cost) << what;
  EXPECT_EQ(a.nodes, b.nodes) << what;
  EXPECT_EQ(a.edges, b.edges) << what;
  EXPECT_DOUBLE_EQ(a.length_m, b.length_m) << what;
}

TEST(CsrGraph, CostTablesMatchCostFunctionsBitExactly) {
  const RouteGraph g = make_grid_city(6, 7, 200.0, 11);
  const CostModel model;
  const CsrGraph csr(g, model);
  ASSERT_EQ(csr.node_count(), g.node_count());
  ASSERT_EQ(csr.edge_count(), g.edge_count());
  for (std::size_t ei = 0; ei < g.edge_count(); ++ei) {
    const Edge& e = g.edge(ei);
    EXPECT_EQ(csr.edge_cost(Metric::kDistance, ei), edge_cost_distance(e));
    EXPECT_EQ(csr.edge_cost(Metric::kTime, ei),
              edge_cost_time(e, model.default_speed_mps));
    EXPECT_EQ(csr.edge_cost(Metric::kFuel, ei),
              edge_cost_fuel(e, model.default_speed_mps, model.vsp));
    EXPECT_EQ(csr.edge_cost(Metric::kCo2, ei),
              edge_cost_fuel(e, model.default_speed_mps, model.vsp) *
                  model.co2_g_per_gal);
  }
  EXPECT_THROW(csr.edge_cost(Metric::kFuel, g.edge_count()),
               std::invalid_argument);
}

TEST(CsrGraph, PerEdgeSpeedsFeedTimeAndFuelTables) {
  OsmCityConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  const RouteGraph g = make_osm_city(cfg);
  const CostModel model;
  const CsrGraph csr(g, model);
  for (std::size_t ei = 0; ei < g.edge_count(); ei += 17) {
    const Edge& e = g.edge(ei);
    ASSERT_GT(e.speed_mps, 0.0);
    EXPECT_EQ(csr.edge_cost(Metric::kTime, ei),
              edge_cost_time(e, e.speed_mps));
    EXPECT_EQ(csr.edge_cost(Metric::kFuel, ei),
              edge_cost_fuel(e, e.speed_mps, model.vsp));
  }
}

TEST(CsrGraph, MatchesLegacyShortestPathOnGridCity) {
  const RouteGraph g = make_grid_city(7, 7, 240.0, 3);
  const CostModel model;
  const CsrGraph csr(g, model);
  QueryContext ctx;
  math::Rng rng(77);
  for (int it = 0; it < 40; ++it) {
    const auto from = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
    const auto to = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
    for (const Metric m : kAllMetrics) {
      const auto legacy = g.shortest_path(from, to, legacy_cost(m, model));
      const auto dij = csr.route(from, to, m, ctx, /*use_alt=*/false);
      const auto alt = csr.route(from, to, m, ctx, /*use_alt=*/true);
      expect_identical(legacy, dij, metric_name(m));
      expect_identical(dij, alt, metric_name(m));
    }
  }
}

TEST(CsrGraph, DeterministicTieBreakPrefersLowerEdgeIndex) {
  // Diamond: two bitwise-equal-cost paths 0-1-3 (edges 0,2) and 0-2-3
  // (edges 1,3). The canonical route must take the lower-indexed edges.
  RouteGraph g(4);
  g.add_edge(make_edge(0, 1, 100.0));  // e0
  g.add_edge(make_edge(0, 2, 100.0));  // e1
  g.add_edge(make_edge(1, 3, 100.0));  // e2
  g.add_edge(make_edge(2, 3, 100.0));  // e3
  const CsrGraph csr(g);
  QueryContext ctx;
  for (const Metric m : kAllMetrics) {
    const auto legacy = g.shortest_path(0, 3, legacy_cost(m, CostModel{}));
    const auto dij = csr.route(0, 3, m, ctx, false);
    const auto alt = csr.route(0, 3, m, ctx, true);
    ASSERT_TRUE(alt.found);
    EXPECT_EQ(alt.edges, (std::vector<std::size_t>{0, 2})) << metric_name(m);
    expect_identical(legacy, dij, metric_name(m));
    expect_identical(dij, alt, metric_name(m));
  }
}

TEST(CsrGraph, ManyEqualPathsStillDeterministic) {
  // A flat equal-block grid is a worst case: every monotone staircase
  // between opposite corners has bitwise-identical distance cost.
  const RouteGraph g = make_grid_city(5, 5, 300.0, 1);
  const CsrGraph csr(g);
  QueryContext ctx;
  const auto legacy =
      g.shortest_path(2, 22, legacy_cost(Metric::kDistance, CostModel{}));
  const auto dij = csr.route(2, 22, Metric::kDistance, ctx, false);
  const auto alt = csr.route(2, 22, Metric::kDistance, ctx, true);
  expect_identical(legacy, dij, "distance");
  expect_identical(dij, alt, "distance");
}

/// make_osm_city (8x8) plus a dozen one-way shortcuts with their own
/// speed. No metric's cost table is symmetric here, so every landmark's
/// backward row needs its own Dijkstra.
RouteGraph one_way_city() {
  OsmCityConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  RouteGraph g = make_osm_city(cfg);
  math::Rng rng(17);
  for (int added = 0; added < 12;) {
    const auto a = static_cast<std::size_t>(rng.uniform_int(0, 63));
    const auto b = static_cast<std::size_t>(rng.uniform_int(0, 63));
    const double dr = std::abs(static_cast<double>(a / 8) -
                               static_cast<double>(b / 8));
    const double dc = std::abs(static_cast<double>(a % 8) -
                               static_cast<double>(b % 8));
    if (dr + dc < 3.0) continue;
    // Shorter than the grid walk between its ends, so shortest paths use it.
    Edge e = make_edge(a, b, 230.0 * std::hypot(dr, dc), deg2rad(0.5));
    e.speed_mps = 70.0 / 3.6;
    g.add_edge(e);
    ++added;
  }
  return g;
}

TEST(CsrGraph, PotentialsAreAdmissibleAndZeroAtTarget) {
  OsmCityConfig cfg;
  cfg.rows = 10;
  cfg.cols = 10;
  for (const RouteGraph& g : {make_osm_city(cfg), one_way_city()}) {
    const CsrGraph csr(g);
    QueryContext ctx;
    math::Rng rng(5);
    for (int it = 0; it < 25; ++it) {
      const auto u = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
      const auto t = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
      for (const Metric m : kAllMetrics) {
        EXPECT_EQ(csr.potential(m, t, t), 0.0);
        const auto r = csr.route(u, t, m, ctx, false);
        ASSERT_TRUE(r.found);
        // Admissible to within the ulp-slack the query bound absorbs.
        EXPECT_LE(csr.potential(m, u, t), r.cost * (1.0 + 1e-12))
            << metric_name(m);
      }
    }
    // Toward a landmark L the potential is tight: L's backward row holds
    // d(v, L) itself, and the other rows add only ulp-level slack. A
    // backward row taken from the forward row d(L, v) fails this on any
    // graph with one-way edges.
    std::size_t pairs = 0;
    for (const Metric m : kAllMetrics) {
      for (const std::size_t l : csr.landmarks(m)) {
        for (std::size_t v = 0; v < g.node_count(); ++v) {
          const auto r = csr.route(v, l, m, ctx, false);
          if (!r.found) continue;
          EXPECT_NEAR(csr.potential(m, v, l), r.cost, 1e-12 * r.cost)
              << metric_name(m) << " from " << v << " to landmark " << l
              << " on the " << g.node_count() << "-node graph";
          ++pairs;
        }
      }
    }
    EXPECT_EQ(pairs, 4 * 8 * g.node_count());
  }
}

#if RGE_OBS_ENABLED
TEST(CsrGraph, SymmetricMetricsReuseForwardLandmarkRows) {
  // Distance and time are symmetric on a bidirectional city, so a freeze
  // runs 4 seeds + 32 forward + 16 backward (fuel, CO2) Dijkstras; one-way
  // shortcuts make all four metrics asymmetric: 4 + 32 + 32.
  OsmCityConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  const RouteGraph city = make_osm_city(cfg);
  const RouteGraph one_way = one_way_city();
  const auto dijkstras = [](const RouteGraph& g) {
    obs::reset_all();
    obs::set_enabled(true);
    { const CsrGraph csr(g); }
    const auto snap = obs::Registry::global().snapshot();
    obs::set_enabled(false);
    obs::reset_all();
    return snap.counters.at("planning.landmark_dijkstras");
  };
  EXPECT_EQ(dijkstras(city), 52);
  EXPECT_EQ(dijkstras(one_way), 68);
}
#endif

TEST(CsrGraph, AltPrunesTheSearchOnLongFuelQueries) {
  OsmCityConfig cfg;
  cfg.rows = 20;
  cfg.cols = 20;
  const RouteGraph g = make_osm_city(cfg);
  const CsrGraph csr(g);
  QueryContext ctx;
  const std::size_t from = 0;
  const std::size_t to = g.node_count() - 1;
  (void)csr.route(from, to, Metric::kFuel, ctx, false);
  const std::size_t settled_dij = ctx.stats().settled;
  (void)csr.route(from, to, Metric::kFuel, ctx, true);
  const std::size_t settled_alt = ctx.stats().settled;
  EXPECT_LT(settled_alt, settled_dij / 2)
      << "ALT should settle far fewer nodes than Dijkstra";
}

TEST(CsrGraph, UnreachableAndTrivialQueries) {
  RouteGraph g(3);
  g.add_edge(make_edge(0, 1, 100.0));
  const CsrGraph csr(g);
  QueryContext ctx;
  for (const bool use_alt : {false, true}) {
    const auto none = csr.route(0, 2, Metric::kDistance, ctx, use_alt);
    EXPECT_FALSE(none.found);
    const auto self = csr.route(1, 1, Metric::kFuel, ctx, use_alt);
    ASSERT_TRUE(self.found);
    EXPECT_EQ(self.cost, 0.0);
    EXPECT_TRUE(self.edges.empty());
    EXPECT_EQ(self.nodes, (std::vector<std::size_t>{1}));
  }
  EXPECT_THROW(csr.route(0, 9, Metric::kDistance, ctx), std::invalid_argument);
}

TEST(CsrGraph, ZeroLandmarksDegradesToDijkstra) {
  const RouteGraph g = make_grid_city(5, 5, 200.0, 8);
  AltConfig alt;
  alt.landmarks = 0;
  const CsrGraph csr(g, CostModel{}, alt);
  EXPECT_EQ(csr.landmark_count(), 0u);
  QueryContext ctx;
  const auto r = csr.route(0, 24, Metric::kFuel, ctx, true);
  const auto legacy =
      g.shortest_path(0, 24, legacy_cost(Metric::kFuel, CostModel{}));
  expect_identical(legacy, r, "fuel");
}

TEST(CsrGraph, ContextReuseAcrossQueriesAndMetricsIsClean) {
  const RouteGraph g = make_grid_city(6, 6, 250.0, 2);
  const CsrGraph csr(g);
  QueryContext reused;
  math::Rng rng(9);
  for (int it = 0; it < 60; ++it) {
    const auto from = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
    const auto to = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
    const Metric m = kAllMetrics[it % 4];
    QueryContext fresh;
    expect_identical(csr.route(from, to, m, fresh, true),
                     csr.route(from, to, m, reused, true), "context reuse");
  }
}

TEST(CsrGraph, ContextsSideBySideShareNoCacheLine) {
  // Workers keep one context each in a vector and write its heap header
  // and stats on every relaxation: each context must own whole aligned
  // blocks, wherever the allocator puts the vector.
  static_assert(alignof(QueryContext) == kQueryContextAlign);
  static_assert(sizeof(QueryContext) % kQueryContextAlign == 0);
  for (std::size_t n = 1; n <= 5; ++n) {
    const std::vector<QueryContext> contexts(n);
    for (const QueryContext& c : contexts) {
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&c) % kQueryContextAlign,
                0u);
    }
  }
}

TEST(CsrGraph, RejectsEmptyGraphAndReportsBuildStats) {
  EXPECT_THROW(CsrGraph(RouteGraph(0)), std::invalid_argument);
  const RouteGraph g = make_grid_city(4, 4, 200.0, 6);
  const CsrGraph csr(g);
  EXPECT_GE(csr.build_stats().cost_tables_ms, 0.0);
  EXPECT_GE(csr.build_stats().landmarks_ms, 0.0);
  EXPECT_EQ(csr.landmark_count(), 8u);
  for (const Metric m : kAllMetrics) {
    EXPECT_EQ(csr.landmarks(m).size(), csr.landmark_count());
  }
}

// ---- concurrent queries over one shared graph (tsan-runtime tier) ------

TEST(CsrGraphConcurrency, ParallelQueriesMatchSerial) {
  OsmCityConfig cfg;
  cfg.rows = 14;
  cfg.cols = 14;
  const RouteGraph g = make_osm_city(cfg);
  const CsrGraph csr(g);

  constexpr std::size_t kQueries = 256;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  math::Rng rng(123);
  for (std::size_t i = 0; i < kQueries; ++i) {
    pairs.emplace_back(
        static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(g.node_count()) - 1)),
        static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(g.node_count()) - 1)));
  }

  std::vector<RouteGraph::Route> serial(kQueries);
  {
    QueryContext ctx;
    for (std::size_t i = 0; i < kQueries; ++i) {
      serial[i] = csr.route(pairs[i].first, pairs[i].second,
                            kAllMetrics[i % 4], ctx, true);
    }
  }

  // One QueryContext per worker; the graph itself is shared read-only.
  runtime::ThreadPool pool(4);
  std::vector<RouteGraph::Route> parallel(kQueries);
  std::vector<QueryContext> contexts(4 + 1);
  std::atomic<std::size_t> next_ctx{0};
  thread_local QueryContext* tls_ctx = nullptr;
  runtime::parallel_for(pool, kQueries, [&](std::size_t i) {
    if (tls_ctx == nullptr) {
      tls_ctx = &contexts[next_ctx.fetch_add(1, std::memory_order_relaxed)];
    }
    parallel[i] = csr.route(pairs[i].first, pairs[i].second,
                            kAllMetrics[i % 4], *tls_ctx, true);
  });

  for (std::size_t i = 0; i < kQueries; ++i) {
    expect_identical(serial[i], parallel[i], "concurrent query");
  }
}

}  // namespace
}  // namespace rge::planning
