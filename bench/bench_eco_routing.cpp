// Network-scale eco-routing bench: the CSR + ALT query engine under
// simulated city query traffic.
//
// Workloads:
//   * the OSM-like synthetic city (52x52, ~10.9k directed edges): freeze
//     cost (cost tables vs landmark preprocessing), legacy
//     RouteGraph::shortest_path baseline, per-metric CSR-Dijkstra vs ALT
//     latency percentiles, concurrent query traffic through the runtime
//     thread pool (read-only shared graph, one QueryContext per worker),
//     and eco-vs-shortest fuel/CO2/length deltas bucketed by road class
//     and scaled by the AADT traffic model (Fig. 10(b) volumes);
//   * the paper's 164.8 km Table-III network (Fig. 7(a)): the routing
//     graph is stitched from *fused* grade profiles produced by one
//     simulated phone trip per road through the full estimation pipeline,
//     then queried the same way.
//
// Each graph is frozen kFreezes times and the freeze, cost-table and
// landmark times written are medians. Every ALT query is checked
// bit-identical (cost and path) to plain Dijkstra as it is timed — the
// speedups below are for provably exact queries, not an approximation.
// Numbers land in BENCH_eco_routing.json in the working directory;
// budgets are enforced separately by tests/test_eco_routing_perf.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <optional>
#include <vector>

#include "emissions/emissions.hpp"
#include "math/rng.hpp"
#include "planning/city_gen.hpp"
#include "planning/csr_graph.hpp"
#include "road/network.hpp"
#include "runtime/thread_pool.hpp"
#include "testing/json.hpp"
#include "testing/network_survey.hpp"

namespace {

using namespace rge;
using Clock = std::chrono::steady_clock;
using planning::Metric;

double ms_since(const Clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

double percentile(std::vector<double> xs, double p) {
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

double mean(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

std::vector<std::pair<std::size_t, std::size_t>> random_pairs(
    std::size_t n_nodes, std::size_t count, std::uint64_t seed) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(count);
  math::Rng rng(seed);
  const auto hi = static_cast<std::int64_t>(n_nodes) - 1;
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<std::size_t>(rng.uniform_int(0, hi)),
                       static_cast<std::size_t>(rng.uniform_int(0, hi)));
  }
  return pairs;
}

/// Freezes per graph; odd, so each median is one freeze's time.
constexpr std::size_t kFreezes = 9;

/// The last of kFreezes freezes of one graph, and the median times.
struct TimedFreeze {
  planning::CsrGraph csr;
  double freeze_ms = 0.0;
  double cost_tables_ms = 0.0;
  double landmarks_ms = 0.0;

  testing::Json::Object to_json() const {
    return testing::Json::Object{
        {"freezes", kFreezes},
        {"freeze_ms", freeze_ms},
        {"cost_tables_ms", cost_tables_ms},
        {"landmarks_ms", landmarks_ms},
    };
  }
};

TimedFreeze timed_freeze(const planning::RouteGraph& g) {
  std::vector<double> freeze;
  std::vector<double> tables;
  std::vector<double> landmarks;
  std::optional<planning::CsrGraph> csr;
  for (std::size_t i = 0; i < kFreezes; ++i) {
    csr.reset();
    const auto t0 = Clock::now();
    csr.emplace(g);
    freeze.push_back(ms_since(t0));
    tables.push_back(csr->build_stats().cost_tables_ms);
    landmarks.push_back(csr->build_stats().landmarks_ms);
  }
  return {std::move(*csr), percentile(freeze, 0.5), percentile(tables, 0.5),
          percentile(landmarks, 0.5)};
}

struct QueryRun {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double settled_mean = 0.0;
  std::size_t mismatches = 0;  // ALT-vs-Dijkstra cost/path differences
};

/// Time ALT (or plain Dijkstra) over all pairs; when `check` is non-null,
/// every ALT result is compared bit-identically against it.
QueryRun run_queries(const planning::CsrGraph& csr,
                     const std::vector<std::pair<std::size_t, std::size_t>>&
                         pairs,
                     Metric m, bool use_alt,
                     std::vector<planning::RouteGraph::Route>* results,
                     const std::vector<planning::RouteGraph::Route>* check) {
  planning::QueryContext ctx;
  (void)csr.route(pairs[0].first, pairs[0].second, m, ctx, use_alt);  // warm
  std::vector<double> lat;
  lat.reserve(pairs.size());
  double settled = 0.0;
  QueryRun run;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto t0 = Clock::now();
    auto r = csr.route(pairs[i].first, pairs[i].second, m, ctx, use_alt);
    lat.push_back(ms_since(t0));
    settled += static_cast<double>(ctx.stats().settled);
    if (check != nullptr) {
      const auto& ref = (*check)[i];
      if (r.found != ref.found || r.cost != ref.cost ||
          r.edges != ref.edges || r.nodes != ref.nodes) {
        ++run.mismatches;
      }
    }
    if (results != nullptr) (*results)[i] = std::move(r);
  }
  run.mean_ms = mean(lat);
  run.p50_ms = percentile(lat, 0.50);
  run.p99_ms = percentile(lat, 0.99);
  run.settled_mean = settled / static_cast<double>(pairs.size());
  return run;
}

testing::Json::Object to_json(const QueryRun& r) {
  return testing::Json::Object{
      {"mean_ms", r.mean_ms},   {"p50_ms", r.p50_ms},
      {"p99_ms", r.p99_ms},     {"settled_mean", r.settled_mean},
      {"mismatches", r.mismatches},
  };
}

const char* class_name(road::RoadClass c) {
  switch (c) {
    case road::RoadClass::kArterial: return "arterial";
    case road::RoadClass::kCollector: return "collector";
    case road::RoadClass::kResidential: return "residential";
  }
  return "?";
}

}  // namespace

int main() {
  testing::Json::Object doc;

  // ===== OSM-like city ===================================================
  const planning::OsmCityConfig cfg;
  const planning::RouteGraph city = planning::make_osm_city(cfg);
  const TimedFreeze frozen = timed_freeze(city);
  const planning::CsrGraph& csr = frozen.csr;
  std::printf("osm city: %zu nodes, %zu edges; frozen in %.1f ms "
              "(cost tables %.1f ms, %zu landmarks/metric in %.1f ms; "
              "medians of %zu freezes)\n",
              csr.node_count(), csr.edge_count(), frozen.freeze_ms,
              frozen.cost_tables_ms, csr.landmark_count(),
              frozen.landmarks_ms, kFreezes);
  testing::Json::Object osm = frozen.to_json();
  osm["nodes"] = csr.node_count();
  osm["edges"] = csr.edge_count();
  osm["landmarks_per_metric"] = csr.landmark_count();
  doc["osm_city"] = std::move(osm);

  // Legacy baseline: std::function costs, per-edge VSP re-integration,
  // O(n) allocation per query. The engine this PR replaces.
  const auto pairs = random_pairs(city.node_count(), 1000, 2718);
  const planning::CostModel model;
  const auto legacy_cost = [&model](const planning::Edge& e) {
    const double speed =
        e.speed_mps > 0.0 ? e.speed_mps : model.default_speed_mps;
    return planning::edge_cost_fuel(e, speed, model.vsp);
  };
  constexpr std::size_t kLegacyN = 30;
  double legacy_checksum = 0.0;
  const auto t_legacy = Clock::now();
  for (std::size_t i = 0; i < kLegacyN; ++i) {
    legacy_checksum +=
        city.shortest_path(pairs[i].first, pairs[i].second, legacy_cost)
            .cost;
  }
  const double legacy_mean_ms =
      ms_since(t_legacy) / static_cast<double>(kLegacyN);
  std::printf("\nlegacy shortest_path (fuel): %.3f ms/query "
              "(%zu queries, checksum %.6f)\n",
              legacy_mean_ms, kLegacyN, legacy_checksum);
  doc["legacy"] = testing::Json::Object{
      {"metric", "fuel"},
      {"queries", kLegacyN},
      {"mean_ms", legacy_mean_ms},
  };

  // Per-metric CSR-Dijkstra vs ALT (ALT checked bit-identical as timed).
  std::printf("\n%-9s %26s %36s %9s\n", "metric", "csr-dijkstra (ms)",
              "alt (ms)", "speedup");
  std::printf("%-9s %8s %8s %8s %8s %8s %8s %9s %9s\n", "", "mean", "p99",
              "settled", "mean", "p99", "settled", "vs dij", "vs legacy");
  testing::Json::Object metrics_json;
  std::vector<planning::RouteGraph::Route> dij_routes(pairs.size());
  for (const Metric m : {Metric::kDistance, Metric::kTime, Metric::kFuel,
                         Metric::kCo2}) {
    const auto dij = run_queries(csr, pairs, m, false, &dij_routes, nullptr);
    const auto alt = run_queries(csr, pairs, m, true, nullptr, &dij_routes);
    const double vs_dij = dij.mean_ms / alt.mean_ms;
    const double vs_legacy = legacy_mean_ms / alt.mean_ms;
    std::printf("%-9s %8.4f %8.4f %8.0f %8.4f %8.4f %8.0f %8.1fx %8.0fx%s\n",
                planning::metric_name(m), dij.mean_ms, dij.p99_ms,
                dij.settled_mean, alt.mean_ms, alt.p99_ms, alt.settled_mean,
                vs_dij, vs_legacy,
                alt.mismatches == 0 ? "" : "  MISMATCH!");
    if (alt.mismatches != 0) {
      std::fprintf(stderr, "ALT/Dijkstra mismatch on %s\n",
                   planning::metric_name(m));
      return 1;
    }
    metrics_json[planning::metric_name(m)] = testing::Json::Object{
        {"dijkstra", to_json(dij)},
        {"alt", to_json(alt)},
        {"alt_speedup_vs_dijkstra", vs_dij},
        {"alt_speedup_vs_legacy", vs_legacy},
    };
  }
  doc["osm_city_queries"] = std::move(metrics_json);

  // Concurrent query traffic: shared read-only graph, per-worker contexts.
  {
    constexpr std::size_t kWorkers = 8;
    constexpr std::size_t kTraffic = 8000;
    const auto traffic = random_pairs(city.node_count(), kTraffic, 99);
    runtime::ThreadPool pool(kWorkers);
    std::vector<planning::QueryContext> contexts(kWorkers + 1);
    std::atomic<std::size_t> next_ctx{0};
    static thread_local planning::QueryContext* tls_ctx = nullptr;
    std::vector<double> lat(kTraffic);
    std::atomic<std::size_t> found{0};
    const auto t0 = Clock::now();
    runtime::parallel_for(pool, kTraffic, [&](std::size_t i) {
      if (tls_ctx == nullptr) {
        tls_ctx =
            &contexts[next_ctx.fetch_add(1, std::memory_order_relaxed)];
      }
      const auto q0 = Clock::now();
      const auto r = csr.route(traffic[i].first, traffic[i].second,
                               static_cast<Metric>(i % 4), *tls_ctx, true);
      lat[i] = ms_since(q0);
      if (r.found) found.fetch_add(1, std::memory_order_relaxed);
    });
    const double wall_ms = ms_since(t0);
    const double qps = 1000.0 * static_cast<double>(kTraffic) / wall_ms;
    std::printf("\nconcurrent traffic: %zu queries on %zu workers in "
                "%.0f ms -> %.0f queries/s (p50 %.4f ms, p99 %.4f ms, "
                "%zu routed)\n",
                kTraffic, kWorkers, wall_ms, qps, percentile(lat, 0.5),
                percentile(lat, 0.99), found.load());
    doc["osm_city_concurrent"] = testing::Json::Object{
        {"workers", kWorkers},
        {"queries", kTraffic},
        {"wall_ms", wall_ms},
        {"queries_per_sec", qps},
        {"p50_ms", percentile(lat, 0.5)},
        {"p99_ms", percentile(lat, 0.99)},
    };
  }

  // Eco-vs-shortest deltas, bucketed by the shortest route's majority road
  // class and scaled by the AADT traffic model's hourly volumes.
  {
    const auto od = random_pairs(city.node_count(), 300, 424242);
    planning::QueryContext ctx;
    struct Bucket {
      std::size_t trips = 0;
      double fuel_saved_gal = 0.0;
      double fuel_shortest_gal = 0.0;
      double co2_saved_g = 0.0;
      double extra_m = 0.0;
    };
    Bucket buckets[3];
    for (const auto& [from, to] : od) {
      const auto shortest = csr.route(from, to, Metric::kDistance, ctx);
      const auto eco = csr.route(from, to, Metric::kFuel, ctx);
      if (!shortest.found || !eco.found || shortest.edges.empty()) continue;
      double fuel_shortest = 0.0;
      double class_len[3] = {0.0, 0.0, 0.0};
      for (const std::size_t ei : shortest.edges) {
        fuel_shortest += csr.edge_cost(Metric::kFuel, ei);
        class_len[static_cast<int>(city.edge(ei).road_class)] +=
            city.edge(ei).length_m;
      }
      const int majority = static_cast<int>(
          std::max_element(class_len, class_len + 3) - class_len);
      Bucket& b = buckets[majority];
      ++b.trips;
      b.fuel_saved_gal += fuel_shortest - eco.cost;
      b.fuel_shortest_gal += fuel_shortest;
      b.co2_saved_g += emissions::emission_mass_g(
          fuel_shortest - eco.cost, emissions::kCo2GramsPerGallon);
      b.extra_m += eco.length_m - shortest.length_m;
    }
    const emissions::TrafficModel traffic_model;
    std::printf("\neco route vs shortest route (by majority road class):\n"
                "%-12s %6s %12s %12s %10s %9s %14s\n",
                "class", "trips", "fuel saved", "co2 saved", "extra m",
                "veh/h", "fleet co2/h");
    testing::Json::Object eco_json;
    for (int c = 0; c < 3; ++c) {
      const Bucket& b = buckets[c];
      if (b.trips == 0) continue;
      const auto cls = static_cast<road::RoadClass>(c);
      const double n = static_cast<double>(b.trips);
      const double saved_pct =
          100.0 * b.fuel_saved_gal / b.fuel_shortest_gal;
      const double vph = traffic_model.vehicles_per_hour(cls, 0);
      const double fleet_co2_g_per_h = (b.co2_saved_g / n) * vph;
      std::printf("%-12s %6zu %10.2f %% %10.0f g %10.0f %9.0f %12.1f kg\n",
                  class_name(cls), b.trips, saved_pct, b.co2_saved_g / n,
                  b.extra_m / n, vph, fleet_co2_g_per_h / 1000.0);
      eco_json[class_name(cls)] = testing::Json::Object{
          {"trips", b.trips},
          {"fuel_saved_pct", saved_pct},
          {"co2_saved_g_per_trip", b.co2_saved_g / n},
          {"extra_m_per_trip", b.extra_m / n},
          {"vehicles_per_hour", vph},
          {"fleet_co2_saved_g_per_hour", fleet_co2_g_per_h},
      };
    }
    doc["osm_city_eco_vs_shortest"] = std::move(eco_json);
  }

  // ===== Table-III network (fused grade map) =============================
  {
    const road::RoadNetwork net = road::make_city_network(2019);
    runtime::ThreadPool pool(8);
    const auto t_survey = Clock::now();
    const auto profiles = testing::survey_network_grades(
        net, /*trips_per_road=*/1, /*base_seed=*/9000, /*step_m=*/25.0,
        &pool);
    const double survey_ms = ms_since(t_survey);
    const planning::RouteGraph g =
        planning::build_network_graph(net, profiles, 25.0);
    const TimedFreeze net_frozen = timed_freeze(g);
    const planning::CsrGraph& net_csr = net_frozen.csr;
    std::printf("\ntable-III network: %zu roads / %.1f km surveyed in "
                "%.0f ms (1 trip/road, full pipeline); graph %zu nodes, "
                "%zu edges, frozen in %.1f ms (median of %zu)\n",
                net.size(), net.total_length_m() / 1000.0, survey_ms,
                net_csr.node_count(), net_csr.edge_count(),
                net_frozen.freeze_ms, kFreezes);

    const auto net_pairs = random_pairs(g.node_count(), 1000, 31415);
    std::vector<planning::RouteGraph::Route> net_dij(net_pairs.size());
    const auto dij =
        run_queries(net_csr, net_pairs, Metric::kFuel, false, &net_dij,
                    nullptr);
    const auto alt =
        run_queries(net_csr, net_pairs, Metric::kFuel, true, nullptr,
                    &net_dij);
    if (alt.mismatches != 0) {
      std::fprintf(stderr, "ALT/Dijkstra mismatch on network graph\n");
      return 1;
    }
    std::printf("fuel queries: dijkstra %.4f ms mean -> alt %.4f ms mean "
                "(%.1fx), alt p99 %.4f ms, 0 mismatches in %zu pairs\n",
                dij.mean_ms, alt.mean_ms, dij.mean_ms / alt.mean_ms,
                alt.p99_ms, net_pairs.size());
    testing::Json::Object net_json = net_frozen.to_json();
    net_json["roads"] = net.size();
    net_json["total_km"] = net.total_length_m() / 1000.0;
    net_json["survey_ms"] = survey_ms;
    net_json["trips_per_road"] = 1;
    net_json["nodes"] = net_csr.node_count();
    net_json["edges"] = net_csr.edge_count();
    net_json["fuel_dijkstra"] = to_json(dij);
    net_json["fuel_alt"] = to_json(alt);
    net_json["alt_speedup_vs_dijkstra"] = dij.mean_ms / alt.mean_ms;
    doc["table3_network"] = std::move(net_json);
  }

  testing::write_json_file(testing::Json(doc), "BENCH_eco_routing.json");
  std::printf("\nwrote BENCH_eco_routing.json\n");
  return 0;
}
