// Network-scale eco-routing query engine.
//
// CsrGraph freezes a RouteGraph into a flat CSR (compressed sparse row)
// adjacency with BFS-ordered nodes and *precomputed* per-edge cost tables
// for every routing metric — distance, travel time, VSP fuel and CO2 —
// so a query never touches a std::function or re-integrates the VSP model
// over an edge's grade samples. On top of the frozen graph sits an ALT
// preprocessing layer (A*, Landmarks, Triangle inequality): a handful of
// farthest-point landmarks per metric with forward/backward shortest-path
// distances, giving goal-directed potentials that cut the settled set of
// an energy-optimal point-to-point query by an order of magnitude.
//
// Correctness contract (pinned by tests/test_csr_graph and the
// tests/test_eco_routing_parity suite):
//   * route(..., use_alt=true) returns bit-identical costs AND identical
//     paths to route(..., use_alt=false) (plain Dijkstra on the same CSR),
//     which in turn matches RouteGraph::shortest_path with the matching
//     cost function.
//   * Tie-breaking is deterministic: on bitwise-equal path cost the lower
//     original edge index wins at every node, making the returned path a
//     pure function of (graph, metric) — heap order and landmark pruning
//     cannot change it. See DESIGN.md §9 for the argument.
//
// Landmark potentials are built per cost metric. Fuel costs are strictly
// positive (idle floor) but near-zero downhill, so a distance-metric
// potential would grossly overestimate downhill fuel distances and break
// admissibility; each metric gets its own landmark selection and distance
// tables instead.
//
// Queries are read-only and thread-safe: the graph is immutable after
// construction, and all mutable search state lives in a caller-owned
// QueryContext (one per thread; epoch-stamped arrays make reuse O(touched)
// instead of O(n) per query).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "planning/route_graph.hpp"

namespace rge::planning {

/// Routing metrics with precomputed cost tables.
enum class Metric : int { kDistance = 0, kTime = 1, kFuel = 2, kCo2 = 3 };
inline constexpr int kMetricCount = 4;
const char* metric_name(Metric m);

/// Parameters the per-edge cost tables are derived from, once, at freeze
/// time. Fuel uses emissions::profile_fuel_gal over the edge's stored
/// grade profile — the exact computation edge_cost_fuel performs today.
struct CostModel {
  /// Cruise speed for edges that do not carry their own speed_mps.
  double default_speed_mps = 40.0 / 3.6;
  emissions::VspParams vsp{};
  double co2_g_per_gal = 8908.0;  ///< emissions::kCo2GramsPerGallon
};

/// ALT preprocessing configuration.
struct AltConfig {
  /// Landmarks per metric (farthest-point selection). 0 disables ALT:
  /// route(..., use_alt=true) then degrades to plain Dijkstra.
  std::size_t landmarks = 8;
  /// Renumber nodes in BFS order from node 0 so that a query's working set
  /// walks mostly-contiguous offsets_/head_ ranges.
  bool bfs_order = true;
};

/// Per-query search statistics (written into the QueryContext).
struct QueryStats {
  std::size_t settled = 0;   ///< heap pops that were not stale
  std::size_t relaxed = 0;   ///< edge relaxations attempted
  std::size_t pushed = 0;    ///< heap pushes
};

/// Freeze-time statistics (cost tables vs landmark preprocessing).
struct BuildStats {
  double cost_tables_ms = 0.0;
  double landmarks_ms = 0.0;
};

class CsrGraph;

/// Alignment, and so the size granularity, of a QueryContext in bytes.
inline constexpr std::size_t kQueryContextAlign = 128;

/// Mutable per-thread search scratch. Reusable across queries and graphs;
/// epoch stamps avoid O(n) clears, so a warm sub-millisecond query only
/// pays for the nodes it actually touches.
///
/// A query writes its context's heap_ header and stats_ on every settle
/// and relaxation, and callers keep one context per worker side by side
/// (a std::vector<QueryContext>). The alignment gives each context its
/// own pair of cache lines (x86's adjacent-line prefetcher moves lines in
/// 128-byte pairs), so neighbouring workers never contend for one line
/// and a query's cost does not depend on where the allocator put the
/// vector. See DESIGN.md §9.
class alignas(kQueryContextAlign) QueryContext {
 public:
  QueryContext() = default;
  const QueryStats& stats() const { return stats_; }

 private:
  friend class CsrGraph;
  void begin(std::size_t n);
  struct HeapEntry {
    double key;  ///< g + potential (the A* f-value)
    double g;    ///< exact accumulated cost from the source
    std::uint32_t node;
  };

  std::vector<double> dist_;
  std::vector<std::uint32_t> via_;  ///< CSR position of the parent edge
  std::vector<double> pot_;
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> pot_stamp_;
  std::vector<HeapEntry> heap_;
  std::uint32_t epoch_ = 0;
  QueryStats stats_;
};

class CsrGraph {
 public:
  using Route = RouteGraph::Route;

  /// Freeze `g` into CSR form and run ALT preprocessing. All node/edge ids
  /// in the query API remain the ORIGINAL RouteGraph numbering; the
  /// BFS-ordered internal ids never leak.
  /// @throws std::invalid_argument on an empty graph or a non-finite /
  ///         non-positive precomputed edge cost.
  explicit CsrGraph(const RouteGraph& g, const CostModel& model = {},
                    const AltConfig& alt = {});

  std::size_t node_count() const { return offsets_.size() - 1; }
  std::size_t edge_count() const { return head_.size(); }
  std::size_t landmark_count() const { return landmarks_[0].size(); }
  const BuildStats& build_stats() const { return build_stats_; }

  /// Precomputed cost of an edge (original edge index) under a metric.
  double edge_cost(Metric m, std::size_t original_edge_id) const;

  /// Landmark nodes for a metric, as original node ids (for reporting).
  std::vector<std::size_t> landmarks(Metric m) const;

  /// ALT potential: a lower bound on the `m`-cost from `node` to `target`
  /// (original ids). Exposed for admissibility tests.
  double potential(Metric m, std::size_t node, std::size_t target) const;

  /// Point-to-point query. `use_alt=false` runs plain Dijkstra on the CSR
  /// arrays (the baseline the speedup budgets compare against);
  /// `use_alt=true` adds the landmark potentials. Both return bit-identical
  /// costs and identical, deterministically tie-broken paths.
  /// @throws std::invalid_argument on out-of-range endpoints.
  Route route(std::size_t from, std::size_t to, Metric m, QueryContext& ctx,
              bool use_alt = true) const;
  /// Convenience overload with a throwaway context (allocates; prefer the
  /// context form on hot paths).
  Route route(std::size_t from, std::size_t to, Metric m) const;

 private:
  static constexpr std::uint32_t kNoEdge =
      std::numeric_limits<std::uint32_t>::max();

  /// Heap entry of the preprocessing Dijkstra.
  struct SettleEntry {
    double key;
    std::uint32_t node;
  };

  void build_csr(const RouteGraph& g, const CostModel& model);
  void build_landmarks(const AltConfig& alt);
  /// Full single-source distances over the forward CSR arrays, or over
  /// the reverse ones when kReverse (preprocessing). `heap` is scratch
  /// reused across calls.
  template <bool kReverse>
  void dijkstra_all(std::uint32_t src, const double* cost,
                    std::vector<SettleEntry>& heap,
                    std::vector<double>& out) const;
  /// True when, at every node, the (head, cost) multiset of its out-edges
  /// equals the (tail, cost) multiset of its in-edges under metric m, i.e.
  /// the reverse graph is the same weighted multigraph.
  bool symmetric(Metric m) const;
  double potential_internal(Metric m, std::uint32_t v, std::uint32_t t) const;

  // --- CSR adjacency (internal BFS node order) -------------------------
  std::vector<std::uint32_t> offsets_;   // n+1
  std::vector<std::uint32_t> head_;      // m: target internal node
  std::vector<std::uint32_t> tail_;      // m: source internal node
  std::vector<std::uint32_t> edge_id_;   // m: original edge index
  std::vector<double> length_m_;         // m
  std::array<std::vector<double>, kMetricCount> cost_;  // [metric][pos]

  // Reverse adjacency (landmark backward distances). rev_pos_ maps a
  // reverse slot to its forward CSR position so cost tables are shared.
  std::vector<std::uint32_t> rev_offsets_;
  std::vector<std::uint32_t> rev_head_;
  std::vector<std::uint32_t> rev_pos_;

  // --- id mappings -----------------------------------------------------
  std::vector<std::uint32_t> internal_of_;  // original node -> internal
  std::vector<std::uint32_t> original_of_;  // internal -> original node
  std::vector<std::uint32_t> csr_pos_of_edge_;  // original edge -> CSR pos

  // --- ALT tables ------------------------------------------------------
  // landmarks_[metric]: internal node ids; distance tables are flattened
  // [k * n + v] (from = d(L, v), to = d(v, L)).
  std::array<std::vector<std::uint32_t>, kMetricCount> landmarks_;
  std::array<std::vector<double>, kMetricCount> land_from_;
  std::array<std::vector<double>, kMetricCount> land_to_;

  BuildStats build_stats_;
};

}  // namespace rge::planning
