#include "planning/csr_graph.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace rge::planning {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double ms_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Min-heap helpers over QueryContext::HeapEntry keyed on `key`.
struct KeyGreater {
  template <typename E>
  bool operator()(const E& a, const E& b) const {
    return a.key > b.key;
  }
};

}  // namespace

const char* metric_name(Metric m) {
  switch (m) {
    case Metric::kDistance: return "distance";
    case Metric::kTime: return "time";
    case Metric::kFuel: return "fuel";
    case Metric::kCo2: return "co2";
  }
  return "?";
}

void QueryContext::begin(std::size_t n) {
  if (dist_.size() != n) {
    dist_.assign(n, kInf);
    via_.assign(n, 0);
    pot_.assign(n, 0.0);
    stamp_.assign(n, 0);
    pot_stamp_.assign(n, 0);
    epoch_ = 0;
  }
  ++epoch_;
  if (epoch_ == 0) {  // wrapped: stale stamps could collide, hard reset
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(pot_stamp_.begin(), pot_stamp_.end(), 0);
    epoch_ = 1;
  }
  heap_.clear();
  stats_ = QueryStats{};
}

CsrGraph::CsrGraph(const RouteGraph& g, const CostModel& model,
                   const AltConfig& alt) {
  if (g.node_count() == 0) {
    throw std::invalid_argument("CsrGraph: empty graph");
  }
  if (g.node_count() >= kNoEdge || g.edge_count() >= kNoEdge) {
    throw std::invalid_argument("CsrGraph: graph too large for u32 ids");
  }

  OBS_SPAN("planning.freeze");
  const auto t0 = std::chrono::steady_clock::now();

  // ---- node order: BFS from node 0, unreached nodes appended by id ----
  const std::size_t n = g.node_count();
  original_of_.clear();
  original_of_.reserve(n);
  internal_of_.assign(n, kNoEdge);
  if (alt.bfs_order) {
    std::vector<std::uint32_t> frontier;
    frontier.push_back(0);
    internal_of_[0] = 0;
    original_of_.push_back(0);
    for (std::size_t qi = 0; qi < original_of_.size(); ++qi) {
      const std::uint32_t u = original_of_[qi];
      for (const std::size_t ei : g.out_edges(u)) {
        const auto v = static_cast<std::uint32_t>(g.edge(ei).to);
        if (internal_of_[v] == kNoEdge) {
          internal_of_[v] = static_cast<std::uint32_t>(original_of_.size());
          original_of_.push_back(v);
        }
      }
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      if (internal_of_[v] == kNoEdge) {
        internal_of_[v] = static_cast<std::uint32_t>(original_of_.size());
        original_of_.push_back(v);
      }
    }
  } else {
    for (std::uint32_t v = 0; v < n; ++v) {
      internal_of_[v] = v;
      original_of_.push_back(v);
    }
  }

  build_csr(g, model);
  build_stats_.cost_tables_ms = ms_since(t0);

  const auto t1 = std::chrono::steady_clock::now();
  build_landmarks(alt);
  build_stats_.landmarks_ms = ms_since(t1);
}

void CsrGraph::build_csr(const RouteGraph& g, const CostModel& model) {
  const std::size_t n = g.node_count();
  const std::size_t m = g.edge_count();

  offsets_.assign(n + 1, 0);
  head_.resize(m);
  tail_.resize(m);
  edge_id_.resize(m);
  length_m_.resize(m);
  csr_pos_of_edge_.assign(m, kNoEdge);

  // Out-degree histogram in internal order, then prefix sums.
  for (std::uint32_t iu = 0; iu < n; ++iu) {
    offsets_[iu + 1] = static_cast<std::uint32_t>(
        g.out_edges(original_of_[iu]).size());
  }
  for (std::size_t i = 0; i < n; ++i) offsets_[i + 1] += offsets_[i];

  // Flat grade profiles in CSR order feed the batch fuel costing below.
  std::vector<double> grades_flat;
  std::vector<std::uint32_t> grade_offsets(m + 1, 0);
  std::vector<double> step_m(m);
  std::vector<double> speed(m);

  for (std::uint32_t iu = 0; iu < n; ++iu) {
    std::uint32_t pos = offsets_[iu];
    for (const std::size_t ei : g.out_edges(original_of_[iu])) {
      const Edge& e = g.edge(ei);
      head_[pos] = internal_of_[e.to];
      tail_[pos] = iu;
      edge_id_[pos] = static_cast<std::uint32_t>(ei);
      length_m_[pos] = e.length_m;
      csr_pos_of_edge_[ei] = pos;
      step_m[pos] = e.grade_step_m;
      speed[pos] = e.speed_mps > 0.0 ? e.speed_mps : model.default_speed_mps;
      ++pos;
    }
  }
  // Grade profiles, appended in CSR position order.
  for (std::uint32_t pos = 0; pos < m; ++pos) {
    const Edge& e = g.edge(edge_id_[pos]);
    grade_offsets[pos] = static_cast<std::uint32_t>(grades_flat.size());
    grades_flat.insert(grades_flat.end(), e.grades.begin(), e.grades.end());
  }
  grade_offsets[m] = static_cast<std::uint32_t>(grades_flat.size());

  // ---- cost tables ----------------------------------------------------
  for (auto& c : cost_) c.resize(m);
  auto& dist_cost = cost_[static_cast<int>(Metric::kDistance)];
  auto& time_cost = cost_[static_cast<int>(Metric::kTime)];
  auto& fuel_cost = cost_[static_cast<int>(Metric::kFuel)];
  auto& co2_cost = cost_[static_cast<int>(Metric::kCo2)];

  for (std::uint32_t pos = 0; pos < m; ++pos) {
    dist_cost[pos] = length_m_[pos];
    time_cost[pos] = length_m_[pos] / speed[pos];
  }
  emissions::profile_fuel_batch(grades_flat, grade_offsets, step_m, speed,
                                fuel_cost, model.vsp);
  for (std::uint32_t pos = 0; pos < m; ++pos) {
    co2_cost[pos] = fuel_cost[pos] * model.co2_g_per_gal;
  }

  for (int mi = 0; mi < kMetricCount; ++mi) {
    for (std::uint32_t pos = 0; pos < m; ++pos) {
      const double c = cost_[mi][pos];
      if (!std::isfinite(c) || c <= 0.0) {
        throw std::invalid_argument(
            std::string("CsrGraph: non-positive or non-finite ") +
            metric_name(static_cast<Metric>(mi)) + " cost on edge " +
            std::to_string(edge_id_[pos]));
      }
    }
  }

  // ---- reverse CSR ----------------------------------------------------
  rev_offsets_.assign(n + 1, 0);
  rev_head_.resize(m);
  rev_pos_.resize(m);
  for (std::uint32_t pos = 0; pos < m; ++pos) ++rev_offsets_[head_[pos] + 1];
  for (std::size_t i = 0; i < n; ++i) rev_offsets_[i + 1] += rev_offsets_[i];
  {
    std::vector<std::uint32_t> cursor(rev_offsets_.begin(),
                                      rev_offsets_.end() - 1);
    for (std::uint32_t pos = 0; pos < m; ++pos) {
      const std::uint32_t slot = cursor[head_[pos]]++;
      rev_head_[slot] = tail_[pos];
      rev_pos_[slot] = pos;
    }
  }
}

template <bool kReverse>
void CsrGraph::dijkstra_all(std::uint32_t src, const double* cost,
                            std::vector<SettleEntry>& heap,
                            std::vector<double>& out) const {
  const std::uint32_t* offsets =
      kReverse ? rev_offsets_.data() : offsets_.data();
  const std::uint32_t* heads = kReverse ? rev_head_.data() : head_.data();
  out.assign(node_count(), kInf);
  out[src] = 0.0;
  heap.clear();
  heap.push_back({0.0, src});
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), KeyGreater{});
    const SettleEntry e = heap.back();
    heap.pop_back();
    if (e.key > out[e.node]) continue;
    const std::uint32_t hi = offsets[e.node + 1];
    for (std::uint32_t p = offsets[e.node]; p < hi; ++p) {
      const std::uint32_t v = heads[p];
      const double nd = e.key + cost[kReverse ? rev_pos_[p] : p];
      if (nd < out[v]) {
        out[v] = nd;
        heap.push_back({nd, v});
        std::push_heap(heap.begin(), heap.end(), KeyGreater{});
      }
    }
  }
}

bool CsrGraph::symmetric(Metric m) const {
  const double* cost = cost_[static_cast<int>(m)].data();
  std::vector<std::pair<std::uint32_t, double>> out_arcs;
  std::vector<std::pair<std::uint32_t, double>> in_arcs;
  for (std::uint32_t u = 0; u < node_count(); ++u) {
    const std::uint32_t lo = offsets_[u];
    const std::uint32_t hi = offsets_[u + 1];
    const std::uint32_t rlo = rev_offsets_[u];
    const std::uint32_t rhi = rev_offsets_[u + 1];
    if (hi - lo != rhi - rlo) return false;
    out_arcs.clear();
    in_arcs.clear();
    for (std::uint32_t p = lo; p < hi; ++p) {
      out_arcs.emplace_back(head_[p], cost[p]);
    }
    for (std::uint32_t q = rlo; q < rhi; ++q) {
      in_arcs.emplace_back(rev_head_[q], cost[rev_pos_[q]]);
    }
    std::sort(out_arcs.begin(), out_arcs.end());
    std::sort(in_arcs.begin(), in_arcs.end());
    if (out_arcs != in_arcs) return false;
  }
  return true;
}

void CsrGraph::build_landmarks(const AltConfig& alt) {
  OBS_SPAN("planning.landmarks");
  const std::size_t n = node_count();
  const std::size_t k = std::min(alt.landmarks, n);
  if (k == 0) return;

  std::vector<SettleEntry> heap;
  std::vector<double> dist;
  std::vector<double> min_dist;
  std::int64_t dijkstras = 0;
  for (int mi = 0; mi < kMetricCount; ++mi) {
    const auto metric = static_cast<Metric>(mi);
    const double* cost = cost_[mi].data();
    auto& lms = landmarks_[mi];
    lms.clear();

    // Farthest-point selection on forward distances, seeded from node 0.
    // Ties break to the lower internal id so selection is deterministic.
    // Each selected landmark's forward distances are its land_from_ row.
    auto& from = land_from_[mi];
    from.clear();
    from.reserve(k * n);
    min_dist.assign(n, kInf);
    std::uint32_t next = 0;
    dijkstra_all<false>(0, cost, heap, dist);
    ++dijkstras;
    double best = -1.0;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (std::isfinite(dist[v]) && dist[v] > best) {
        best = dist[v];
        next = v;
      }
    }
    while (lms.size() < k) {
      lms.push_back(next);
      dijkstra_all<false>(next, cost, heap, dist);
      ++dijkstras;
      from.insert(from.end(), dist.begin(), dist.end());
      double far = -1.0;
      std::uint32_t far_node = kNoEdge;
      for (std::uint32_t v = 0; v < n; ++v) {
        min_dist[v] = std::min(min_dist[v], dist[v]);
        if (std::isfinite(min_dist[v]) && min_dist[v] > far) {
          far = min_dist[v];
          far_node = v;
        }
      }
      if (far_node == kNoEdge || far <= 0.0) break;  // graph exhausted
      next = far_node;
    }

    // Backward distance tables d(·, L). When the metric is symmetric the
    // reverse graph is the forward graph, so each backward Dijkstra would
    // reproduce its landmark's forward row bit for bit (DESIGN.md §9):
    // copy the rows instead.
    if (symmetric(metric)) {
      land_to_[mi] = from;
      continue;
    }
    land_to_[mi].assign(lms.size() * n, kInf);
    for (std::size_t li = 0; li < lms.size(); ++li) {
      dijkstra_all<true>(lms[li], cost, heap, dist);
      ++dijkstras;
      std::copy(dist.begin(), dist.end(),
                land_to_[mi].begin() + static_cast<std::ptrdiff_t>(li * n));
    }
  }
  OBS_COUNT("planning.landmark_dijkstras", dijkstras);
}

double CsrGraph::potential_internal(Metric m, std::uint32_t v,
                                    std::uint32_t t) const {
  const int mi = static_cast<int>(m);
  const std::size_t n = node_count();
  const auto& from = land_from_[mi];
  const auto& to = land_to_[mi];
  const std::size_t k = landmarks_[mi].size();
  double best = 0.0;
  for (std::size_t li = 0; li < k; ++li) {
    const double l_t = from[li * n + t];
    const double l_v = from[li * n + v];
    // d(L,t) <= d(L,v) + d(v,t)  =>  d(v,t) >= d(L,t) - d(L,v).
    if (std::isfinite(l_v)) {
      if (!std::isfinite(l_t)) return kInf;  // v reaches L's tree, t doesn't
      best = std::max(best, l_t - l_v);
    }
    const double v_l = to[li * n + v];
    const double t_l = to[li * n + t];
    // d(v,L) <= d(v,t) + d(t,L)  =>  d(v,t) >= d(v,L) - d(t,L).
    if (std::isfinite(t_l)) {
      best = std::max(best, v_l - t_l);  // v_l may be inf: bound is inf
    }
  }
  return best;
}

double CsrGraph::edge_cost(Metric m, std::size_t original_edge_id) const {
  if (original_edge_id >= csr_pos_of_edge_.size()) {
    throw std::invalid_argument("CsrGraph::edge_cost: bad edge id");
  }
  return cost_[static_cast<int>(m)][csr_pos_of_edge_[original_edge_id]];
}

std::vector<std::size_t> CsrGraph::landmarks(Metric m) const {
  std::vector<std::size_t> out;
  for (const std::uint32_t v : landmarks_[static_cast<int>(m)]) {
    out.push_back(original_of_[v]);
  }
  return out;
}

double CsrGraph::potential(Metric m, std::size_t node,
                           std::size_t target) const {
  if (node >= internal_of_.size() || target >= internal_of_.size()) {
    throw std::invalid_argument("CsrGraph::potential: bad node id");
  }
  return potential_internal(m, internal_of_[node], internal_of_[target]);
}

CsrGraph::Route CsrGraph::route(std::size_t from, std::size_t to, Metric m,
                                QueryContext& ctx, bool use_alt) const {
  const std::size_t n = node_count();
  if (from >= n || to >= n) {
    throw std::invalid_argument("CsrGraph::route: bad endpoints");
  }
  if (landmarks_[static_cast<int>(m)].empty()) use_alt = false;

  Route route;
  const std::uint32_t s = internal_of_[from];
  const std::uint32_t t = internal_of_[to];
  ctx.begin(n);
  if (s == t) {
    route.found = true;
    route.nodes.push_back(from);
    return route;
  }

  const double* cost = cost_[static_cast<int>(m)].data();
  const std::uint32_t epoch = ctx.epoch_;

  auto pot = [&](std::uint32_t v) -> double {
    if (!use_alt) return 0.0;
    if (ctx.pot_stamp_[v] != epoch) {
      ctx.pot_stamp_[v] = epoch;
      ctx.pot_[v] = potential_internal(m, v, t);
    }
    return ctx.pot_[v];
  };

  auto& heap = ctx.heap_;
  auto push = [&](double key, double g, std::uint32_t node) {
    heap.push_back({key, g, node});
    std::push_heap(heap.begin(), heap.end(), KeyGreater{});
    ++ctx.stats_.pushed;
  };

  ctx.dist_[s] = 0.0;
  ctx.via_[s] = kNoEdge;
  ctx.stamp_[s] = epoch;
  push(pot(s), 0.0, s);

  double best = kInf;
  double bound = kInf;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), KeyGreater{});
    const QueryContext::HeapEntry e = heap.back();
    heap.pop_back();
    if (e.key > bound) break;
    const std::uint32_t u = e.node;
    if (e.g > ctx.dist_[u]) continue;  // stale entry
    ++ctx.stats_.settled;
    if (u == t) {
      // Keep settling until the heap's best key strictly exceeds the
      // found cost (plus a relative ulp-slack absorbing any rounding in
      // the landmark subtraction): this finishes the equal-cost plateau,
      // which is what makes the deterministic tie-break independent of
      // whether potentials pruned the search. See DESIGN.md §9.
      best = ctx.dist_[t];
      bound = best * (1.0 + 1e-12);
      continue;
    }
    const double du = ctx.dist_[u];
    const std::uint32_t lo = offsets_[u];
    const std::uint32_t hi = offsets_[u + 1];
    for (std::uint32_t p = lo; p < hi; ++p) {
      const std::uint32_t v = head_[p];
      const double nd = du + cost[p];
      ++ctx.stats_.relaxed;
      const bool fresh = ctx.stamp_[v] != epoch;
      if (fresh || nd < ctx.dist_[v]) {
        const double pv = pot(v);
        if (pv == kInf) continue;  // v provably cannot reach t
        ctx.stamp_[v] = epoch;
        ctx.dist_[v] = nd;
        ctx.via_[v] = p;
        push(nd + pv, nd, v);
      } else if (nd == ctx.dist_[v] &&
                 edge_id_[p] < edge_id_[ctx.via_[v]]) {
        ctx.via_[v] = p;  // deterministic tie-break: lowest edge index
      }
    }
  }

  if (!std::isfinite(best)) return route;
  route.found = true;
  route.cost = best;
  std::uint32_t node = t;
  while (node != s) {
    const std::uint32_t p = ctx.via_[node];
    route.edges.push_back(edge_id_[p]);
    route.nodes.push_back(original_of_[node]);
    route.length_m += length_m_[p];
    node = tail_[p];
  }
  route.nodes.push_back(from);
  std::reverse(route.nodes.begin(), route.nodes.end());
  std::reverse(route.edges.begin(), route.edges.end());
  return route;
}

CsrGraph::Route CsrGraph::route(std::size_t from, std::size_t to,
                                Metric m) const {
  QueryContext ctx;
  return route(from, to, m, ctx, /*use_alt=*/true);
}

}  // namespace rge::planning
