#include "chain.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <stdexcept>

#include "core/grade_ekf_kernel.hpp"
#include "core/map_matching.hpp"
#include "core/online_estimator_batch.hpp"
#include "core/pipeline.hpp"
#include "math/angles.hpp"
#include "math/interp.hpp"
#include "planning/city_gen.hpp"

namespace perfbench {

using rge::core::GradeTrack;
using rge::service::TrackUpload;

namespace {

constexpr double kProfileStepM = 25.0;     ///< graph grade-profile spacing
constexpr std::size_t kOnlineBlock = 64;   ///< run_online_batch's default
constexpr std::size_t kAltSample = 32;     ///< 1 in 32 queries re-run
constexpr std::size_t kQueryPairs = 4096;  ///< distinct (from, to) pairs
constexpr std::size_t kMaxViolations = 16;

double ms_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e6;
}

/// One keyed sub-span of `track`, samples [lo, hi).
GradeTrack slice(const GradeTrack& track, std::size_t lo, std::size_t hi) {
  auto part = [&](const std::vector<double>& v) {
    return std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(lo),
                               v.begin() + static_cast<std::ptrdiff_t>(hi));
  };
  GradeTrack out;
  out.source = track.source;
  out.t = part(track.t);
  out.grade = part(track.grade);
  out.grade_var = part(track.grade_var);
  out.speed = part(track.speed);
  out.s = part(track.s);
  return out;
}

bool finite_track(const GradeTrack& t) {
  try {
    t.validate();
  } catch (const std::exception&) {
    return false;
  }
  return t.size() >= 2;
}

}  // namespace

std::vector<GradeTrack> estimate(
    const std::vector<rge::sensors::SensorTrace>& traces,
    const rge::vehicle::VehicleParams& params, Par& par,
    rge::runtime::StageMetrics* stage, Tracer* tracer,
    std::vector<double>* trip_ms) {
  std::vector<GradeTrack> fused(traces.size());
  if (par.width() > 1) {
    auto results = rge::core::run_pipeline_batch(traces, params, {},
                                                 par.width() - 1, stage);
    for (std::size_t i = 0; i < results.size(); ++i) {
      fused[i] = std::move(results[i].fused);
    }
    return fused;
  }
  const int parent = tracer != nullptr ? tracer->current() : -1;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::int64_t t0 = now_ns();
    auto r = rge::core::estimate_gradient(traces[i], params);
    r.fused.validate();
    fused[i] = std::move(r.fused);
    const std::int64_t t1 = now_ns();
    if (trip_ms != nullptr) trip_ms->push_back(ms_between(t0, t1));
    if (tracer != nullptr && tracer->on()) {
      tracer->leaf("pipeline.trip", t0, t1, static_cast<std::int64_t>(i),
                   parent);
    }
  }
  return fused;
}

void Ledger::fail(std::uint64_t n, const std::string& why) {
  failed += n;
  if (violations.size() < kMaxViolations) violations.push_back(why);
}

Replay make_replay(const Fleet& fleet, Par& par, std::uint64_t seed,
                   std::size_t per_round) {
  const rge::vehicle::VehicleParams params;
  std::vector<TrackUpload> uploads;
  std::size_t trip = 0;
  for (const SurveyBatch& b : fleet.survey) {
    auto fused = estimate(b.traces, params, par);
    std::vector<GradeTrack> keyed(fused.size());
    par.for_each(fused.size(), [&](std::size_t i) {
      keyed[i] = rge::core::rekey_track_by_road(
          fused[i], fleet.net.roads()[b.roads[i]].road, b.traces[i].gps);
    });
    for (std::size_t i = 0; i < keyed.size(); ++i, ++trip) {
      // Per-vehicle sub-spans of 300-900 m, as phones upload them.
      std::mt19937_64 rng(mix_seed(seed, 3, trip));
      std::uniform_real_distribution<double> len(300.0, 900.0);
      const GradeTrack& k = keyed[i];
      std::size_t lo = 0;
      while (lo + 16 < k.size()) {
        const double end = k.s[lo] + len(rng);
        std::size_t hi = lo + 1;
        while (hi < k.size() && k.s[hi] < end) ++hi;
        if (hi - lo >= 16) {
          TrackUpload up;
          up.road = b.roads[i];
          up.track = slice(k, lo, hi);
          up.track.source = "veh-" + std::to_string(trip);
          uploads.push_back(std::move(up));
        }
        lo = hi;
      }
    }
  }
  std::shuffle(uploads.begin(), uploads.end(),
               std::mt19937_64(mix_seed(seed, 4, 0)));
  // Deal the uploads into rounds of about `per_round` each.
  const std::size_t n_rounds = std::max<std::size_t>(
      1, (uploads.size() + per_round / 2) / std::max<std::size_t>(1, per_round));
  Replay rounds(n_rounds);
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    rounds[i % n_rounds].push_back(std::move(uploads[i]));
  }
  return rounds;
}

/// Times a check and keeps it out of every reported figure.
class Chain::CheckScope {
 public:
  explicit CheckScope(Chain& c)
      : chain_(c), span_(c.tracer_, "check"), t0_(now_ns()) {}
  ~CheckScope() { chain_.check_ns_ += now_ns() - t0_; }
  CheckScope(const CheckScope&) = delete;
  CheckScope& operator=(const CheckScope&) = delete;

 private:
  Chain& chain_;
  Scope span_;
  std::int64_t t0_;
};

Chain::Chain(Fleet& fleet, const Replay& replay, const Mix& mix,
             std::size_t width, std::uint64_t seed, Tracer& tracer,
             const Faults& faults)
    : fleet_(fleet),
      replay_(replay),
      mix_(mix),
      seed_(seed),
      tracer_(tracer),
      faults_(faults),
      par_(width),
      contexts_(par_.width()),
      online_abs_err_deg_(fleet.online.size(),
                          std::numeric_limits<double>::quiet_NaN()) {}

Chain::~Chain() = default;

void Chain::epoch() {
  Scope span(tracer_, "epoch", static_cast<std::int64_t>(epoch_no_));
  const std::int64_t t0 = now_ns();
  const std::int64_t c0 = check_ns_;
  if (!fleet_.survey.empty()) {
    // A new pass over the survey fleet starts a new map.
    survey(fleet_.survey[survey_cursor_], survey_cursor_ == 0);
    survey_cursor_ = (survey_cursor_ + 1) % fleet_.survey.size();
  }
  for (std::size_t r = 0; r < mix_.serve_rounds && !replay_.empty(); ++r) {
    ingest(replay_[replay_cursor_]);
    replay_cursor_ = (replay_cursor_ + 1) % replay_.size();
    ++round_no_;
    publish(round_no_ % std::max<std::size_t>(1, mix_.refresh_every) == 0);
    burst();
  }
  if (!fleet_.online.empty()) {
    online(online_cursor_);
    online_cursor_ = (online_cursor_ + 1) % fleet_.online.size();
  }
  ledger_.epoch_ns += (now_ns() - t0) - (check_ns_ - c0);
  ++ledger_.epochs;
  ++epoch_no_;
}

void Chain::online_rest() {
  for (std::size_t b = 0; b < fleet_.online.size(); ++b) {
    if (std::isnan(online_abs_err_deg_[b])) online(b);
  }
}

void Chain::open_service() {
  Scope span(tracer_, "service.open");
  service_ = std::make_unique<rge::service::MapService>(fleet_.net);
}

void Chain::survey(const SurveyBatch& b, bool new_map) {
  const std::int64_t t0 = now_ns();
  const std::int64_t c0 = check_ns_;
  if (new_map) open_service();
  auto fused = pipeline(b);
  const auto uploads = match(b, fused);
  fused.clear();
  ingest(uploads);
  publish(/*refresh=*/true);
  ledger_.survey_km.push_back(
      {b.km, static_cast<double>((now_ns() - t0) - (check_ns_ - c0)) / 1e9});
  burst();
}

std::vector<GradeTrack> Chain::pipeline(const SurveyBatch& b) {
  const std::size_t n = b.traces.size();
  ledger_.attempted += n;
  ledger_.trips += n;
  std::vector<GradeTrack> fused;
  {
    Scope span(tracer_, "pipeline", static_cast<std::int64_t>(epoch_no_));
    try {
      fused = estimate(b.traces, params_, par_, stage_, &tracer_,
                       &ledger_.trip_ms);
    } catch (const std::exception& e) {
      fused.clear();
      ledger_.pipeline_failed += n;
      ledger_.fail(n, std::string("pipeline threw: ") + e.what());
    }
  }
  CheckScope check(*this);
  for (const GradeTrack& t : fused) {
    bool ok = finite_track(t);
    for (double g : t.grade) {
      ok = ok && std::abs(g) <= rge::core::ekf_kernel::kMaxGradeRad;
    }
    if (!ok) {
      ++ledger_.pipeline_failed;
      ledger_.fail(1, "pipeline: fused track not finite or out of range");
    }
  }
  return fused;
}

std::vector<TrackUpload> Chain::match(const SurveyBatch& b,
                                      std::vector<GradeTrack>& fused) {
  const std::size_t n = fused.size();
  ledger_.attempted += n;
  std::vector<TrackUpload> uploads(n);
  std::vector<std::uint8_t> threw(n, 0);
  {
    Scope span(tracer_, "match", static_cast<std::int64_t>(epoch_no_));
    const int parent = tracer_.current();
    par_.for_each(n, [&](std::size_t i) {
      const std::int64_t t0 = tracer_.on() ? now_ns() : 0;
      uploads[i].road = b.roads[i];
      try {
        uploads[i].track = rge::core::rekey_track_by_road(
            fused[i], fleet_.net.roads()[b.roads[i]].road, b.traces[i].gps);
      } catch (const std::exception&) {
        threw[i] = 1;
      }
      if (tracer_.on()) {
        tracer_.leaf("match.trip", t0, now_ns(), static_cast<std::int64_t>(i),
                     parent);
      }
    });
  }
  CheckScope check(*this);
  std::vector<TrackUpload> good;
  good.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (threw[i] != 0 || !finite_track(uploads[i].track)) {
      ++ledger_.match_failed;
      ledger_.fail(1, "match: rekeyed track threw or is malformed");
      continue;
    }
    good.push_back(std::move(uploads[i]));
  }
  ledger_.tracks += good.size();
  return good;
}

void Chain::ingest(const std::vector<TrackUpload>& uploads) {
  std::uint64_t fixes = 0;
  for (const TrackUpload& u : uploads) fixes += u.track.size();
  ledger_.attempted += uploads.size();
  const std::int64_t t0 = now_ns();
  {
    Scope span(tracer_, "service.ingest", static_cast<std::int64_t>(round_no_));
    try {
      service_->ingest(uploads, par_.pool());
    } catch (const std::exception& e) {
      ledger_.fail(uploads.size(), std::string("ingest threw: ") + e.what());
      return;
    }
  }
  ledger_.ingest_fixes.push_back(
      {static_cast<double>(fixes), static_cast<double>(now_ns() - t0) / 1e9});
  ledger_.uploads += uploads.size();
  ledger_.fixes += fixes;
}

void Chain::publish(bool refresh) {
  ledger_.attempted += 1;
  const std::int64_t t0 = now_ns();
  const std::int64_t c0 = check_ns_;
  try {
    {
      Scope span(tracer_, "service.publish",
                 static_cast<std::int64_t>(round_no_));
      service_->publish(par_.pool());
    }
    const std::int64_t t1 = now_ns();
    {
      Scope span(tracer_, "service.snapshot");
      snap_ = service_->snapshot();
    }
    ledger_.snapshot_us += static_cast<double>(now_ns() - t1) / 1e3;
    ledger_.publish_ms.push_back(ms_between(t0, t1));
  } catch (const std::exception& e) {
    ledger_.fail(1, std::string("publish threw: ") + e.what());
    return;
  }
  ++ledger_.publishes;
  check_snapshot();
  if (!refresh) return;
  refresh_graph();
  ledger_.refresh_ms.push_back(ms_between(t0, now_ns()) -
                               static_cast<double>(check_ns_ - c0) / 1e6);
}

void Chain::refresh_graph() {
  ledger_.attempted += 1;
  try {
    std::unique_ptr<rge::planning::RouteGraph> g;
    {
      // Resample every road's served cells onto the graph's profile grid;
      // stretches the map does not serve fall back to the nearest served
      // cell (or flat), and are counted.
      Scope span(tracer_, "graph.build");
      std::vector<std::vector<double>> profiles(fleet_.net.size());
      for (std::size_t r = 0; r < profiles.size(); ++r) {
        const double len = fleet_.net.roads()[r].road.length_m();
        const auto n =
            static_cast<std::size_t>(std::floor(len / kProfileStepM)) + 1;
        auto& p = profiles[r];
        p.assign(n, 0.0);
        const auto& view = snap_->roads[r];
        if (view.size() == 0) {
          ledger_.fallback_cells += n;
          continue;
        }
        const auto& s = view.track.s;
        const rge::math::LinearInterpolator grade(s, view.track.grade);
        std::size_t j = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const double x = static_cast<double>(i) * kProfileStepM;
          p[i] = grade(x);
          if (x < s.front() || x > s.back()) {
            ++ledger_.fallback_cells;
            continue;
          }
          while (j + 1 < s.size() && s[j + 1] < x) ++j;
          if (j + 1 < s.size() && view.cells[j + 1] - view.cells[j] > 1) {
            ++ledger_.fallback_cells;
          }
        }
      }
      g = std::make_unique<rge::planning::RouteGraph>(
          rge::planning::build_network_graph(fleet_.net, profiles,
                                             kProfileStepM));
    }
    Scope span(tracer_, "graph.freeze");
    graph_ = std::make_unique<rge::planning::CsrGraph>(*g);
    g.reset();
  } catch (const std::exception& e) {
    ledger_.fail(1, std::string("graph refresh threw: ") + e.what());
    return;
  }
  ++ledger_.refreshes;
  ledger_.cost_tables_ms += graph_->build_stats().cost_tables_ms;
  ledger_.landmarks_ms += graph_->build_stats().landmarks_ms;
  if (pairs_.empty()) {
    std::mt19937_64 rng(mix_seed(seed_, 5, 0));
    std::uniform_int_distribution<std::uint32_t> node(
        0, static_cast<std::uint32_t>(graph_->node_count() - 1));
    while (pairs_.size() < kQueryPairs) {
      const auto a = node(rng);
      const auto b = node(rng);
      if (a != b) pairs_.emplace_back(a, b);
    }
  }
}

void Chain::check_snapshot() {
  CheckScope check(*this);
  bool first = true;
  for (const auto& view : snap_->roads) {
    for (std::size_t i = 0; i < view.size(); ++i) {
      double g = view.track.grade[i];
      if (first && faults_.served_cell) g = std::nan("");
      first = false;
      const double var = view.track.grade_var[i];
      if (!std::isfinite(g) || !std::isfinite(var) ||
          std::abs(g) > rge::core::ekf_kernel::kMaxGradeRad) {
        ledger_.fail(1, "served cell not finite or beyond kMaxGradeRad");
        return;
      }
    }
  }
}

void Chain::burst() {
  if (!graph_ || mix_.queries_per_burst == 0) return;
  using rge::planning::Metric;
  const std::size_t q = mix_.queries_per_burst;
  const std::size_t w = par_.width();
  const std::uint64_t base = query_no_;
  std::vector<std::vector<double>> lat(w);
  std::vector<std::uint64_t> settled(w, 0), relaxed(w, 0), bad(w, 0);
  std::vector<rge::planning::CsrGraph::Route> sampled((q + kAltSample - 1) /
                                                      kAltSample);
  for (auto& l : lat) l.reserve(q / w + 1);
  ledger_.attempted += q;

  const std::int64_t t0 = now_ns();
  {
    Scope span(tracer_, "query", static_cast<std::int64_t>(base));
    const int parent = tracer_.current();
    par_.for_each(w, [&](std::size_t k) {
      auto& ctx = contexts_[k];
      for (std::size_t i = k * q / w; i < (k + 1) * q / w; ++i) {
        const auto& [from, to] = pairs_[(base + i) % pairs_.size()];
        const auto m = static_cast<Metric>((base + i) % 4);
        const std::int64_t a = now_ns();
        rge::planning::CsrGraph::Route r;
        try {
          r = graph_->route(from, to, m, ctx, true);
        } catch (const std::exception&) {
          r.found = false;
        }
        const std::int64_t z = now_ns();
        lat[k].push_back(static_cast<double>(z - a) / 1e3);
        settled[k] += ctx.stats().settled;
        relaxed[k] += ctx.stats().relaxed;
        if (!r.found || !std::isfinite(r.cost) || r.cost <= 0.0) ++bad[k];
        if (i % kAltSample == 0) {
          // Leaf spans for the sampled queries only: a burst is thousands.
          if (tracer_.on()) {
            tracer_.leaf("query.route", a, z,
                         static_cast<std::int64_t>(base + i), parent);
          }
          sampled[i / kAltSample] = std::move(r);
        }
      }
    });
  }
  ledger_.burst_queries.push_back(
      {static_cast<double>(q), static_cast<double>(now_ns() - t0) / 1e9});
  query_no_ += q;
  ledger_.queries += q;

  CheckScope check(*this);
  for (std::size_t k = 0; k < w; ++k) {
    ledger_.query_us.insert(ledger_.query_us.end(), lat[k].begin(),
                            lat[k].end());
    ledger_.settled += settled[k];
    ledger_.relaxed += relaxed[k];
    if (bad[k] != 0) ledger_.fail(bad[k], "query found no finite route");
  }
  // ALT must agree bit for bit with plain Dijkstra on the same graph.
  rge::planning::QueryContext ctx;
  for (std::size_t j = 0; j < sampled.size(); ++j) {
    const std::size_t i = j * kAltSample;
    const auto& [from, to] = pairs_[(base + i) % pairs_.size()];
    const auto m = static_cast<Metric>((base + i) % 4);
    const auto dij = graph_->route(from, to, m, ctx, false);
    double cost = sampled[j].cost;
    if (faults_.alt && j == 0) cost = std::nextafter(cost, 1e300);
    if (std::memcmp(&cost, &dij.cost, sizeof cost) != 0 ||
        sampled[j].edges != dij.edges) {
      ++ledger_.alt_mismatches;
      ledger_.fail(1, "ALT route differs from Dijkstra");
    }
  }
}

void Chain::online(std::size_t batch) {
  OnlineBatch& b = fleet_.online[batch];
  const std::size_t n = b.traces.size();
  ledger_.attempted += n;
  std::vector<rge::core::OnlineFleetResult> res;
  const std::int64_t t0 = now_ns();
  {
    Scope span(tracer_, "online", static_cast<std::int64_t>(batch));
    try {
      if (par_.width() > 1) {
        res = rge::core::run_online_batch(b.traces, params_, {},
                                          par_.width() - 1, kOnlineBlock);
      } else {
        // One 64-lane block per call: a single block runs on the caller
        // alone. Traces move in and out of the fleet, never copied.
        for (std::size_t lo = 0; lo < n; lo += kOnlineBlock) {
          const std::size_t hi = std::min(n, lo + kOnlineBlock);
          std::vector<rge::sensors::SensorTrace> block(
              std::make_move_iterator(b.traces.begin() +
                                      static_cast<std::ptrdiff_t>(lo)),
              std::make_move_iterator(b.traces.begin() +
                                      static_cast<std::ptrdiff_t>(hi)));
          auto give_back = [&] {
            std::move(block.begin(), block.end(),
                      b.traces.begin() + static_cast<std::ptrdiff_t>(lo));
          };
          std::vector<rge::core::OnlineFleetResult> part;
          try {
            part = rge::core::run_online_batch(block, params_, {}, 1,
                                               kOnlineBlock);
          } catch (...) {
            give_back();
            throw;
          }
          give_back();
          std::move(part.begin(), part.end(), std::back_inserter(res));
        }
      }
    } catch (const std::exception& e) {
      ledger_.fail(n, std::string("run_online_batch threw: ") + e.what());
      return;
    }
  }
  ledger_.online_drive_s.push_back(
      {b.drive_s, static_cast<double>(now_ns() - t0) / 1e9});
  for (std::size_t lo = 0; lo < n; lo += kOnlineBlock) {
    const std::size_t hi = std::min(n, lo + kOnlineBlock);
    std::size_t longest = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      ledger_.imu_steps += b.imu_steps[i];
      longest = std::max(longest, b.imu_steps[i]);
    }
    ledger_.lane_slots += (hi - lo) * longest;
  }

  CheckScope check(*this);
  if (res.size() != n) {
    ledger_.fail(n, "run_online_batch returned the wrong lane count");
    return;
  }
  double err = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto& e = res[i].final_estimate;
    const double g = faults_.online && i == 0 ? std::nan("") : e.grade_rad;
    if (!std::isfinite(g) || !std::isfinite(e.grade_var) ||
        !std::isfinite(e.speed_mps) || !std::isfinite(e.odometry_m)) {
      ledger_.fail(1, "online estimate not finite");
      continue;
    }
    err += std::abs(rge::math::rad2deg(g - b.truth_grade[i]));
  }
  if (std::isnan(online_abs_err_deg_[batch])) online_abs_err_deg_[batch] = err;
}

MapQuality Chain::map_quality() const {
  MapQuality q;
  if (!snap_ || !service_) return q;
  double err = 0.0, truth = 0.0;
  std::uint64_t cells = 0;
  for (std::size_t r = 0; r < snap_->roads.size(); ++r) {
    const auto& view = snap_->roads[r];
    const auto& road = fleet_.net.roads()[r].road;
    for (std::size_t i = 0; i < view.size(); ++i) {
      const double t = road.grade_at(view.track.s[i]);
      err += std::abs(view.track.grade[i] - t);
      truth += std::abs(t);
    }
    q.cells += view.size();
    cells += service_->grid(static_cast<rge::service::RoadId>(r)).n;
  }
  q.mre_pct = truth > 0.0 ? 100.0 * err / truth : 0.0;
  q.covered_pct =
      cells > 0 ? 100.0 * static_cast<double>(q.cells) / static_cast<double>(cells)
                : 0.0;
  return q;
}

double Chain::online_mae_deg() const {
  double err = 0.0;
  std::size_t lanes = 0;
  for (std::size_t b = 0; b < fleet_.online.size(); ++b) {
    err += online_abs_err_deg_[b];
    lanes += fleet_.online[b].traces.size();
  }
  return lanes > 0 ? err / static_cast<double>(lanes)
                   : std::numeric_limits<double>::quiet_NaN();
}

double Chain::shard_skew() const {
  if (!service_) return 0.0;
  double sum = 0.0, peak = 0.0;
  const auto stats = service_->shard_stats();
  for (const auto& s : stats) {
    sum += static_cast<double>(s.samples_ingested);
    peak = std::max(peak, static_cast<double>(s.samples_ingested));
  }
  return sum > 0.0 ? peak * static_cast<double>(stats.size()) / sum : 0.0;
}

std::size_t Chain::graph_edges() const {
  return graph_ ? graph_->edge_count() : 0;
}

}  // namespace perfbench
