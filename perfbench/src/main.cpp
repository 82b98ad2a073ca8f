// rge_e2e: the repository's end-to-end benchmark.
//
//   rge_e2e --workload NAME --seed N --seconds S --trace 0|1
//           [--scale full|small] [--inject CHECK] [--trace-out PATH]
//
// Set-up (timed as setup_s, repeated and reported as the median) builds
// the city network and simulates the workload's fleet from the seed. A
// warm-up of untimed epochs follows, then the measured epochs.
//
// --trace 0 measures the end-to-end metrics for S seconds with tracing
// off. --trace 1 runs a fixed number of epochs three times — untraced at
// full width, traced at full width, traced at width 1 — plus half as many
// with the obs registry on (pool histograms), and reports the per-layer
// metrics, the width-1 speedups, the tracing overhead and the share of
// wall time the layer spans account for.
//
// The last line of stdout is the result:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {...}}
// A line {"meta": {...}} before it records the build and the sizes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chain.hpp"
#include "core/pipeline.hpp"
#include "fleet.hpp"
#include "math/simd.hpp"
#include "obs/obs.hpp"
#include "tracer.hpp"

namespace {

using namespace perfbench;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string inject;
  std::string trace_out;
};

struct Workload {
  FleetSpec spec;
  Mix mix;
  std::size_t warmup_epochs = 0;  ///< 0: one pass over the survey fleet
  std::size_t replay_per_round = 0;  ///< 0: no replayed uploads
};

Workload make_workload(const std::string& name, bool small) {
  Workload w;
  if (name == "city_survey") {
    // ~800 full-road trips, each road 8 times; an epoch is one pass of
    // the fleet over the city (one trip per road).
    w.spec = {164.8, 8, 49, 512, 32};
    w.mix = {256, 0, 4};
    if (small) w.spec = {12.0, 3, 0, 32, 16};
  } else if (name == "live_fleet") {
    // 512 uneven partial-span trips stream online every epoch; the survey
    // covers the city once, 14 trips an epoch.
    w.spec = {164.8, 1, 14, 512, 512};
    w.mix = {256, 0, 4};
    if (small) w.spec = {12.0, 1, 2, 96, 96};
  } else if (name == "map_serving") {
    // Replayed sub-span uploads of a 2-trips-per-road survey: 8
    // ingest/publish rounds an epoch, a graph refresh every 4, a 1024-query
    // burst after every publish.
    w.spec = {164.8, 2, 4, 512, 16};
    w.mix = {1024, 8, 4};
    w.warmup_epochs = 4;
    w.replay_per_round = 256;
    if (small) {
      w.spec = {12.0, 1, 2, 32, 8};
      w.mix = {64, 2, 2};
      w.warmup_epochs = 2;
      w.replay_per_round = 16;
    }
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  if (small) w.mix.queries_per_burst = std::min<std::size_t>(
      w.mix.queries_per_burst, 64);
  return w;
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value: " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
    } else if (a == "--seconds") {
      o.seconds = std::stod(value());
    } else if (a == "--trace") {
      o.trace = value() == "1";
    } else if (a == "--scale") {
      o.small = value() == "small";
    } else if (a == "--inject") {
      o.inject = value();
    } else if (a == "--trace-out") {
      o.trace_out = value();
    } else {
      throw std::invalid_argument("unknown argument: " + a);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload required");
  return o;
}

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return std::nan("");
  std::sort(xs.begin(), xs.end());
  const double pos = p * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(xs.size() - 1, lo + 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(const std::vector<double>& xs) { return percentile(xs, 0.5); }

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

constexpr double kStallCap = 3.0;  ///< see rate()

/// Total work over total wall of the calls, each call's wall capped at
/// kStallCap times the work-weighted median time per unit of work. Every
/// call counts, and one up to kStallCap times slower than the median
/// counts in full. Beyond that the excess is a host stall: a worker of a
/// sub-millisecond parallel call descheduled or slow to wake, whose
/// milliseconds would otherwise decide the figure.
double rate(std::vector<Rate> calls) {
  std::sort(calls.begin(), calls.end(), [](const Rate& a, const Rate& b) {
    return a.seconds * b.work < b.seconds * a.work;
  });
  double work = 0.0;
  for (const Rate& r : calls) work += r.work;
  double acc = 0.0, unit = 0.0;
  for (const Rate& r : calls) {
    acc += r.work;
    if (acc >= work / 2.0) {
      unit = ratio(r.seconds, r.work);
      break;
    }
  }
  double wall = 0.0;
  for (const Rate& r : calls) {
    wall += std::min(r.seconds, kStallCap * unit * r.work);
  }
  return wall > 0.0 ? work / wall : std::nan("");
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
           number(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

/// Attempted / failed / violations summed over every phase of the run.
struct Totals {
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> violations;
  void add(const Ledger& l) {
    attempted += l.attempted;
    failed += l.failed;
    violations.insert(violations.end(), l.violations.begin(),
                      l.violations.end());
  }
};

void run_epochs(Chain& chain, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) chain.epoch();
}

struct PoolStats {
  double wait_us_mean = 0.0, run_us_mean = 0.0, tasks = 0.0;
};

PoolStats pool_stats() {
  PoolStats p;
#if RGE_OBS_ENABLED
  const auto snap = rge::obs::Registry::global().snapshot();
  auto mean = [&](const char* name, double* tasks) {
    const auto it = snap.histograms.find(name);
    if (it == snap.histograms.end() || it->second.count == 0) return 0.0;
    if (tasks != nullptr) *tasks = static_cast<double>(it->second.count);
    return it->second.sum / static_cast<double>(it->second.count);
  };
  p.wait_us_mean = mean("pool.task_wait_us", nullptr);
  p.run_us_mean = mean("pool.task_run_us", &p.tasks);
#endif
  return p;
}

/// Width-1 and full-width pipeline outputs for one batch must match bit
/// for bit (the batch runtime's determinism contract).
bool pipeline_parity(const SurveyBatch& b, Par& par, bool inject) {
  const rge::vehicle::VehicleParams params;
  Par one(1);
  const auto a = estimate(b.traces, params, par);
  auto z = estimate(b.traces, params, one);
  if (inject && !z.empty() && !z[0].grade.empty()) {
    z[0].grade[0] = std::nextafter(z[0].grade[0], 1.0);
  }
  if (a.size() != z.size()) return false;
  auto same = [](const std::vector<double>& x, const std::vector<double>& y) {
    return x.size() == y.size() &&
           (x.empty() ||
            std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
  };
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same(a[i].t, z[i].t) || !same(a[i].grade, z[i].grade) ||
        !same(a[i].grade_var, z[i].grade_var) ||
        !same(a[i].speed, z[i].speed) || !same(a[i].s, z[i].s)) {
      return false;
    }
  }
  return true;
}

int run(const Options& opt) {
  const Workload w = make_workload(opt.workload, opt.small);
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t width = nproc;
  Faults faults;
  if (opt.inject == "alt") {
    faults.alt = true;
  } else if (opt.inject == "served-cell") {
    faults.served_cell = true;
  } else if (opt.inject == "online") {
    faults.online = true;
  } else if (opt.inject == "parity") {
    faults.parity = true;
  } else if (!opt.inject.empty()) {
    throw std::invalid_argument("unknown --inject: " + opt.inject);
  }

  // ---- Set-up: network, fleet simulation, replay survey. Repeated; the
  // median is setup_s and the last one's inputs are kept.
  constexpr int kSetupReps = 3;
  Par par(width);
  Fleet fleet;
  Replay replay;
  std::vector<double> setup_s, sim_ms;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet = Fleet{};
    replay.clear();
    const std::int64_t t0 = now_ns();
    auto net = make_network(w.spec);
    const std::int64_t t1 = now_ns();
    fleet = make_fleet(std::move(net), w.spec, opt.seed, par);
    sim_ms.push_back(static_cast<double>(now_ns() - t1) / 1e6);
    if (w.replay_per_round > 0) {
      replay = make_replay(fleet, par, opt.seed, w.replay_per_round);
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  Tracer tracer;
  Totals totals;
  Chain chain(fleet, replay, w.mix, width, opt.seed, tracer, faults);

  // ---- Warm-up: untimed epochs; the map and online errors it leaves are
  // fixed by the seed alone, so the quality metrics come from here.
  const std::size_t warmup = w.warmup_epochs > 0
                                 ? w.warmup_epochs
                                 : chain.survey_batches_per_cycle();
  const std::int64_t w0 = now_ns();
  run_epochs(chain, warmup);
  const double epoch_s =
      static_cast<double>(now_ns() - w0) / 1e9 / static_cast<double>(warmup);
  chain.online_rest();
  const MapQuality quality = chain.map_quality();
  const double mae = chain.online_mae_deg();
  totals.add(chain.ledger());
  chain.ledger() = Ledger{};

  std::vector<Metric> metrics;
  std::size_t measured_epochs = 0;
  std::map<std::string, std::size_t> samples;
  if (!opt.trace) {
    const std::int64_t t0 = now_ns();
    while (static_cast<double>(now_ns() - t0) / 1e9 < opt.seconds ||
           chain.ledger().epochs < 3) {
      chain.epoch();
    }
    const Ledger& l = chain.ledger();
    measured_epochs = l.epochs;
    samples = {{"publish", l.publish_ms.size()},
               {"refresh", l.refresh_ms.size()},
               {"query", l.query_us.size()}};
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"survey_km_per_s", rate(l.survey_km), "km/s"},
        {"map_mre_pct", quality.mre_pct, "%"},
        {"map_covered_pct", quality.covered_pct, "%"},
        {"online_realtime_x", rate(l.online_drive_s), "x"},
        {"online_grade_mae_deg", mae, "deg"},
        {"ingest_fixes_per_s", rate(l.ingest_fixes), "1/s"},
        {"publish_p50_ms", percentile(l.publish_ms, 0.5), "ms"},
        {"publish_p90_ms", percentile(l.publish_ms, 0.9), "ms"},
        {"refresh_p50_ms", percentile(l.refresh_ms, 0.5), "ms"},
        {"query_p50_us", percentile(l.query_us, 0.5), "us"},
        {"query_p99_us", percentile(l.query_us, 0.99), "us"},
        {"queries_per_s", rate(l.burst_queries), "1/s"},
    };
    totals.add(l);
  } else {
    // Three passes of the same number of epochs: untraced at full width,
    // traced at full width, traced at width 1. Each is a fresh chain from
    // the start of the fleet, so they do the same work and differ only in
    // tracing or width; they run in lockstep, an epoch of each in rotating
    // order, so drift of the host hits all three alike.
    const auto n = static_cast<std::size_t>(std::clamp(
        std::floor(opt.seconds / (6.5 * epoch_s)), 2.0, 1000.0));
    measured_epochs = n;

    rge::runtime::StageMetrics stage;
    Chain plain(fleet, replay, w.mix, width, opt.seed, tracer, faults);
    Chain traced(fleet, replay, w.mix, width, opt.seed, tracer, faults);
    Chain serial(fleet, replay, w.mix, 1, opt.seed, tracer, faults);
    traced.set_stage_metrics(&stage);
    Chain* passes[] = {&plain, &traced, &serial};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < 3; ++k) {
        const std::size_t pass = (i + k) % 3;
        tracer.set_pass(static_cast<int>(pass));
        tracer.set_on(pass > 0);
        passes[pass]->epoch();
        tracer.set_on(false);
      }
    }
    traced.set_stage_metrics(nullptr);
    const Ledger& wide = traced.ledger();
    const Ledger& one = serial.ledger();
    totals.add(plain.ledger());
    totals.add(wide);
    totals.add(one);

    // Half a pass with the obs registry on, for the pool histograms it
    // keeps; apart from the span passes, since its counters slow the
    // estimators.
    rge::obs::reset_all();
    rge::obs::set_enabled(true);
    run_epochs(chain, std::max<std::size_t>(1, n / 2));
    rge::obs::set_enabled(false);
    const PoolStats pool = pool_stats();
    totals.add(chain.ledger());

    const bool parity =
        pipeline_parity(fleet.survey.front(), par, faults.parity);
    totals.attempted += fleet.survey.front().traces.size();
    if (!parity) {
      totals.failed += fleet.survey.front().traces.size();
      totals.violations.push_back(
          "pipeline output at width 1 differs from width " +
          std::to_string(width));
    }

    const auto self_w = tracer.self_ns(1);
    const auto self_1 = tracer.self_ns(2);
    const auto calls = tracer.counts(1);
    auto ms = [](const std::map<std::string, std::int64_t>& m,
                 const std::string& k) {
      const auto it = m.find(k);
      return it == m.end() ? 0.0 : static_cast<double>(it->second) / 1e6;
    };
    auto per_call = [&](const std::string& k) {
      const auto it = calls.find(k);
      return it == calls.end() ? 0.0
                               : ms(self_w, k) / static_cast<double>(it->second);
    };
    auto layer_share = [&](const std::map<std::string, std::int64_t>& m) {
      double layers = 0.0, glue = 0.0;
      for (const auto& [name, ns] : m) {
        if (name == "check") continue;
        (name == "epoch" ? glue : layers) += static_cast<double>(ns);
      }
      return 100.0 * ratio(layers, layers + glue);
    };
    const double e = static_cast<double>(n);
    const double pipeline_calls = static_cast<double>(calls.count("pipeline")
                                                          ? calls.at("pipeline")
                                                          : 0);
    auto stage_ms = [&](const std::atomic<std::int64_t>& ns) {
      return ratio(static_cast<double>(ns.load()) / 1e6, pipeline_calls);
    };
    const double sum_1 = layer_share(self_1);
    if (sum_1 < 95.0) {
      totals.violations.push_back("layer spans cover only " +
                                  number(sum_1) + "% of width-1 wall");
    }
    metrics = {
        {"sim.wall_ms", median(sim_ms), "ms"},
        {"sim.trips", static_cast<double>(fleet.trips), "count"},
        {"sim.imu_samples", static_cast<double>(fleet.imu_samples), "count"},
        {"pipeline.wall_ms", per_call("pipeline"), "ms"},
        {"pipeline.trip_p50_ms", percentile(one.trip_ms, 0.5), "ms"},
        {"pipeline.trip_p99_ms", percentile(one.trip_ms, 0.99), "ms"},
        {"pipeline.align_ms", stage_ms(stage.align_ns), "ms"},
        {"pipeline.detect_ms", stage_ms(stage.detect_ns), "ms"},
        {"pipeline.ekf_ms", stage_ms(stage.ekf_ns), "ms"},
        {"pipeline.fuse_ms", stage_ms(stage.fuse_ns), "ms"},
        {"pipeline.speedup_vs_1t",
         ratio(ms(self_1, "pipeline") / static_cast<double>(one.trips),
               ms(self_w, "pipeline") / static_cast<double>(wide.trips)),
         "x"},
        {"pipeline.failed",
         static_cast<double>(wide.pipeline_failed + one.pipeline_failed),
         "count"},
        {"match.wall_ms", per_call("match"), "ms"},
        {"match.tracks", ratio(static_cast<double>(wide.tracks), e), "count"},
        {"match.failed",
         static_cast<double>(wide.match_failed + one.match_failed), "count"},
        {"online.wall_ms", per_call("online"), "ms"},
        {"online.imu_steps", ratio(static_cast<double>(wide.imu_steps), e),
         "count"},
        {"online.lane_occupancy",
         ratio(static_cast<double>(wide.imu_steps),
               static_cast<double>(wide.lane_slots)),
         "ratio"},
        {"online.speedup_vs_1t",
         ratio(ms(self_1, "online") / static_cast<double>(one.imu_steps),
               ms(self_w, "online") / static_cast<double>(wide.imu_steps)),
         "x"},
        {"service.open_ms", per_call("service.open"), "ms"},
        {"service.ingest_ms", per_call("service.ingest"), "ms"},
        {"service.uploads", ratio(static_cast<double>(wide.uploads), e),
         "count"},
        {"service.fixes", ratio(static_cast<double>(wide.fixes), e), "count"},
        {"service.shard_skew", traced.shard_skew(), "ratio"},
        {"service.publish_ms", per_call("service.publish"), "ms"},
        {"service.snapshot_us",
         ratio(wide.snapshot_us, static_cast<double>(wide.publishes)), "us"},
        {"service.covered_cells",
         static_cast<double>(traced.map_quality().cells), "count"},
        {"graph.build_ms", per_call("graph.build"), "ms"},
        {"graph.fallback_cells",
         ratio(static_cast<double>(wide.fallback_cells),
               static_cast<double>(wide.refreshes)),
         "count"},
        {"graph.freeze_ms", per_call("graph.freeze"), "ms"},
        {"graph.cost_tables_ms",
         ratio(wide.cost_tables_ms, static_cast<double>(wide.refreshes)), "ms"},
        {"graph.landmarks_ms",
         ratio(wide.landmarks_ms, static_cast<double>(wide.refreshes)), "ms"},
        {"graph.edges", static_cast<double>(traced.graph_edges()), "count"},
        {"query.wall_ms", per_call("query"), "ms"},
        {"query.settled_mean",
         ratio(static_cast<double>(wide.settled),
               static_cast<double>(wide.queries)),
         "count"},
        {"query.relaxed_mean",
         ratio(static_cast<double>(wide.relaxed),
               static_cast<double>(wide.queries)),
         "count"},
        {"query.alt_mismatches",
         static_cast<double>(wide.alt_mismatches + one.alt_mismatches),
         "count"},
        {"pool.width", static_cast<double>(width), "count"},
        {"pool.task_wait_us_mean", pool.wait_us_mean, "us"},
        {"pool.task_run_us_mean", pool.run_us_mean, "us"},
        {"pool.tasks", ratio(pool.tasks, e), "count"},
        {"trace.layer_sum_pct", sum_1, "%"},
        {"trace.layer_sum_wide_pct", layer_share(self_w), "%"},
        {"trace.overhead_pct",
         100.0 * (static_cast<double>(wide.epoch_ns) /
                      static_cast<double>(plain.ledger().epoch_ns) -
                  1.0),
         "%"},
        {"trace.spans", static_cast<double>(tracer.spans().size()), "count"},
    };
    if (!opt.trace_out.empty() && !tracer.write_chrome_trace(opt.trace_out)) {
      std::fprintf(stderr, "warning: could not write %s\n",
                   opt.trace_out.c_str());
    }
  }

  // ---- Report.
  std::string sizes =
      "{\"roads\": " + std::to_string(fleet.net.size()) +
      ", \"network_km\": " + number(fleet.net.total_length_m() / 1000.0) +
      ", \"survey_batches\": " + std::to_string(fleet.survey.size()) +
      ", \"survey_trips\": " +
      std::to_string(fleet.survey.size() == 0
                         ? 0
                         : fleet.net.size() *
                               static_cast<std::size_t>(w.spec.trips_per_road)) +
      ", \"online_batches\": " + std::to_string(fleet.online.size()) +
      ", \"online_lanes\": " + std::to_string(w.spec.online_lanes) +
      ", \"replay_rounds\": " + std::to_string(replay.size()) +
      ", \"replay_per_round\": " + std::to_string(w.replay_per_round) +
      ", \"serve_rounds_per_epoch\": " + std::to_string(w.mix.serve_rounds) +
      ", \"queries_per_burst\": " + std::to_string(w.mix.queries_per_burst) +
      ", \"imu_samples\": " + std::to_string(fleet.imu_samples) +
      ", \"warmup_epochs\": " + std::to_string(warmup) +
      ", \"measured_epochs\": " + std::to_string(measured_epochs) +
      ", \"setup_reps\": " + std::to_string(kSetupReps) + "}";
  std::string counts = "{";
  for (const auto& [k, v] : samples) {
    counts += (counts.size() > 1 ? ", \"" : "\"") + k + "\": " +
              std::to_string(v);
  }
  counts += "}";
  std::printf(
      "{\"meta\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"scale\": \"%s\", \"build_type\": \"%s\", "
      "\"simd\": %s, \"observability\": %s, \"nproc\": %zu, "
      "\"pool_width\": %zu, \"sizes\": %s, \"samples\": %s}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      number(opt.seconds).c_str(), opt.trace ? 1 : 0,
      opt.small ? "small" : "full", RGE_BENCH_BUILD_TYPE,
      rge::math::simd_enabled() ? "true" : "false",
      rge::obs::kCompiledIn ? "true" : "false", nproc, width, sizes.c_str(),
      counts.c_str());
  for (const auto& v : totals.violations) {
    std::fprintf(stderr, "check failed: %s\n", v.c_str());
  }
  const bool correct = totals.failed == 0 && totals.violations.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed),
              metrics_json(metrics).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rge_e2e: %s\n", e.what());
    return 2;
  }
}
