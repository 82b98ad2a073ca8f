// Perf-tier guards for the sharded map service (ctest -L perf):
//
//   * deterministic batch ingest of a 2,000-vehicle fleet across 8 shards
//     on a 4-thread pool must sustain >= 1M fixes/sec (conservative: the
//     bench measures tens of millions);
//   * publish() — per-shard finalize plus the ordered merge and pointer
//     swap — must come in under 250 ms at p99 on the city network;
//   * snapshot() is the reader path (shared_ptr copy under a pointer
//     mutex) and must stay under 200 us at p99;
//   * the published sharded map must be bit-identical to a single-shard
//     serial service fed the same uploads;
//   * per-shard obs counters (service.shard<k>.tracks/.samples) must
//     mirror the shards' local stats.
//
// The measured numbers are written to BENCH_map_service_perf.json in the
// working directory. That is not bench_map_service's
// BENCH_map_service.json: the bench's 10k-vehicle artifact is checked in
// and this 2,000-vehicle run must not replace it.
#include <algorithm>
#include <chrono>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "math/stats.hpp"
#include "obs/obs.hpp"
#include "road/network.hpp"
#include "runtime/thread_pool.hpp"
#include "service/map_service.hpp"
#include "testing/json.hpp"

namespace rge::service {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(const Clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

TrackUpload synth_upload(const road::RoadNetwork& net, std::uint32_t vehicle,
                         std::mt19937& rng) {
  std::uniform_int_distribution<std::size_t> pick(0, net.size() - 1);
  const auto road_id = static_cast<RoadId>(pick(rng));
  const road::Road& road = net.roads()[road_id].road;
  const double len = road.length_m();
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double s0 = u(rng) * std::max(0.0, len - 250.0);
  const double s1 = std::min(len, s0 + 250.0 + u(rng) * (len - s0 - 250.0));
  const auto n =
      std::max<std::size_t>(16, static_cast<std::size_t>((s1 - s0) / 5.0));

  TrackUpload up;
  up.road = road_id;
  up.track.source = "veh-" + std::to_string(vehicle);
  std::uniform_real_distribution<double> var(1e-5, 4e-5);
  up.track.t.resize(n);
  up.track.s.resize(n);
  up.track.grade.resize(n);
  up.track.grade_var.resize(n);
  up.track.speed.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(n - 1);
    const double s = s0 + f * (s1 - s0);
    up.track.s[i] = s;
    up.track.t[i] = s / 12.5;
    up.track.grade[i] = road.grade_at(s);
    up.track.grade_var[i] = var(rng);
    up.track.speed[i] = 12.5;
  }
  return up;
}

void expect_views_identical(const RoadView& a, const RoadView& b,
                            std::size_t road) {
  ASSERT_EQ(a.cells, b.cells) << "road " << road;
  ASSERT_EQ(a.coverage, b.coverage) << "road " << road;
  ASSERT_EQ(a.track.grade, b.track.grade) << "road " << road;
  ASSERT_EQ(a.track.grade_var, b.track.grade_var) << "road " << road;
  ASSERT_EQ(a.track.speed, b.track.speed) << "road " << road;
  ASSERT_EQ(a.track.t, b.track.t) << "road " << road;
  ASSERT_EQ(a.track.s, b.track.s) << "road " << road;
}

TEST(MapServicePerf, CityFleetBudgets) {
  obs::set_enabled(true);

  const road::RoadNetwork network = road::make_city_network(2019);
  MapServiceConfig cfg;
  cfg.n_shards = 8;
  cfg.tile_length_m = 2000.0;
  cfg.fusion.distance_step_m = 5.0;
  MapService svc(network, cfg);

  constexpr std::size_t kFleet = 2000;
  constexpr std::size_t kBatch = 200;
  std::vector<TrackUpload> fleet;
  fleet.reserve(kFleet);
  std::mt19937 rng(42);
  std::size_t total_fixes = 0;
  for (std::size_t v = 0; v < kFleet; ++v) {
    fleet.push_back(synth_upload(network, static_cast<std::uint32_t>(v), rng));
    total_fixes += fleet.back().track.s.size();
  }

  // ---- ingest throughput + interleaved publish latency ----------------
  runtime::ThreadPool pool(4);
  std::vector<double> publish_ms;
  double ingest_ms_total = 0.0;
  for (std::size_t b = 0; b < kFleet / kBatch; ++b) {
    const std::vector<TrackUpload> batch(
        fleet.begin() + static_cast<std::ptrdiff_t>(b * kBatch),
        fleet.begin() + static_cast<std::ptrdiff_t>((b + 1) * kBatch));
    const auto t_in = Clock::now();
    svc.ingest(batch, &pool);
    ingest_ms_total += ms_since(t_in);
    const auto t_pub = Clock::now();
    svc.publish(&pool);
    publish_ms.push_back(ms_since(t_pub));
  }
  const double fixes_per_sec =
      static_cast<double>(total_fixes) / (ingest_ms_total / 1000.0);
  const double publish_p99 = math::percentile(publish_ms, 0.99);

  // ---- reader latency -------------------------------------------------
  std::vector<double> snapshot_us;
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    const auto snap = svc.snapshot();
    snapshot_us.push_back(1000.0 * ms_since(t0));
    ASSERT_GT(snap->epoch, 0u);
  }
  const double snapshot_p99 = math::percentile(snapshot_us, 0.99);

  // ---- bit-identity vs single-shard serial fusion ---------------------
  MapServiceConfig ref_cfg = cfg;
  ref_cfg.n_shards = 1;
  MapService ref(network, ref_cfg);
  ref.ingest(fleet);
  ref.publish();
  const auto sharded = svc.snapshot();
  const auto serial = ref.snapshot();
  ASSERT_EQ(sharded->roads.size(), serial->roads.size());
  for (std::size_t r = 0; r < serial->roads.size(); ++r) {
    expect_views_identical(sharded->roads[r], serial->roads[r], r);
  }

  // ---- per-shard obs counters mirror the local stats ------------------
  const auto obs_snap = obs::Registry::global().snapshot();
  std::uint64_t tracks_total = 0;
  for (const auto& st : svc.shard_stats()) {
    tracks_total += st.tracks_ingested;
    const std::string prefix = "service.shard" + std::to_string(st.shard);
    const auto tracks_it = obs_snap.counters.find(prefix + ".tracks");
    const auto samples_it = obs_snap.counters.find(prefix + ".samples");
    ASSERT_NE(tracks_it, obs_snap.counters.end()) << prefix;
    ASSERT_NE(samples_it, obs_snap.counters.end()) << prefix;
    // >= because the registry is process-global: an earlier test (or a
    // previous service instance) may have bumped the same names.
    EXPECT_GE(tracks_it->second,
              static_cast<std::int64_t>(st.tracks_ingested));
    EXPECT_GE(samples_it->second,
              static_cast<std::int64_t>(st.samples_ingested));
  }
  EXPECT_GE(tracks_total, kFleet);  // every upload hit at least one shard

  // ---- budgets --------------------------------------------------------
  EXPECT_GE(fixes_per_sec, 1e6)
      << "ingest " << ingest_ms_total << " ms for " << total_fixes
      << " fixes";
  EXPECT_LE(publish_p99, 250.0) << "publish p99 " << publish_p99 << " ms";
  EXPECT_LE(snapshot_p99, 200.0) << "snapshot p99 " << snapshot_p99 << " us";

  // ---- perf-trajectory artifact ---------------------------------------
  testing::Json::Object doc;
  doc["workload"] = testing::Json::Object{
      {"n_vehicles", kFleet},
      {"total_fixes", total_fixes},
      {"n_roads", network.size()},
      {"n_tiles", svc.n_tiles()},
      {"n_shards", svc.n_shards()},
      {"tile_length_m", cfg.tile_length_m},
      {"grid_step_m", cfg.fusion.distance_step_m},
      {"batch_size", kBatch},
      {"pool_threads", pool.size()},
  };
  doc["ingest"] = testing::Json::Object{
      {"sharded_ms", ingest_ms_total},
      {"sharded_fixes_per_sec", fixes_per_sec},
      {"budget_min_fixes_per_sec", 1e6},
  };
  doc["publish_latency_ms"] = testing::Json::Object{
      {"p50", math::percentile(publish_ms, 0.5)},
      {"p90", math::percentile(publish_ms, 0.9)},
      {"p99", publish_p99},
      {"budget_p99_ms", 250.0},
  };
  doc["snapshot_latency_us"] = testing::Json::Object{
      {"p50", math::percentile(snapshot_us, 0.5)},
      {"p99", snapshot_p99},
      {"budget_p99_us", 200.0},
  };
  testing::write_json_file(testing::Json(doc), "BENCH_map_service_perf.json");
}

}  // namespace
}  // namespace rge::service
