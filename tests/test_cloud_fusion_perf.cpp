// Perf-tier guards for the city-scale serving layer (ctest -L perf):
//
//   * streaming a 200-vehicle fleet through FusionAccumulator (add one
//     track, re-snapshot) must beat re-running fuse_tracks_distance from
//     scratch on every upload by >= 5x;
//   * indexed match_track on a long route (global re-acquisition per
//     chunked upload) must beat the brute-force reference by >= 10x;
//   * after all uploads, the accumulator snapshot must still be
//     bit-identical to a full-fleet fuse_tracks_distance.
//
// The measured numbers are written to BENCH_cloud_fusion_perf.json in the
// working directory. That is not bench_cloud_fusion's
// BENCH_cloud_fusion.json: the bench's artifact is checked in, in another
// schema, and this run must not replace it.
#include <chrono>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/road_matcher.hpp"
#include "core/track_fusion.hpp"
#include "math/angles.hpp"
#include "math/geodesy.hpp"
#include "road/road.hpp"
#include "sensors/trace.hpp"
#include "testing/json.hpp"

namespace rge::core {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(const Clock::time_point& t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// ~40 km winding route: long enough that a brute-force global match
/// scans thousands of segments per query.
road::Road long_route() {
  road::RoadBuilder b("perf-long-route");
  double grade = 0.0;
  for (int i = 0; i < 40; ++i) {
    const double next = math::deg2rad((i % 7) - 3.0);
    const double turn = math::deg2rad((i % 2 == 0) ? 35.0 : -35.0);
    b.add_section(road::SectionSpec{1000.0, grade, next, turn, 1});
    grade = next;
  }
  return b.build();
}

GradeTrack synth_track(std::uint32_t id, double s0, double s1,
                       std::size_t n) {
  GradeTrack tr;
  tr.source = "fleet-" + std::to_string(id);
  std::mt19937 rng(77u + id);
  std::uniform_real_distribution<double> jitter(0.0, 1.0);
  tr.t.resize(n);
  tr.s.resize(n);
  tr.grade.resize(n);
  tr.grade_var.resize(n);
  tr.speed.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double f = static_cast<double>(i) / static_cast<double>(n - 1);
    tr.s[i] = s0 + f * (s1 - s0);
    tr.t[i] = tr.s[i] / 14.0;
    tr.grade[i] = 0.05 * std::sin(0.0008 * tr.s[i]) +
                  0.002 * std::sin(0.03 * tr.s[i] + id);
    tr.grade_var[i] = 2e-5 + 1e-5 * jitter(rng);
    tr.speed[i] = 13.0 + 3.0 * std::sin(0.0005 * tr.s[i] + 0.1 * id);
  }
  return tr;
}

TEST(CloudFusionPerf, FleetScaleBudgets) {
  constexpr std::size_t kVehicles = 200;
  const road::Road route = long_route();
  const double length = route.length_m();

  // ---- fleet of gradient tracks over (almost) the whole route --------
  std::vector<GradeTrack> fleet;
  std::mt19937 rng(5);
  std::uniform_real_distribution<double> head(0.0, 0.01 * length);
  std::uniform_real_distribution<double> tail(0.98 * length, length);
  for (std::size_t v = 0; v < kVehicles; ++v) {
    fleet.push_back(synth_track(static_cast<std::uint32_t>(v), head(rng),
                                tail(rng), 1500));
  }

  FusionConfig cfg;
  cfg.distance_step_m = 10.0;

  // Baseline: every upload re-fuses the fleet seen so far from scratch.
  const auto t_refuse = Clock::now();
  for (std::size_t v = 0; v < kVehicles; ++v) {
    const std::vector<GradeTrack> seen(fleet.begin(),
                                       fleet.begin() + v + 1);
    const GradeTrack fused = fuse_tracks_distance(seen, cfg);
    ASSERT_FALSE(fused.s.empty());
  }
  const double refuse_ms = ms_since(t_refuse);

  // Streaming: one accumulator on the full-fleet grid; each upload adds
  // its track and re-snapshots the serving map.
  const FusionGrid grid = make_overlap_grid(fleet, cfg);
  FusionAccumulator acc(grid, cfg);
  const auto t_stream = Clock::now();
  for (std::size_t v = 0; v < kVehicles; ++v) {
    acc.add_track(fleet[v]);
    const GradeTrack snap = acc.snapshot();
    ASSERT_FALSE(snap.s.empty());
  }
  const double stream_ms = ms_since(t_stream);

  // Equivalence after the full stream: still exactly fuse_tracks_distance.
  const GradeTrack full = fuse_tracks_distance(fleet, cfg);
  const GradeTrack snap = acc.snapshot();
  ASSERT_EQ(snap.size(), full.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    ASSERT_EQ(snap.grade[i], full.grade[i]) << i;
    ASSERT_EQ(snap.grade_var[i], full.grade_var[i]) << i;
    ASSERT_EQ(snap.speed[i], full.speed[i]) << i;
    ASSERT_EQ(snap.t[i], full.t[i]) << i;
    ASSERT_EQ(snap.s[i], full.s[i]) << i;
  }

  const double fusion_speedup = refuse_ms / stream_ms;
  EXPECT_GE(fusion_speedup, 5.0)
      << "accumulator " << stream_ms << " ms vs re-fuse " << refuse_ms
      << " ms";

  // ---- matching: chunked uploads on the long route -------------------
  // Fleet phones upload GPS in short chunks; every chunk re-acquires
  // globally (the step the index accelerates) then window-tracks.
  const RoadMatcher matcher(route);
  const math::LocalTangentPlane ltp(route.anchor());
  constexpr std::size_t kChunks = 1500;
  constexpr std::size_t kFixesPerChunk = 12;
  std::vector<std::vector<sensors::GpsFix>> chunks;
  std::uniform_real_distribution<double> start_s(0.0, length - 400.0);
  std::uniform_real_distribution<double> lateral(-6.0, 6.0);
  for (std::size_t c = 0; c < kChunks; ++c) {
    std::vector<sensors::GpsFix> chunk;
    double s = start_s(rng);
    for (std::size_t i = 0; i < kFixesPerChunk; ++i) {
      const auto pos = route.position_at(s);
      const double h = route.heading_at(s);
      math::Enu p = pos;
      const double l = lateral(rng);
      p.east_m += -std::sin(h) * l;
      p.north_m += std::cos(h) * l;
      sensors::GpsFix fix;
      fix.t = static_cast<double>(i);
      fix.position = ltp.to_geodetic(p);
      chunk.push_back(fix);
      s += 15.0;
    }
    chunks.push_back(std::move(chunk));
  }

  auto run_matching = [&](RoadMatcher::Mode mode) {
    double checksum = 0.0;
    for (const auto& chunk : chunks) {
      const auto matched = matcher.match_track(chunk, mode);
      checksum += matched.back().s_m;
    }
    return checksum;
  };
  // Warm caches, and assert parity while at it.
  const double warm_idx = run_matching(RoadMatcher::Mode::kIndexed);
  const double warm_brute = run_matching(RoadMatcher::Mode::kBruteForce);
  ASSERT_EQ(warm_idx, warm_brute);

  const auto t_brute = Clock::now();
  const double sum_brute = run_matching(RoadMatcher::Mode::kBruteForce);
  const double brute_ms = ms_since(t_brute);
  const auto t_idx = Clock::now();
  const double sum_idx = run_matching(RoadMatcher::Mode::kIndexed);
  const double indexed_ms = ms_since(t_idx);
  ASSERT_EQ(sum_idx, sum_brute);

  const double match_speedup = brute_ms / indexed_ms;
  EXPECT_GE(match_speedup, 10.0)
      << "indexed " << indexed_ms << " ms vs brute " << brute_ms << " ms";

  // ---- perf-trajectory artifact --------------------------------------
  testing::Json::Object doc;
  doc["workload"] = testing::Json::Object{
      {"n_vehicles", kVehicles},
      {"samples_per_track", std::size_t{1500}},
      {"route_length_m", length},
      {"grid_cells", grid.n},
      {"grid_step_m", cfg.distance_step_m},
      {"match_chunks", kChunks},
      {"fixes_per_chunk", kFixesPerChunk},
      {"matcher_segments", matcher.vertex_count() - 1},
  };
  doc["fusion"] = testing::Json::Object{
      {"refuse_from_scratch_ms", refuse_ms},
      {"accumulator_stream_ms", stream_ms},
      {"speedup", fusion_speedup},
      {"budget_min_speedup", 5.0},
  };
  doc["matching"] = testing::Json::Object{
      {"brute_force_ms", brute_ms},
      {"indexed_ms", indexed_ms},
      {"speedup", match_speedup},
      {"budget_min_speedup", 10.0},
  };
  testing::write_json_file(testing::Json(doc), "BENCH_cloud_fusion_perf.json");
}

}  // namespace
}  // namespace rge::core
