// Unit tests for GPS-to-road map matching.
#include "core/map_matching.hpp"
#include "core/pipeline.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "math/angles.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "road/network.hpp"
#include "sensors/smartphone.hpp"
#include "vehicle/trip.hpp"

namespace rge::core {
namespace {

using math::deg2rad;

road::Road bent_road() {
  road::RoadBuilder b("bent");
  b.add_straight(800.0, deg2rad(2.0));
  b.add_section(road::SectionSpec{400.0, deg2rad(2.0), deg2rad(-1.0),
                                  deg2rad(60.0), 1});
  b.add_straight(800.0, deg2rad(-1.0));
  return b.build();
}

TEST(MatchPoint, OnCenterline) {
  const road::Road r = bent_road();
  for (double s : {50.0, 700.0, 1100.0, 1900.0}) {
    const auto m = match_point(r, r.geo_at(s));
    EXPECT_TRUE(m.valid);
    EXPECT_NEAR(m.s_m, s, 2.0) << "s=" << s;
    EXPECT_LT(m.lateral_m, 1.0);
  }
}

TEST(MatchPoint, LateralOffsetMeasured) {
  const road::Road r = bent_road();
  // A point 12 m left of the road at s = 500.
  const auto pos = r.position_at(500.0);
  const double h = r.heading_at(500.0);
  math::Enu offset = pos;
  offset.east_m += -std::sin(h) * 12.0;
  offset.north_m += std::cos(h) * 12.0;
  const auto geo = math::LocalTangentPlane(r.anchor()).to_geodetic(offset);
  const auto m = match_point(r, geo);
  EXPECT_TRUE(m.valid);
  EXPECT_NEAR(m.s_m, 500.0, 3.0);
  EXPECT_NEAR(m.lateral_m, 12.0, 1.0);
}

TEST(MatchPoint, FarAwayRejected) {
  const road::Road r = bent_road();
  const auto pos = r.position_at(500.0);
  math::Enu offset = pos;
  offset.north_m += 500.0;
  const auto geo = math::LocalTangentPlane(r.anchor()).to_geodetic(offset);
  const auto m = match_point(r, geo);
  EXPECT_FALSE(m.valid);
}

struct Scenario {
  road::Road road = bent_road();
  vehicle::Trip trip;
  sensors::SensorTrace trace;
};

Scenario simulate(std::uint64_t seed, int outages = 0) {
  Scenario sc;
  vehicle::TripConfig tc;
  tc.seed = seed;
  tc.allow_lane_changes = false;
  sc.trip = vehicle::simulate_trip(sc.road, tc);
  sensors::SmartphoneConfig pc;
  pc.seed = seed + 40;
  pc.random_outage_count = outages;
  sc.trace = sensors::simulate_sensors(sc.trip, sc.road.anchor(),
                                       vehicle::VehicleParams{}, pc);
  return sc;
}

TEST(MatchTrack, FollowsDriveMonotonically) {
  const Scenario sc = simulate(3);
  const auto matched = match_track(sc.road, sc.trace.gps);
  ASSERT_EQ(matched.size(), sc.trace.gps.size());
  double prev_s = -1.0;
  std::size_t valid = 0;
  for (const auto& m : matched) {
    if (!m.valid) continue;
    EXPECT_GE(m.s_m, prev_s - 1e-9);  // forward progress
    prev_s = m.s_m;
    ++valid;
  }
  EXPECT_GT(valid, matched.size() * 9 / 10);
  // Matched distance should track true distance within GPS noise.
  std::size_t si = 0;
  for (const auto& m : matched) {
    if (!m.valid) continue;
    while (si + 1 < sc.trip.states.size() && sc.trip.states[si].t < m.t) {
      ++si;
    }
    EXPECT_NEAR(m.s_m, sc.trip.states[si].s, 20.0);
  }
}

TEST(MatchTrack, OutagesProduceInvalidEntries) {
  const Scenario sc = simulate(4, 2);
  const auto matched = match_track(sc.road, sc.trace.gps);
  std::size_t invalid = 0;
  for (std::size_t i = 0; i < matched.size(); ++i) {
    if (!sc.trace.gps[i].valid) {
      EXPECT_FALSE(matched[i].valid);
      ++invalid;
    }
  }
  EXPECT_GT(invalid, 0u);
}

TEST(RekeyTrack, AlignsOdometryToRoadDistance) {
  const Scenario sc = simulate(5);
  const auto res =
      estimate_gradient(sc.trace, vehicle::VehicleParams{});
  const GradeTrack rekeyed =
      rekey_track_by_road(res.fused, sc.road, sc.trace.gps);
  ASSERT_EQ(rekeyed.size(), res.fused.size());
  // Re-keyed distances must agree with the trip's true distance at the
  // same timestamps far better than worst-case odometry drift.
  std::size_t si = 0;
  for (std::size_t i = 0; i < rekeyed.t.size(); i += 20) {
    while (si + 1 < sc.trip.states.size() &&
           sc.trip.states[si].t < rekeyed.t[i]) {
      ++si;
    }
    EXPECT_NEAR(rekeyed.s[i], sc.trip.states[si].s, 15.0);
  }
  // Monotone.
  for (std::size_t i = 1; i < rekeyed.s.size(); ++i) {
    EXPECT_GE(rekeyed.s[i], rekeyed.s[i - 1] - 5.0);
  }
}

TEST(MatchCache, RepeatedCallsBuildTheGridOnce) {
  // The pre-cache implementation rebuilt the projection polyline on every
  // match_point call; this pins the fix via the obs counters. A fresh road
  // (unique name, new address) guarantees a cold cache entry.
  road::RoadBuilder b("cache-build-once-road");
  b.add_straight(900.0, deg2rad(1.5));
  const road::Road r = b.build();

  obs::reset_all();
  obs::set_enabled(true);
  constexpr int kCalls = 8;
  for (int i = 0; i < kCalls; ++i) {
    const auto m = match_point(r, r.geo_at(100.0 + 50.0 * i));
    EXPECT_TRUE(m.valid);
  }
  const auto snap = obs::Registry::global().snapshot();
  obs::set_enabled(false);
  obs::reset_all();

  EXPECT_EQ(snap.counters.at("match.grid_build"), 1);
  EXPECT_EQ(snap.counters.at("match.cache_miss"), 1);
  EXPECT_EQ(snap.counters.at("match.cache_hit"), kCalls - 1);
  EXPECT_EQ(snap.counters.at("match.query"), kCalls);
}

TEST(MatchCache, ConfigChangeBuildsASeparateMatcher) {
  road::RoadBuilder b("cache-config-split-road");
  b.add_straight(600.0, deg2rad(0.5));
  const road::Road r = b.build();

  obs::reset_all();
  obs::set_enabled(true);
  (void)match_point(r, r.geo_at(200.0));
  MapMatchConfig coarse;
  coarse.grid_step_m = 20.0;
  (void)match_point(r, r.geo_at(200.0), coarse);
  (void)match_point(r, r.geo_at(300.0), coarse);  // hits the second entry
  const auto snap = obs::Registry::global().snapshot();
  obs::set_enabled(false);
  obs::reset_all();

  EXPECT_EQ(snap.counters.at("match.grid_build"), 2);
  EXPECT_EQ(snap.counters.at("match.cache_hit"), 1);
}

#if RGE_OBS_ENABLED
TEST(MatchCache, SharedCacheHoldsACity) {
  // A survey pass rekeys trips on every road of the city through the
  // process-wide cache behind rekey_track_by_road. A cache smaller than
  // the city evicts each matcher before its road comes round again, so
  // the second pass would miss on every lookup.
  const road::RoadNetwork net = road::make_city_network(2019);
  ASSERT_EQ(net.size(), 97u);
  struct Drive {
    GradeTrack track;
    std::vector<sensors::GpsFix> fixes;
  };
  std::vector<Drive> drives;
  for (const auto& nr : net.roads()) {
    Drive d;
    for (double s = 0.0; s < nr.road.length_m(); s += 50.0) {
      sensors::GpsFix fix;
      fix.t = s / 12.5;
      fix.position = nr.road.geo_at(s);
      d.fixes.push_back(fix);
      d.track.t.push_back(fix.t);
      d.track.s.push_back(s);  // rekeying reads only t and s
    }
    drives.push_back(std::move(d));
  }

  const auto counter = [](const obs::MetricsSnapshot& snap,
                          const char* name) -> std::int64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  const auto survey_pass = [&] {
    for (std::size_t r = 0; r < drives.size(); ++r) {
      (void)rekey_track_by_road(drives[r].track, net.roads()[r].road,
                                drives[r].fixes);
    }
    return obs::Registry::global().snapshot();
  };
  obs::reset_all();
  obs::set_enabled(true);
  const auto first = survey_pass();
  const auto second = survey_pass();
  obs::set_enabled(false);
  obs::reset_all();

  const auto roads = static_cast<std::int64_t>(net.size());
  EXPECT_EQ(counter(second, "match.cache_hit") -
                counter(first, "match.cache_hit"),
            roads);
  EXPECT_EQ(counter(second, "match.cache_miss") -
                counter(first, "match.cache_miss"),
            0);
}
#endif

TEST(RekeyTrack, ThrowsWithoutUsableFixes) {
  const Scenario sc = simulate(6);
  const auto res =
      estimate_gradient(sc.trace, vehicle::VehicleParams{});
  std::vector<sensors::GpsFix> none;
  EXPECT_THROW(rekey_track_by_road(res.fused, sc.road, none),
               std::invalid_argument);
  // All-invalid fixes also throw.
  auto invalid = sc.trace.gps;
  for (auto& f : invalid) f.valid = false;
  EXPECT_THROW(rekey_track_by_road(res.fused, sc.road, invalid),
               std::invalid_argument);
}

}  // namespace
}  // namespace rge::core
