// Bit pins for the survey path: FNV-1a fingerprints over every output
// array of estimate_gradient on two seeded trips, and over
// CsrGraph::potential for every node pair and metric on the stitched
// 164.8 km city network.
//
// The fingerprints hash raw IEEE-754 bits, so any rewrite of the
// resampling, alignment or landmark code that moves a single output bit
// fails here. Change a pin only for a deliberate numerical change, and
// record why in the change log.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.hpp"
#include "planning/city_gen.hpp"
#include "planning/csr_graph.hpp"
#include "road/network.hpp"
#include "sensors/smartphone.hpp"
#include "testing/network_survey.hpp"
#include "vehicle/trip.hpp"

namespace rge {
namespace {

/// Byte-wise FNV-1a accumulator over raw object representations.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void f64s(const std::vector<double>& xs) {
    u64(xs.size());
    bytes(xs.data(), xs.size() * sizeof(double));
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

void hash_track(Fnv1a& h, const core::GradeTrack& tr) {
  h.str(tr.source);
  h.f64s(tr.t);
  h.f64s(tr.grade);
  h.f64s(tr.grade_var);
  h.f64s(tr.speed);
  h.f64s(tr.s);
}

/// Every output array of one pipeline run, in declaration order.
std::uint64_t fingerprint(const core::PipelineResult& r) {
  Fnv1a h;
  h.u64(r.sanitize.total());
  h.f64(r.mount.yaw_rad);
  h.f64(r.mount.crown_estimate);
  h.u64(r.mount.samples_used);
  h.u64(r.mount.reliable ? 1 : 0);
  const core::AlignedStates& a = r.aligned;
  h.f64s(a.t);
  h.f64s(a.yaw_rate);
  h.f64s(a.road_rate);
  h.f64s(a.steer_rate);
  h.f64s(a.accel_forward);
  h.u64(a.gps_available.size());
  for (const bool g : a.gps_available) h.u64(g ? 1 : 0);
  h.f64s(r.det_t);
  h.f64s(r.det_steer_raw);
  h.f64s(r.det_steer_smoothed);
  h.f64s(r.det_speed);
  h.u64(r.lane_changes.size());
  for (const auto& lc : r.lane_changes) {
    h.f64(lc.t_start);
    h.f64(lc.t_end);
    h.u64(static_cast<std::uint64_t>(lc.type));
    h.f64(lc.displacement_m);
    h.f64(lc.peak_rate);
  }
  h.u64(r.tracks.size());
  for (const auto& tr : r.tracks) hash_track(h, tr);
  hash_track(h, r.fused);
  return h.value();
}

core::PipelineResult run_trip(const road::Road& road,
                              const vehicle::TripConfig& tc,
                              const sensors::SmartphoneConfig& pc) {
  const vehicle::Trip trip = vehicle::simulate_trip(road, tc);
  const sensors::SensorTrace trace = sensors::simulate_sensors(
      trip, road.anchor(), vehicle::VehicleParams{}, pc);
  return core::estimate_gradient(trace, vehicle::VehicleParams{});
}

TEST(SurveyPins, PipelineOutputsOnLaneChangeTrip) {
  // Table III route with frequent lane changes: the Eq. 2 adjustment
  // resamples three detection-rate series onto the IMU timeline.
  vehicle::TripConfig tc;
  tc.seed = 21;
  tc.lane_changes_per_km = 5.0;
  sensors::SmartphoneConfig pc;
  pc.seed = 28;
  const auto res = run_trip(road::make_table3_route(2019), tc, pc);
  ASSERT_FALSE(res.lane_changes.empty());
  EXPECT_EQ(fingerprint(res), 0x8ce50b67c518b795ull);
}

TEST(SurveyPins, PipelineOutputsOnCityRoadWithMountYawAndOutage) {
  // A city road driven with a rotated phone and a GPS outage: the mount
  // derotation and the outage fallback of the alignment stage both run.
  const road::RoadNetwork net = road::make_city_network(2019);
  vehicle::TripConfig tc;
  tc.seed = 77;
  sensors::SmartphoneConfig pc;
  pc.seed = 78;
  pc.mount_yaw_rad = 0.12;
  pc.gps_outages = {{40.0, 70.0}};
  const auto res = run_trip(net.roads()[5].road, tc, pc);
  ASSERT_TRUE(res.mount.reliable);
  EXPECT_EQ(fingerprint(res), 0x2d78400854f3c5f1ull);
}

TEST(SurveyPins, LandmarkPotentialsOnCityNetwork) {
  const road::RoadNetwork net = road::make_city_network(2019);
  // Ground-truth profiles: the pin isolates the graph from the pipeline.
  const auto truth = testing::survey_network_grades(
      net, /*trips_per_road=*/0, /*base_seed=*/9000, /*step_m=*/25.0);
  const planning::CsrGraph csr(
      planning::build_network_graph(net, truth, 25.0));
  const std::size_t n = csr.node_count();
  ASSERT_GT(n, 100u);
  const std::uint64_t pins[planning::kMetricCount] = {
      0x437907b31bb9d23aull, 0x1a17333973d2655eull, 0xb033610a49362ff9ull,
      0x09802e5174b7e7f7ull};
  for (int mi = 0; mi < planning::kMetricCount; ++mi) {
    const auto m = static_cast<planning::Metric>(mi);
    Fnv1a h;
    for (const std::size_t lm : csr.landmarks(m)) h.u64(lm);
    for (std::size_t v = 0; v < n; ++v) {
      for (std::size_t t = 0; t < n; ++t) h.f64(csr.potential(m, v, t));
    }
    EXPECT_EQ(h.value(), pins[mi]) << planning::metric_name(m);
  }
}

}  // namespace
}  // namespace rge
