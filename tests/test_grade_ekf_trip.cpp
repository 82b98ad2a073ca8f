// run_grade_ekf_trip, the trip kernel every causal EKF of the pipeline
// runs on (DESIGN.md §8).
//
// Assertion policy: a source's track has the same bits whether it runs
// alone, beside the trip's other sources or in another lane, in every
// build mode. Against the scalar reference (GradeEkf stepped in
// run_grade_ekf's order over the same inputs) every track is == under
// RGE_SIMD=OFF; under ON, where the predict runs polynomial sin/cos and
// hoisted reciprocals, every record stays within §8's trace tolerance.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/grade_ekf.hpp"
#include "math/simd.hpp"
#include "testing/fault_injection.hpp"
#include "testing/scenario.hpp"

#include "grade_ekf_reference.hpp"
#include "pin_inputs.hpp"

namespace rge::core {
namespace {

const vehicle::VehicleParams kParams{};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

constexpr std::pair<const char*, std::vector<double> GradeTrack::*>
    kValueFields[] = {{"grade", &GradeTrack::grade},
                      {"grade_var", &GradeTrack::grade_var},
                      {"speed", &GradeTrack::speed},
                      {"s", &GradeTrack::s}};

void expect_same_bits(const GradeTrack& a, const GradeTrack& b,
                      const std::string& what) {
  EXPECT_EQ(a.source, b.source) << what;
  EXPECT_TRUE(same_bits(a.t, b.t)) << what << ": t";
  for (const auto& [name, field] : kValueFields) {
    EXPECT_TRUE(same_bits(a.*field, b.*field)) << what << ": " << name;
  }
}

/// First record where `got` leaves the §8 trace tolerance of `want`
/// (1e-6 relative, floored at 1), or got.size() if none does.
std::size_t first_outside_tolerance(const std::vector<double>& got,
                                    const std::vector<double>& want) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!(std::abs(got[i] - want[i]) <=
          1e-6 * std::max(1.0, std::abs(want[i])))) {
      return i;
    }
  }
  return got.size();
}

void expect_reference_parity(const GradeTrack& kernel, const GradeTrack& ref,
                             const std::string& what) {
  if constexpr (!math::simd_enabled()) {
    expect_same_bits(kernel, ref, what);
  } else {
    EXPECT_EQ(kernel.source, ref.source) << what;
    EXPECT_TRUE(same_bits(kernel.t, ref.t)) << what << ": t";
    for (const auto& [name, field] : kValueFields) {
      const auto& got = kernel.*field;
      const auto& want = ref.*field;
      ASSERT_EQ(got.size(), want.size()) << what << ": " << name;
      const std::size_t i = first_outside_tolerance(got, want);
      EXPECT_EQ(i, got.size()) << what << ": " << name << " at record " << i
                               << ": " << got[i] << " vs " << want[i];
    }
  }
}

/// Every source of the trip in one kernel call against the scalar
/// reference per source.
void check_against_reference(const TripInputs& in, const std::string& what) {
  ASSERT_FALSE(in.names.empty()) << what;
  const GradeEkfConfig cfg{};
  const auto tracks =
      run_grade_ekf_trip(in.t, in.f, in.streams(), kParams, cfg);
  ASSERT_EQ(tracks.size(), in.names.size()) << what;
  for (std::size_t j = 0; j < tracks.size(); ++j) {
    ASSERT_FALSE(tracks[j].t.empty()) << what;
    expect_reference_parity(tracks[j], reference_track(in, j, kParams, cfg),
                            what + " " + in.names[j]);
  }
}

TEST(TripKernel, Validation) {
  const std::vector<double> t = {0.0, 0.02, 0.04};
  const std::vector<double> f = {0.1, 0.2};
  const std::vector<VelocityMeasurement> meas = {{0.0, 10.0, 0.1}};
  const SourceStream one{"gps", meas};
  EXPECT_THROW(run_grade_ekf_trip(t, f, {&one, 1}, kParams),
               std::invalid_argument);

  const std::vector<double> f3 = {0.1, 0.2, 0.3};
  const std::vector<SourceStream> five(kTripKernelLanes + 1, one);
  EXPECT_THROW(run_grade_ekf_trip(t, f3, five, kParams),
               std::invalid_argument);
  EXPECT_EQ(run_grade_ekf_trip(t, f3, {}, kParams).size(), 0u);

  // An empty series gives one empty, named track per source.
  const std::vector<SourceStream> two = {{"gps", meas}, {"imu", {}}};
  const auto empty = run_grade_ekf_trip(std::vector<double>{},
                                        std::vector<double>{}, two, kParams);
  ASSERT_EQ(empty.size(), 2u);
  EXPECT_EQ(empty[0].source, "gps");
  EXPECT_EQ(empty[1].source, "imu");
  for (const auto& tr : empty) {
    EXPECT_EQ(tr.size(), 0u);
    EXPECT_NO_THROW(tr.validate());
  }
}

TEST(TripKernel, SourceTrackIndependentOfCompanionsAndLane) {
  GradeEkfConfig no_drift;
  no_drift.use_paper_drift_term = false;
  no_drift.record_decimation = 1;
  const std::pair<const char*, sensors::SensorTrace> trips[] = {
      {"lane-change trip", testing::lane_change_pin_trace()},
      {"city trip", testing::city_pin_trace()}};
  for (const auto& [trip_name, trace] : trips) {
    const TripInputs in = trip_inputs(trace, kParams);
    const std::vector<SourceStream> streams = in.streams();
    const std::size_t k = streams.size();
    ASSERT_EQ(k, kTripKernelLanes) << trip_name;
    for (const GradeEkfConfig& cfg : {GradeEkfConfig{}, no_drift}) {
      const auto together = run_grade_ekf_trip(in.t, in.f, streams, kParams,
                                               cfg);
      std::vector<SourceStream> reversed(streams.rbegin(), streams.rend());
      const auto permuted = run_grade_ekf_trip(in.t, in.f, reversed, kParams,
                                               cfg);
      for (std::size_t j = 0; j < k; ++j) {
        const std::string what = std::string(trip_name) + " " + in.names[j];
        const auto alone =
            run_grade_ekf_trip(in.t, in.f, {&streams[j], 1}, kParams, cfg);
        ASSERT_EQ(alone.size(), 1u);
        expect_same_bits(together[j], alone.front(), what + " together");
        expect_same_bits(permuted[k - 1 - j], alone.front(),
                         what + " in lane " + std::to_string(k - 1 - j));
        expect_same_bits(run_grade_ekf(in.names[j], in.t, in.f, in.meas[j],
                                       kParams, cfg),
                         alone.front(), what + " run_grade_ekf");
      }
      // A source beside a lane that never gets a measurement.
      const SourceStream pair[] = {{"idle", {}}, streams[2]};
      const auto with_idle = run_grade_ekf_trip(in.t, in.f, pair, kParams,
                                                cfg);
      expect_same_bits(with_idle[1], together[2],
                       std::string(trip_name) + " beside an idle lane");
    }
  }
}

TEST(TripKernel, MatchesScalarReferenceOnPinTrips) {
  check_against_reference(
      trip_inputs(testing::lane_change_pin_trace(), kParams),
      "lane-change trip");
  check_against_reference(trip_inputs(testing::city_pin_trace(), kParams),
                          "city trip");
}

TEST(TripKernel, MatchesScalarReferenceOnScenarioStreams) {
  // Every scenario's trip 0, clean and under the pin faults.
  for (const auto& spec : testing::scenario_matrix()) {
    const auto world = testing::build_world(spec);
    ASSERT_FALSE(world.traces.empty()) << spec.name;
    for (const testing::FaultKind kind : testing::kPinFaults) {
      sensors::SensorTrace trace = world.traces.front();
      testing::apply_fault(trace, testing::make_fault(kind));
      check_against_reference(trip_inputs(trace, kParams),
                              spec.name + "/" + testing::fault_name(kind));
    }
  }
}

}  // namespace
}  // namespace rge::core
