// run_grade_ekf_trip, the trip kernel every causal EKF of the pipeline
// runs on, and the four-lane kernel it shares with the online estimator
// (ekf_kernel::predict_lanes, DESIGN.md §8).
//
// Assertion policy: a source's track has the same bits whether it runs
// alone, beside the trip's other sources or in another lane, in every
// build mode. Against the scalar reference (GradeEkf stepped in
// run_grade_ekf's order over the same inputs) every track is == under
// RGE_SIMD=OFF; under ON, where the predict runs polynomial sin/cos and
// hoisted reciprocals, every record stays within §8's trace tolerance,
// and every step of the bare kernel (the GradeEkfBatch cases) within its
// 1e-9 step tolerance.
#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/grade_ekf.hpp"
#include "core/grade_ekf_kernel.hpp"
#include "math/rng.hpp"
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

/// Four filters in the lane layout of the trip kernel and the online
/// estimator.
struct Lanes {
  alignas(32) double v[ekf_kernel::kLanes] = {};
  alignas(32) double th[ekf_kernel::kLanes] = {};
  alignas(32) double p00[ekf_kernel::kLanes] = {};
  alignas(32) double p01[ekf_kernel::kLanes] = {};
  alignas(32) double p11[ekf_kernel::kLanes] = {};

  /// Lane j as GradeEkf(params, cfg, v0, th0) starts.
  void seed(std::size_t j, double v0, double th0, const GradeEkfConfig& cfg) {
    v[j] = v0;
    th[j] = th0;
    p00[j] = cfg.initial_speed_var;
    p11[j] = cfg.initial_grade_var;
  }
  void predict(const double* on, double f, double dt,
               const ekf_kernel::SimdPredictConsts& k) {
    ekf_kernel::predict_lanes(v, th, p00, p01, p11, on, f, dt, k);
  }
  bool update(std::size_t j, double v_meas, double variance,
              const GradeEkfConfig& cfg) {
    return ekf_kernel::update_velocity({v[j], th[j], p00[j], p01[j], p11[j]},
                                       v_meas, variance, cfg.gate_nis);
  }
  std::array<std::uint64_t, 5> bits(std::size_t j) const {
    return {std::bit_cast<std::uint64_t>(v[j]),
            std::bit_cast<std::uint64_t>(th[j]),
            std::bit_cast<std::uint64_t>(p00[j]),
            std::bit_cast<std::uint64_t>(p01[j]),
            std::bit_cast<std::uint64_t>(p11[j])};
  }
};

/// Kernel constants of `cfg`, as the trip kernel and the online estimator
/// build them.
ekf_kernel::SimdPredictConsts predict_consts(const GradeEkfConfig& cfg) {
  return {kParams.gravity,
          1.0 / kParams.gravity,
          2.0 * kParams.drag_k() / kParams.mass_kg,
          cfg.use_paper_drift_term ? 1.0 : 0.0,
          cfg.accel_sigma,
          cfg.grade_process_psd};
}

/// One kernel step against the scalar filter: == under RGE_SIMD=OFF,
/// 1e-9 relative (floored at 1) under ON.
void expect_step_parity(double lane, double scalar) {
  if constexpr (math::simd_enabled()) {
    EXPECT_NEAR(lane, scalar, 1e-9 * std::max(1.0, std::abs(scalar)));
  } else {
    EXPECT_EQ(lane, scalar);
  }
}

// GradeEkfBatch: the batched grade EKF, i.e. the bare four-lane kernel
// (ekf_kernel::predict_lanes and ekf_kernel::update_velocity), stepped
// outside any trip. Both cases run 400 shared-(f, dt) steps with a
// velocity update every 9th step; the update at step % 27 == 4 is
// 200 m/s off, so the NIS gate fires.

TEST(GradeEkfBatch, PredictUpdateParityVsScalarFleet) {
  // Every lane on follows four GradeEkfs step by step, with the same gate
  // verdicts in every mode.
  constexpr std::size_t kLanes = ekf_kernel::kLanes;
  const GradeEkfConfig cfg{};
  const auto k = predict_consts(cfg);
  const double kAllOn[kLanes] = {1.0, 1.0, 1.0, 1.0};

  math::Rng rng(41);
  Lanes lanes;
  std::vector<GradeEkf> ref;
  for (std::size_t j = 0; j < kLanes; ++j) {
    const double v0 = rng.uniform(3.0, 25.0);
    const double th0 = rng.uniform(-0.08, 0.08);
    lanes.seed(j, v0, th0, cfg);
    ref.emplace_back(kParams, cfg, v0, th0);
  }

  std::size_t gated = 0;
  for (int step = 0; step < 400; ++step) {
    const double f = rng.uniform(-3.0, 3.0);
    const double dt = rng.uniform(0.01, 0.03);
    lanes.predict(kAllOn, f, dt, k);
    for (GradeEkf& e : ref) e.predict(f, dt);

    if (step % 9 == 4) {
      for (std::size_t j = 0; j < kLanes; ++j) {
        const double v_meas = step % 27 == 4
                                  ? ref[j].speed() + 200.0
                                  : ref[j].speed() + rng.gaussian(0.0, 0.5);
        const bool ok = ref[j].update_velocity(v_meas, 0.25);
        EXPECT_EQ(lanes.update(j, v_meas, 0.25, cfg), ok)
            << "lane " << j << " step " << step;
        gated += ok ? 0 : 1;
      }
    }

    for (std::size_t j = 0; j < kLanes; ++j) {
      expect_step_parity(lanes.v[j], ref[j].speed());
      expect_step_parity(lanes.th[j], ref[j].grade());
      expect_step_parity(lanes.p00[j], ref[j].speed_variance());
      expect_step_parity(lanes.p11[j], ref[j].grade_variance());
    }
  }
  EXPECT_GT(gated, 0u);
}

TEST(GradeEkfBatch, MaskedAndUnseededLanesFreezeBitExact) {
  //  * `masked` steps under a random on-mask: a lane with on = 0 keeps
  //    all five fields bit for bit, and every lane has the bits of
  //    `solo[j]`, where lane j takes the same on-bits with the other
  //    three lanes off;
  //  * `half` seeds lanes 0 and 2 and steps them alone; lanes 1 and 3
  //    hold zeros with on = 0, as the online estimator keeps a source it
  //    has not seeded, and stay zero bit for bit.
  // Every build mode; this is the only test that reads a masked lane.
  constexpr std::size_t kLanes = ekf_kernel::kLanes;
  const GradeEkfConfig cfg{};
  const auto k = predict_consts(cfg);
  const double kEvenOn[kLanes] = {1.0, 0.0, 1.0, 0.0};
  const std::array<std::uint64_t, 5> kZeroBits{};

  math::Rng rng(42);
  Lanes masked;
  Lanes solo[kLanes];
  Lanes half;
  for (std::size_t j = 0; j < kLanes; ++j) {
    const double v0 = rng.uniform(3.0, 25.0);
    const double th0 = rng.uniform(-0.08, 0.08);
    masked.seed(j, v0, th0, cfg);
    solo[j].seed(j, v0, th0, cfg);
    if (kEvenOn[j] != 0.0) half.seed(j, v0, th0, cfg);
  }
  const Lanes seeded_half = half;

  for (int step = 0; step < 400; ++step) {
    const double f = rng.uniform(-3.0, 3.0);
    const double dt = rng.uniform(0.01, 0.03);
    double on[kLanes];
    for (double& o : on) o = rng.uniform(0.0, 1.0) < 0.6 ? 1.0 : 0.0;

    const Lanes before = masked;
    masked.predict(on, f, dt, k);
    for (std::size_t j = 0; j < kLanes; ++j) {
      if (on[j] == 0.0) {
        ASSERT_EQ(masked.bits(j), before.bits(j))
            << "masked lane " << j << " moved at step " << step;
      }
      double only_j[kLanes] = {};
      only_j[j] = on[j];
      solo[j].predict(only_j, f, dt, k);
    }
    half.predict(kEvenOn, f, dt, k);

    if (step % 9 == 4) {
      for (std::size_t j = 0; j < kLanes; ++j) {
        const double off = step % 27 == 4 ? 200.0 : rng.gaussian(0.0, 0.5);
        const double v_meas = masked.v[j] + off;
        const bool masked_ok = masked.update(j, v_meas, 0.25, cfg);
        EXPECT_EQ(solo[j].update(j, v_meas, 0.25, cfg), masked_ok)
            << "lane " << j << " step " << step;
        if (kEvenOn[j] != 0.0) half.update(j, half.v[j] + off, 0.25, cfg);
      }
    }

    for (std::size_t j = 0; j < kLanes; ++j) {
      ASSERT_EQ(masked.bits(j), solo[j].bits(j))
          << "lane " << j << " at step " << step
          << " depends on the other lanes' on-bits";
      if (kEvenOn[j] == 0.0) {
        ASSERT_EQ(half.bits(j), kZeroBits)
            << "unseeded lane " << j << " moved at step " << step;
      }
    }
  }
  // The seeded lanes beside them did advance.
  EXPECT_NE(half.bits(0), seeded_half.bits(0));
  EXPECT_NE(half.bits(2), seeded_half.bits(2));
}

}  // namespace
}  // namespace rge::core
