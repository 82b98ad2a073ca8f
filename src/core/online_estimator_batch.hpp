// Fleet-scale SoA batch of online gradient estimators.
//
// OnlineEstimatorBatch runs N vehicles' streaming estimators in lockstep.
// Each lane keeps the full scalar OnlineGradientEstimator state (alignment,
// lane-change detection, the defense layer's gating/quarantine machinery —
// all inherently per-vehicle and branchy), and each lane's estimator is
// built on one shared structure-of-arrays filter store (a GradeEkfBatch of
// 3N lanes: source s of vehicle i at lane s*N + i), so
// the IMU-rate predict step — the fleet hot loop, two orders of magnitude
// more frequent than any measurement — runs as one lane-parallel vector
// sweep instead of 3*N scattered little matrix products.
//
// Per IMU step the driver runs the exact stage order of the scalar
// push_imu, hoisted across lanes:
//   1. push_imu_begin on every lane: admission, causal alignment, the
//      lane-change force projection — produces (f, dt) per lane;
//   2. one GradeEkfBatch::predict over every source of every lane (the
//      sources' filters are independent, so their order does not matter);
//   3. push_imu_finish on every lane: odometry, baro integrals, detection
//      buffer, maneuver confirmation.
// Measurement pushes (GPS/speedometer/CAN/baro) stay scalar per lane and
// route through the same defense layer (admit_velocity) as the scalar
// estimator; the EKF update arithmetic is the shared kernel in both.
//
// Parity contract (DESIGN.md §8): with RGE_SIMD=OFF every lane is
// bit-identical to an independent OnlineGradientEstimator fed the same
// stream; with RGE_SIMD=ON only the predict step carries the pinned
// kernel tolerance. In both modes lanes are fully independent, so outputs
// are invariant under lane permutation bit-for-bit.
//
// Hot-path contract: after warm-up, push_imu performs zero heap
// allocations (pinned by test_online_estimator_batch).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/grade_ekf_batch.hpp"
#include "core/online_estimator.hpp"
#include "runtime/metrics.hpp"
#include "sensors/trace.hpp"
#include "vehicle/params.hpp"

namespace rge::core {

class OnlineEstimatorBatch {
 public:
  /// All lanes share one VehicleParams and OnlineEstimatorConfig (a fleet
  /// of identical vehicles; heterogeneous fleets shard across batches).
  OnlineEstimatorBatch(std::size_t lanes,
                       const vehicle::VehicleParams& params,
                       const OnlineEstimatorConfig& config = {});
  /// Lanes point into filters_, so the batch never moves or copies.
  OnlineEstimatorBatch(const OnlineEstimatorBatch&) = delete;
  OnlineEstimatorBatch& operator=(const OnlineEstimatorBatch&) = delete;

  std::size_t lanes() const { return lanes_; }

  /// Hand `lane` to a new vehicle: a fresh OnlineGradientEstimator, and
  /// the lane's filter slots back in their constructed state. The lane
  /// then behaves exactly like a lane of a newly constructed batch.
  void reset_lane(std::size_t lane);

  /// Lockstep IMU step: samples[i] feeds lane i. Spans must cover
  /// lanes(). The overload with `active` skips lanes whose mask byte is 0
  /// entirely (their streams are not advanced) — used by fleet drivers
  /// whose vehicles have traces of different lengths.
  void push_imu(std::span<const sensors::ImuSample> samples);
  void push_imu(std::span<const sensors::ImuSample> samples,
                std::span<const std::uint8_t> active);

  /// Per-lane measurement pushes (low-rate; scalar defense-layer path,
  /// identical to OnlineGradientEstimator's).
  void push_gps(std::size_t lane, const sensors::GpsFix& fix);
  void push_speedometer(std::size_t lane, double t, double speed_mps);
  void push_canbus(std::size_t lane, double t, double speed_mps);
  void push_baro(std::size_t lane, double t, double altitude_m);

  OnlineEstimate estimate(std::size_t lane) const;
  const std::vector<DetectedLaneChange>& lane_changes(std::size_t lane) const;
  SourceDiagnostics source_diagnostics(std::size_t lane,
                                       VelocitySource which) const;
  double accel_bias_estimate(std::size_t lane) const;

 private:
  std::size_t lanes_ = 0;
  vehicle::VehicleParams params_;
  OnlineEstimatorConfig config_;
  /// Every lane's three source filters: source s of lane i at s*lanes_ + i.
  GradeEkfBatch filters_;
  // Per-lane scalar state, built on filters_; allocated at construction
  // and by reset_lane only, the push_imu hot path never touches the
  // allocator.
  std::vector<std::unique_ptr<OnlineGradientEstimator>> lanes_state_;
  // Lockstep scratch, sized at construction (zero-alloc steady state).
  // f_ and dt_ cover all 3*lanes_ filter slots.
  std::vector<OnlineGradientEstimator::ImuStep> steps_;
  std::vector<double> f_;
  std::vector<double> dt_;
};

/// Result of streaming one vehicle's full trace through the fleet driver.
struct OnlineFleetResult {
  OnlineEstimate final_estimate;
  std::vector<DetectedLaneChange> lane_changes;
};

/// Streams a fleet's traces through SoA batch estimators in blocks of
/// up to lanes_per_block vehicles, the unit of parallel work;
/// blocks are distributed over a runtime::ThreadPool, and a call whose
/// traces fit one block runs on the caller alone. Traces are sorted by
/// IMU sample count, longest first, and dealt round-robin to the blocks,
/// so every block gets a similar mix of long and short traces. A block
/// streams its traces through one OnlineEstimatorBatch of at most 8
/// lanes, longest first: when a lane's trace ends, its result is written
/// and the lane is reset for the block's next trace (DESIGN.md §8).
/// Each lane merges its trace's streams in timestamp order (all GPS
/// fixes with t <= imu.t, then speedometer, then CAN, then barometer,
/// then the IMU sample — the order the app's dispatcher would deliver
/// them). Lanes are independent, so results are identical for any
/// n_threads and any lanes_per_block, and result i always belongs to
/// traces[i]. n_threads == 0 picks hardware concurrency; lanes_per_block
/// == 0 picks 64. Per-stage wall time is accumulated into *metrics when
/// non-null (ekf_ns carries the lockstep streaming loop; trips counts
/// vehicles).
std::vector<OnlineFleetResult> run_online_batch(
    const std::vector<sensors::SensorTrace>& traces,
    const vehicle::VehicleParams& params,
    const OnlineEstimatorConfig& config = {}, std::size_t n_threads = 0,
    std::size_t lanes_per_block = 0,
    runtime::StageMetrics* metrics = nullptr);

}  // namespace rge::core
