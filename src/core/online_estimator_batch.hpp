// Fleet streaming for online gradient estimators.
//
// run_online_batch streams many vehicles' traces, each through its own
// OnlineGradientEstimator, and spreads the fleet over a thread pool in
// blocks. The SIMD work happens inside each estimator: one four-lane
// predict per IMU sample steps the vehicle's three source filters
// (DESIGN.md §8). Every result is bit-identical to streaming that trace
// through a standalone estimator, in every build mode.
#pragma once

#include <vector>

#include "core/online_estimator.hpp"
#include "runtime/metrics.hpp"
#include "sensors/trace.hpp"
#include "vehicle/params.hpp"

namespace rge::core {

/// Result of streaming one vehicle's full trace through run_online_batch.
struct OnlineFleetResult {
  OnlineEstimate final_estimate;
  std::vector<DetectedLaneChange> lane_changes;
};

/// Streams a fleet's traces through standalone estimators in blocks of up
/// to traces_per_block vehicles, the unit of parallel work; blocks are
/// distributed over a runtime::ThreadPool, and a call whose traces fit
/// one block runs on the caller alone, with no pool. Traces are sorted by
/// IMU sample count, longest first, and dealt round-robin to the blocks,
/// so every block gets a similar mix of long and short traces. A block
/// streams its traces one after another, each through a fresh estimator
/// that merges the trace's streams in timestamp order (all GPS fixes with
/// t <= imu.t, then speedometer, then CAN, then barometer, then the IMU
/// sample — the order the app's dispatcher would deliver them). Vehicles
/// are independent, so results are identical for any n_threads and any
/// traces_per_block, and result i always belongs to traces[i].
/// n_threads == 0 picks hardware concurrency; traces_per_block == 0 picks
/// 64. Per-stage wall time is accumulated into *metrics when non-null
/// (ekf_ns carries each block's streaming loop; trips counts vehicles).
std::vector<OnlineFleetResult> run_online_batch(
    const std::vector<sensors::SensorTrace>& traces,
    const vehicle::VehicleParams& params,
    const OnlineEstimatorConfig& config = {}, std::size_t n_threads = 0,
    std::size_t traces_per_block = 0,
    runtime::StageMetrics* metrics = nullptr);

}  // namespace rge::core
