// End-to-end road gradient estimation pipeline — the paper's proposed
// system ("OPS" in the evaluation). Composition of:
//   1. coordinate alignment          (Section III-A)
//   2. steering profile smoothing    (local regression, Fig. 4)
//   3. bump extraction + Algorithm 1 (Section III-B)
//   4. Eq. 2 velocity adjustment     (Section III-B3)
//   5. per-source gradient EKFs      (Section III-C1/C2)
//   6. Eq. 6 track fusion            (Section III-C3)
#pragma once

#include <vector>

#include "core/alignment.hpp"
#include "core/grade_ekf.hpp"
#include "core/mount_calibration.hpp"
#include "core/lane_change_detector.hpp"
#include "core/track_fusion.hpp"
#include "core/velocity_sources.hpp"
#include "math/loess.hpp"
#include "runtime/metrics.hpp"
#include "sensors/trace.hpp"
#include "vehicle/params.hpp"

namespace rge::core {

struct PipelineConfig {
  AlignmentConfig alignment;
  LaneChangeDetectorConfig detector;
  GradeEkfConfig ekf;
  VelocitySourceConfig sources;
  FusionConfig fusion;

  /// Steering-profile smoothing (LOESS) window in seconds; 0 disables.
  double smoothing_window_s = 0.8;
  int smoothing_degree = 1;
  /// The steering profile is decimated to this rate before smoothing and
  /// detection (detection does not need the full IMU rate).
  double detector_rate_hz = 10.0;

  /// Which velocity sources feed tracks (at least one must be enabled).
  bool use_gps = true;
  bool use_speedometer = true;
  bool use_canbus = true;
  bool use_imu = true;

  /// Crown (cross-slope) ratio assumed by the lane-change effect
  /// elimination when projecting the specific force back to the road frame
  /// (standard drainage crown ~2%).
  double assumed_road_crown = 0.02;

  /// Drop non-finite samples (NaN/Inf timestamps or payloads) and
  /// regressive-timestamp samples from the trace before processing. Real
  /// logging stacks emit both on glitches; without this a single NaN
  /// accelerometer sample poisons the EKF state and every grade after it,
  /// and an out-of-order block corrupts every downstream time integral.
  /// Costs one finiteness+order scan on clean traces. Drop counts are
  /// reported in PipelineResult::sanitize and the pipeline.sanitizer.*
  /// obs counters. Switch it off only for traces known to be clean: the
  /// smoothing and resampling stages reject unsorted timestamps with
  /// std::invalid_argument.
  bool sanitize_input = true;

  /// Estimate and undo the phone's mount-yaw misalignment from the trace
  /// before alignment (see core/mount_calibration.hpp). Cheap; only
  /// applied when the calibration is reliable.
  bool auto_calibrate_mount = true;
  MountCalibrationConfig mount;

  /// Ablation switches.
  bool enable_lane_change_adjustment = true;
  bool enable_fusion = true;  ///< false: return the single best track
  /// Replace each source's causal EKF with the offline RTS smoother
  /// (forward EKF + backward sweep). Offline post-processing only — the
  /// paper's system is causal — but roughly halves transition-lag error.
  bool use_rts_smoother = false;
  double rts_rate_hz = 10.0;
};

struct PipelineResult {
  /// Samples the input sanitizer dropped (all zero for a clean trace).
  sensors::SanitizeReport sanitize;
  /// Mount calibration applied to the trace (yaw 0 if disabled/unreliable).
  MountCalibration mount;
  AlignedStates aligned;
  /// Decimated detection timeline with raw and smoothed steering profiles.
  /// Detection runs on the smoothed profile; the steering-angle integration
  /// for the Eq. 2 adjustment uses the raw one (white noise integrates out,
  /// while smoothing attenuates the peaks and biases alpha).
  std::vector<double> det_t;
  std::vector<double> det_steer_raw;
  std::vector<double> det_steer_smoothed;
  std::vector<double> det_speed;
  std::vector<DetectedLaneChange> lane_changes;
  std::vector<GradeTrack> tracks;  ///< one per enabled velocity source
  GradeTrack fused;                ///< the system output
};

/// Run the full pipeline over one sensor trace.
/// @throws std::invalid_argument on empty traces or all-disabled sources.
PipelineResult estimate_gradient(const sensors::SensorTrace& trace,
                                 const vehicle::VehicleParams& params,
                                 const PipelineConfig& config = {});

/// Batch driver of the parallel runtime: run the full pipeline over many
/// traces on a thread pool of `n_threads` workers (0 picks the hardware
/// concurrency). Trips fan out across the pool. Each trip's causal
/// per-source EKFs run as the lanes of one run_grade_ekf_trip call; with
/// use_rts_smoother the per-source smoothers run as nested tasks.
///
/// Determinism guarantee: results[i] is bit-identical to
/// `estimate_gradient(traces[i], params, config)` — every per-trip
/// computation is independent, writes only its own result slot, and uses
/// the same arithmetic in the same order regardless of thread count or
/// scheduling. Per-trip randomness (if any) lives in the traces, which are
/// produced before the batch call, so seeds are untouched.
///
/// Per-stage wall time (align/detect/ekf/fuse) is accumulated into
/// *metrics when non-null; see runtime/metrics.hpp for the report format.
/// @throws whatever estimate_gradient throws for the first failing trace.
std::vector<PipelineResult> run_pipeline_batch(
    const std::vector<sensors::SensorTrace>& traces,
    const vehicle::VehicleParams& params, const PipelineConfig& config = {},
    std::size_t n_threads = 0, runtime::StageMetrics* metrics = nullptr);

}  // namespace rge::core
