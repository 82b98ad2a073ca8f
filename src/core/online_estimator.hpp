// Online (streaming) gradient estimator — the deployment-shaped API.
//
// The batch pipeline (`estimate_gradient`) wants the whole trace up front;
// a phone app instead pushes samples as they arrive and reads the current
// gradient a fixed latency later. This class runs the same stages in
// causal form:
//   * alignment: EMA road-rate + slow gyro-bias estimate (already causal);
//   * smoothing: centered moving average over the detection buffer — each
//     sample's smoothed value is computed once (frozen) as soon as its
//     full half-window of later samples exists, so the detector's view
//     lags by half the window (the latency);
//   * lane-change detection: Algorithm 1 as an incremental state machine
//     over the finalized profile (O(excursion) per detector tick instead
//     of re-running the full 30 s buffer);
//   * gradient EKFs + fusion: strictly causal, one per velocity source,
//     source s in lane s of the estimator's own four-lane filter arrays;
//     one ekf_kernel::predict_lanes per IMU sample steps all three.
//
// Estimates published while a lane change is still being detected cannot
// be retro-adjusted (Eq. 2 needs the whole maneuver), so the online
// estimator applies the specific-force/velocity projection from the moment
// a maneuver is *confirmed*; the tail of the correction is what the batch
// pipeline gains over this class.
//
// Hot-path contract: after warm-up (detection ring at capacity, EKFs
// seeded), push_imu performs zero heap allocations — pinned by
// test_online_parity.SteadyStatePushImuDoesNotAllocate.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/alignment.hpp"
#include "core/grade_ekf.hpp"
#include "core/grade_ekf_kernel.hpp"
#include "core/lane_change_detector.hpp"
#include "core/track_fusion.hpp"
#include "math/ema_gain.hpp"
#include "obs/obs.hpp"
#include "sensors/trace.hpp"
#include "vehicle/params.hpp"

namespace rge::core {

/// Self-defense layer for the per-source velocity filters: innovation
/// gating with an adaptive measurement-noise floor (R_eff inflated from
/// recent normalized-innovation statistics), per-source health scoring,
/// quarantine with timed re-admission probes, and a consensus-driven
/// accelerometer-bias compensator. All statistics are driven by *sample*
/// time and measurement counts — never wall clock — so a replayed trace
/// reproduces the exact same defense decisions (see DESIGN.md).
struct OnlineDefenseConfig {
  /// Master switch. false restores the trusting legacy behavior exactly
  /// (no gate, no health, no quarantine, no bias compensation).
  bool enabled = true;
  /// Innovation gate half-width in sigmas of the effective innovation
  /// std-dev sqrt(p00 + R_eff). 5.0 matches GradeEkfConfig::gate_nis=25
  /// when the source is healthy and un-inflated.
  double gate_nsigma = 5.0;
  /// R_eff = R_base * clamp(nis_ewma, 1, r_inflation_max) / max(health,
  /// min_health_weight): sustained large-but-plausible innovations widen
  /// the gate (a drifting IMU must not starve the filter of velocity
  /// corrections), degraded health down-weights the source.
  double r_inflation_max = 16.0;
  double min_health_weight = 0.05;
  /// Per-measurement EWMA weights for the normalized-innovation-squared
  /// level and the signed normalized-innovation bias.
  double nis_ewma_alpha = 0.12;
  double bias_ewma_alpha = 0.05;
  /// A single insane outlier must not blow the adaptive window open:
  /// NIS contributions are capped (in sigma^2) and bias contributions
  /// clamped (in sigma) before entering the EWMAs.
  double nis_cap = 9.0;
  double bias_cap_sigma = 4.0;
  /// Health in [0,1]: recovers multiplicatively toward 1 on accepted
  /// measurements, decays on gate rejections and on sustained innovation
  /// bias beyond bias_tolerance_sigma (a stuck-at sensor biases without
  /// necessarily tripping the gate).
  double health_recover = 0.03;
  double health_penalty_reject = 0.12;
  double health_penalty_bias = 0.02;
  double bias_tolerance_sigma = 1.0;
  /// Below this health the source is quarantined: its filter keeps
  /// predicting but measurements are consumed by the probe machine only
  /// and the source is excluded from fused_speed()/estimate().
  double quarantine_below = 0.2;
  /// Sample-time hold before re-admission probes begin, and the number
  /// of consecutive gate-passing probes required to readmit. A failed
  /// probe re-arms the hold.
  double readmit_after_s = 8.0;
  int readmit_probes = 3;
  /// Consensus accelerometer-bias compensation: when >= 2 seeded healthy
  /// sources agree that innovations are persistently biased in the same
  /// direction (|bias_ewma| >= bias_engage_sigma), the common cause is
  /// the IMU, not the sensors; an EWMA of -innovation/dt then tracks the
  /// accel bias and predict() uses (f - bias). Gating alone would make a
  /// slow bias ramp *worse* — it rejects the correct measurements.
  bool compensate_accel_bias = true;
  double bias_engage_sigma = 1.0;
  double accel_bias_tau_s = 25.0;
  double accel_bias_max_mps2 = 3.0;
  /// Bias observations are only meaningful for modest inter-measurement
  /// gaps (b ~ -y/dt amplifies noise as dt -> 0 and staleness as
  /// dt -> inf).
  double bias_obs_min_dt_s = 0.05;
  double bias_obs_max_dt_s = 3.0;
  /// Barometer anchoring. Forward-accel bias and road grade are NOT
  /// separately observable from velocity innovations: the EKF explains a
  /// bias away as grade (any split with b + g*sin(dtheta) constant fits
  /// the velocity data), so the consensus learner above only catches the
  /// transient of a bias *step*, never a slow ramp. The barometer — too
  /// noisy for grade directly (paper Section III-C1) — is an independent
  /// vertical reference with exactly the right timescale: over an anchor
  /// window, predicted climb sum(v*sin(theta)*dt) minus measured
  /// altitude change exposes the absorbed bias as b ~ g*err/distance.
  /// While baro samples flow (push_baro), this observer replaces the
  /// velocity-consensus learner.
  bool baro_anchor = true;
  double baro_window_s = 15.0;      ///< anchor baseline length (s)
  double baro_smooth_tau_s = 1.0;   ///< endpoint EWMA over the baro stream
  double baro_min_speed_mps = 3.0;  ///< skip windows below this mean speed
  /// Compensation deadband: predict() subtracts sign(b)*max(0, |b| -
  /// deadband), so the small wander metre-level baro noise induces on
  /// clean traces applies exactly 0.0 while a large learned bias is
  /// still mostly removed.
  double bias_deadband_mps2 = 0.25;
};

struct OnlineEstimatorConfig {
  AlignmentConfig alignment;      ///< reused: tau values, thresholds
  LaneChangeDetectorConfig detector;
  GradeEkfConfig ekf;
  FusionConfig fusion;
  /// Half-width of the causal smoothing window (s); also the publishing
  /// latency of the steering profile fed to the detector.
  double smoothing_half_window_s = 0.4;
  /// Detection buffer length (s); bounds memory and re-scan cost.
  double detector_buffer_s = 30.0;
  double detector_rate_hz = 10.0;
  /// Assumed road crown for the lane-change force projection.
  double assumed_road_crown = 0.02;
  /// Incremental detection (default) maintains a persistent Algorithm 1
  /// state machine and touches only newly finalized samples per tick.
  /// false = reference mode: re-run detect_lane_changes over the whole
  /// finalized window every tick (the pre-optimization behavior; kept for
  /// the bit-identity equivalence tests).
  bool incremental_detection = true;
  /// Innovation gating / health scoring / quarantine / bias compensation.
  OnlineDefenseConfig defense;
};

/// Velocity sources, in fusion order. Bit (1 << source) indexes the
/// masks in OnlineEstimate.
enum class VelocitySource : std::uint8_t { kGps = 0, kSpeedometer = 1,
                                           kCanbus = 2 };
/// Velocity sources, i.e. filter slots, per vehicle.
inline constexpr std::size_t kVelocitySourceCount = 3;

/// Current output of the streaming estimator.
struct OnlineEstimate {
  double t = 0.0;          ///< timestamp of the latest IMU sample
  double grade_rad = 0.0;  ///< fused gradient
  double grade_var = 0.0;
  double speed_mps = 0.0;
  double odometry_m = 0.0;
  bool in_lane_change = false;
  std::size_t lane_changes_detected = 0;
  /// Bitmasks over VelocitySource: which seeded filters contributed to
  /// grade_rad/speed_mps, and which are currently quarantined. A
  /// quarantined source never contributes while any healthy source is
  /// available; only when *every* seeded source is quarantined does the
  /// estimator fall back to fusing them all (degraded continuity beats
  /// silence) — in that case the two masks are equal.
  std::uint8_t sources_fused_mask = 0;
  std::uint8_t sources_quarantined_mask = 0;
};

/// Read-only defense diagnostics for one velocity source (tests, debug).
struct SourceDiagnostics {
  bool seeded = false;
  bool quarantined = false;
  double health = 1.0;
  double nis_ewma = 1.0;
  double bias_ewma = 0.0;
  double r_eff = 0.0;  ///< last effective measurement variance used
  std::uint64_t accepted = 0;
  std::uint64_t gate_rejected = 0;
};

class OnlineGradientEstimator {
 public:
  OnlineGradientEstimator(const vehicle::VehicleParams& params,
                          const OnlineEstimatorConfig& config = {});

  /// Push sensor samples in timestamp order (per stream).
  ///
  /// Timestamp admission policy (per source stream):
  ///   * t <  last consumed t  -> rejected, `online.rejected_nonmonotonic`
  ///     (out-of-order delivery);
  ///   * t == last consumed t  -> rejected, `online.rejected_duplicate_t`
  ///     (replays; ties never overwrite an already-consumed epoch);
  ///   * t >  last consumed t  -> admitted to the defense layer.
  /// "Consumed" means applied to the source's filter or consumed by the
  /// quarantine probe machine. A measurement rejected by the innovation
  /// *gate* on a healthy source is NOT consumed — it does not advance the
  /// stream clock, so the next legitimate measurement at the same epoch
  /// still gets its chance (a spoofed sample must not shadow a real one).
  /// GPS fixes with `valid == false` (receiver-flagged outage) are
  /// dropped and counted as `online.rejected_invalid`; they reset the
  /// heading chain but never advance the stream clock.
  void push_imu(const sensors::ImuSample& sample);
  void push_gps(const sensors::GpsFix& fix);
  void push_speedometer(double t, double speed_mps);
  void push_canbus(double t, double speed_mps);
  /// Barometer altitude (m). Never a grade measurement: it only feeds the
  /// defense layer's accel-bias observer (OnlineDefenseConfig::
  /// baro_anchor) and is inert — beyond stream-clock upkeep — when the
  /// defense or bias compensation is off. Non-increasing timestamps are
  /// rejected as `online.rejected_nonmonotonic` (IMU policy: a 10 Hz
  /// hardware stream has no legitimate replays).
  void push_baro(double t, double altitude_m);

  /// Latest fused estimate. Valid once at least one IMU sample and one
  /// velocity measurement have been pushed.
  OnlineEstimate estimate() const;

  /// Maneuvers confirmed so far.
  const std::vector<DetectedLaneChange>& lane_changes() const {
    return lane_changes_;
  }

  /// Defense diagnostics for one source (health, quarantine, gate stats).
  SourceDiagnostics source_diagnostics(VelocitySource which) const;

  /// Current consensus accelerometer-bias estimate (m/s^2); 0 unless the
  /// defense layer's bias compensation has engaged.
  double accel_bias_estimate() const { return accel_bias_; }

 private:
  // Fixed-capacity ring over the detection-rate samples, addressed by
  // absolute sample number (monotonic since stream start) so detection
  // state can reference samples stably across evictions. Grows only if a
  // non-default config overflows the pre-sized capacity.
  class DetectionRing {
   public:
    /// The capacity is rounded up to a power of two, so a slot is a mask.
    explicit DetectionRing(std::size_t capacity)
        : t_(std::bit_ceil(capacity)),
          w_raw_(t_.size()),
          w_smooth_(t_.size()),
          v_(t_.size()),
          cap_(t_.size()) {}

    std::size_t first() const { return first_abs_; }
    std::size_t end() const { return first_abs_ + size_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void push_back(double t, double w_raw, double v) {
      if (size_ == cap_) grow();
      const std::size_t s = slot(first_abs_ + size_);
      t_[s] = t;
      w_raw_[s] = w_raw;
      w_smooth_[s] = 0.0;
      v_[s] = v;
      ++size_;
    }
    void pop_front() {
      ++first_abs_;
      --size_;
    }

    double t(std::size_t abs) const { return t_[slot(abs)]; }
    double w_raw(std::size_t abs) const { return w_raw_[slot(abs)]; }
    double w_smooth(std::size_t abs) const { return w_smooth_[slot(abs)]; }
    double v(std::size_t abs) const { return v_[slot(abs)]; }
    void set_w_smooth(std::size_t abs, double w) { w_smooth_[slot(abs)] = w; }

   private:
    std::size_t slot(std::size_t abs) const { return abs & (cap_ - 1); }
    void grow();

    std::vector<double> t_, w_raw_, w_smooth_, v_;
    std::size_t cap_;
    std::size_t first_abs_ = 0;
    std::size_t size_ = 0;
  };

  // Value-type bump record (extract_bumps' Bump, with absolute ring
  // indices instead of span-relative ones).
  struct BumpRec {
    bool valid = false;
    std::size_t start_abs = 0;
    std::size_t peak_abs = 0;
    std::size_t end_abs = 0;
    double t_start = 0.0;
    double t_peak = 0.0;
    double t_end = 0.0;
    double delta = 0.0;
    double duration_above = 0.0;
    int sign = 0;
  };

  // In-progress excursion of one sign (a bump being built).
  struct Excursion {
    bool active = false;
    int sign = 0;
    std::size_t start_abs = 0;
    std::size_t peak_abs = 0;
    double peak_mag = 0.0;
  };

  /// One velocity source's stream clock and defense state (its filter is
  /// the lane of the filter arrays with the same index).
  struct SourceFilter {
    SourceFilter(const char* source_name, double variance);

    double variance;  ///< base measurement noise R ((m/s)^2)
    double last_t = 0.0;  ///< newest *consumed* measurement timestamp
    bool has_t = false;

    // ---- defense state (OnlineDefenseConfig; sample-time driven) ----
    double health = 1.0;     ///< [0,1]; gate agreement + bias penalty
    double nis_ewma = 1.0;   ///< capped normalized-innovation^2 EWMA
    double bias_ewma = 0.0;  ///< clamped signed normalized-innovation EWMA
    double r_eff = 0.0;      ///< last effective measurement variance
    double last_accept_t = 0.0;  ///< newest EKF-applied timestamp
    bool has_accept_t = false;
    bool quarantined = false;
    double probe_open_t = 0.0;  ///< sample time when probes may begin
    int probes_passed = 0;
    std::uint64_t accepted = 0;
    std::uint64_t gated = 0;
#if RGE_OBS_ENABLED
    // Per-source metric handles (runtime names; the OBS_* macros bind a
    // single static name per site, so they cannot serve <src> suffixes).
    // The gauges sum over live estimators: a destroyed estimator takes
    // its share with it.
    obs::Counter c_gate_rejected;
    obs::GaugeShare g_r_eff;        ///< milli-(m/s)^2
    obs::GaugeShare g_health;       ///< permille
    obs::GaugeShare g_quarantined;  ///< 0/1
#endif
  };

  // Source s's filter is lane s, indexed with s itself. Keep the source
  // loops small enough to inline into push_imu: on an AVX-512 host an
  // out-of-line fused_state ran push_imu about 5x slower (DESIGN.md §8).
  ekf_kernel::StateRef filter(std::size_t s) {
    return {v_[s], th_[s], p00_[s], p01_[s], p11_[s]};
  }
  bool seeded(std::size_t s) const { return live_[s] != 0.0; }
  /// Like constructing GradeEkf(params, cfg.ekf, v0, 0.0) in lane s.
  void seed(std::size_t s, double v0);

  void on_detector_tick(double now);
  void finalize_sample(std::size_t j);
  void complete_excursion(std::size_t end_abs);
  BumpRec make_bump(std::size_t start_abs, std::size_t peak_abs,
                    double peak_mag, std::size_t end_abs, int sign) const;
  bool bump_qualifies(const BumpRec& b) const;
  bool pair_step(BumpRec& pending, const BumpRec& b,
                 DetectedLaneChange* out) const;
  void try_confirm(const DetectedLaneChange& lc);
  void rescan_reference();
  void speculate(double now, const BumpRec& partial);
  double duration_above_walk(std::size_t start_abs, std::size_t end_abs,
                             double peak_mag) const;
  double displacement_walk(std::size_t i0, std::size_t i1) const;
  double current_alpha(double t) const;
  /// The source's stream-clock gate (see push_imu's admission policy),
  /// then admit_velocity. Returns true if the EKF took the measurement.
  bool push_velocity(VelocitySource which, double t, double v);
  /// Defense pipeline for one measurement of source s whose timestamp was
  /// admitted: gate / health / quarantine-probe / bias learning / EKF
  /// update. Returns true if the measurement was applied to the EKF.
  bool admit_velocity(std::size_t s, double t, double v);
  void enter_quarantine(SourceFilter& src, double t);
  void readmit(SourceFilter& src);
  void learn_accel_bias(const SourceFilter& src, double t, double y);
  bool bias_consensus(double sign) const;
  double applied_accel_bias() const;
  // Always inlined into its callers (push_imu among them): an out-of-line
  // copy ran push_imu about 5x slower on an AVX-512 host (DESIGN.md §8),
  // so a change that keeps it out of line fails to compile instead.
  [[gnu::always_inline]] inline bool fused_state(double* v,
                                                 double* th) const;
  bool source_usable(std::size_t s) const;
  bool any_usable_source() const;
  void publish_source_gauges(SourceFilter& src);

  vehicle::VehicleParams params_;
  OnlineEstimatorConfig cfg_;

  // Alignment state (causal).
  double last_imu_t_ = 0.0;
  bool have_imu_ = false;
  double road_rate_ = 0.0;
  double gyro_bias_ = 0.0;
  math::EmaGain road_gain_;  ///< road-rate EMA (alignment.road_rate_tau_s)
  math::EmaGain bias_gain_;  ///< gyro-bias EMA (alignment.bias_tau_s)
  double target_rate_ = 0.0;
  double last_rate_update_t_ = -1e9;
  bool have_prev_fix_ = false;
  double prev_fix_heading_ = 0.0;
  double prev_fix_t_ = -1e9;

  // Detection ring at detector rate: raw steering rate, frozen smoothed
  // value, and speed. Samples up to (but excluding) next_finalize_abs_
  // have their smoothed value frozen and have been fed to the detector.
  std::size_t smoothing_half_;  ///< samples; from config at construction
  DetectionRing det_;
  std::size_t next_finalize_abs_ = 0;
  double next_det_t_ = 0.0;
  double latest_speed_meas_ = 0.0;

  // Incremental Algorithm 1 state (maintained in both detection modes;
  // it also drives the speculative correction).
  Excursion exc_;
  BumpRec pair_pending_;  ///< detect_lane_changes' `pending` bump
  BumpRec last_qual_;     ///< most recent qualified completed bump
  /// Zero-band sign class of the most recently evicted (finalized) sample.
  /// A non-zero value means the ring head may be the clipped tail of an
  /// excursion that started before the window; the reference re-scan skips
  /// that leading run so it never re-judges a bump with a truncated
  /// displacement integral (which can turn a rejected S-curve into a
  /// spurious lane change as the window slides).
  int evicted_class_ = 0;
  std::vector<DetectedLaneChange> lane_changes_;
  double confirmed_until_ = -1e9;  ///< maneuvers before this are final

  // Reference-mode scratch windows (reserved once, reused per tick).
  std::vector<double> scratch_t_, scratch_w_, scratch_v_;

  // Active lane-change correction state.
  double alpha_ = 0.0;
  bool alpha_active_ = false;
  double alpha_until_ = -1e9;

  // EKFs per source: source s (a VelocitySource) in lane s of these
  // arrays, its stream clock and defense state in sources_[s]. Lane 3 and
  // unseeded lanes hold zeros; live_ masks them out of the predict.
  static_assert(kVelocitySourceCount <= ekf_kernel::kLanes);
  alignas(32) double v_[ekf_kernel::kLanes] = {};
  alignas(32) double th_[ekf_kernel::kLanes] = {};
  alignas(32) double p00_[ekf_kernel::kLanes] = {};
  alignas(32) double p01_[ekf_kernel::kLanes] = {};
  alignas(32) double p11_[ekf_kernel::kLanes] = {};
  alignas(32) double live_[ekf_kernel::kLanes] = {};  ///< 1.0 = seeded
  ekf_kernel::SimdPredictConsts predict_consts_;
  std::array<SourceFilter, kVelocitySourceCount> sources_;
  double odometry_ = 0.0;
  /// Accel-bias estimate (m/s^2), written by the velocity-consensus
  /// learner or (preferred, when baro flows) the barometer anchor; stays
  /// 0 while defense (or bias compensation) is off, keeping the legacy
  /// path bit-identical.
  double accel_bias_ = 0.0;

  // Barometer anchoring state (defense-only accel-bias observer).
  bool have_baro_ = false;
  double last_baro_t_ = 0.0;
  double baro_smooth_ = 0.0;        ///< endpoint-EWMA altitude (m)
  bool baro_anchor_active_ = false;
  double baro_anchor_t_ = 0.0;
  double baro_anchor_alt_ = 0.0;
  double climb_pred_int_ = 0.0;  ///< sum v*sin(theta)*dt since anchor (m)
  double dist_int_ = 0.0;        ///< sum v*dt since anchor (m)
};

}  // namespace rge::core
