// Under RGE_SIMD=ON this translation unit is compiled with the host-tuned
// kernel flags plus -ffp-contract=off (see src/core/CMakeLists.txt), so
// the four-lane predict inlines into push_imu as one vector while every
// other expression keeps its exact libm-path bits (DESIGN.md §8).
#include "core/online_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>

#include "math/angles.hpp"
#include "obs/obs.hpp"

namespace rge::core {

namespace {

std::size_t ring_capacity(const OnlineEstimatorConfig& cfg,
                          std::size_t smoothing_half) {
  const double per_buffer =
      std::max(1.0, cfg.detector_buffer_s * cfg.detector_rate_hz);
  return static_cast<std::size_t>(per_buffer) + 2 * smoothing_half + 8;
}

std::size_t smoothing_half_samples(const OnlineEstimatorConfig& cfg) {
  return static_cast<std::size_t>(
      std::max(1.0, cfg.smoothing_half_window_s * cfg.detector_rate_hz));
}

/// extract_bumps' zero-band sign classification of a smoothed sample.
int sign_class(double w, double zero_band) {
  return w > zero_band ? 1 : (w < -zero_band ? -1 : 0);
}

/// Non-finite samples are rejected at the API boundary: a NaN timestamp
/// would poison last_imu_t_ (NaN compares false against everything, so
/// the monotonicity guard silently disarms) and a NaN payload poisons the
/// EKF state and every estimate after it. Found by the hostile-world
/// scenario fuzzer driving NaN-spiked traces through the streaming path.
bool finite_imu_sample(const sensors::ImuSample& s) {
  return std::isfinite(s.t) && std::isfinite(s.accel_forward) &&
         std::isfinite(s.accel_lateral) && std::isfinite(s.accel_vertical) &&
         std::isfinite(s.gyro_z);
}

bool finite_gps_fix(const sensors::GpsFix& f) {
  return std::isfinite(f.t) && std::isfinite(f.speed_mps) &&
         std::isfinite(f.heading_rad);
}

}  // namespace

void OnlineGradientEstimator::DetectionRing::grow() {
  const std::size_t new_cap = cap_ * 2;
  std::vector<double> t(new_cap), w_raw(new_cap), w_smooth(new_cap), v(new_cap);
  for (std::size_t abs = first_abs_; abs < first_abs_ + size_; ++abs) {
    const std::size_t from = slot(abs);
    const std::size_t to = abs & (new_cap - 1);
    t[to] = t_[from];
    w_raw[to] = w_raw_[from];
    w_smooth[to] = w_smooth_[from];
    v[to] = v_[from];
  }
  t_ = std::move(t);
  w_raw_ = std::move(w_raw);
  w_smooth_ = std::move(w_smooth);
  v_ = std::move(v);
  cap_ = new_cap;
}

OnlineGradientEstimator::OnlineGradientEstimator(
    const vehicle::VehicleParams& params, const OnlineEstimatorConfig& config)
    : params_(params),
      cfg_(config),
      road_gain_{config.alignment.road_rate_tau_s},
      bias_gain_{config.alignment.bias_tau_s},
      smoothing_half_(smoothing_half_samples(config)),
      det_(ring_capacity(config, smoothing_half_samples(config))),
      // rho * A_f * C_d / m  (Eq. 4 coefficient; drag_k = rho*A_f*C_d/2)
      predict_consts_{params.gravity,
                      1.0 / params.gravity,
                      2.0 * params.drag_k() / params.mass_kg,
                      config.ekf.use_paper_drift_term ? 1.0 : 0.0,
                      config.ekf.accel_sigma,
                      config.ekf.grade_process_psd},
      sources_{SourceFilter{"gps", 0.09}, SourceFilter{"speedometer", 0.16},
               SourceFilter{"canbus", 0.01}} {
  // Reference-mode windows are bounded by the ring size; reserving here
  // keeps the per-tick re-scan allocation-free too (its inner calls into
  // detect_lane_changes still allocate — that's the mode's cost).
  const std::size_t cap = ring_capacity(config, smoothing_half_);
  scratch_t_.reserve(cap);
  scratch_w_.reserve(cap);
  scratch_v_.reserve(cap);
}

OnlineGradientEstimator::SourceFilter::SourceFilter(const char* source_name,
                                                    double variance)
    : variance(variance)
#if RGE_OBS_ENABLED
      ,
      c_gate_rejected(std::string("online.gate_rejected.") + source_name),
      g_r_eff(std::string("online.r_eff.") + source_name),
      g_health(std::string("online.health.") + source_name),
      g_quarantined(std::string("online.quarantined.") + source_name)
#endif
{
  (void)source_name;
}

void OnlineGradientEstimator::seed(std::size_t s, double v0) {
  v_[s] = v0;
  th_[s] = 0.0;
  p00_[s] = cfg_.ekf.initial_speed_var;
  p01_[s] = 0.0;
  p11_[s] = cfg_.ekf.initial_grade_var;
  live_[s] = 1.0;
}

void OnlineGradientEstimator::publish_source_gauges(SourceFilter& src) {
#if RGE_OBS_ENABLED
  if (!obs::enabled()) return;
  src.g_r_eff.set(std::llround(src.r_eff * 1000.0));
  src.g_health.set(std::llround(src.health * 1000.0));
#else
  (void)src;
#endif
}

void OnlineGradientEstimator::enter_quarantine(SourceFilter& src, double t) {
  src.quarantined = true;
  src.probe_open_t = t + cfg_.defense.readmit_after_s;
  src.probes_passed = 0;
#if RGE_OBS_ENABLED
  if (obs::enabled()) src.g_quarantined.set(1);
#endif
}

void OnlineGradientEstimator::readmit(SourceFilter& src) {
  src.quarantined = false;
  src.probes_passed = 0;
  // Probation, not a clean slate: health resumes from the midpoint and
  // the innovation window restarts neutral.
  src.health = 0.5;
  src.nis_ewma = 1.0;
  src.bias_ewma = 0.0;
#if RGE_OBS_ENABLED
  if (obs::enabled()) src.g_quarantined.set(0);
#endif
}

bool OnlineGradientEstimator::bias_consensus(double sign) const {
  // >= 2 seeded healthy sources biased the same way means the common
  // cause is the IMU (with a single seeded source, that source is all
  // the evidence there is).
  int n_seeded = 0;
  int n_agree = 0;
  for (std::size_t s = 0; s < kVelocitySourceCount; ++s) {
    if (!source_usable(s)) continue;
    ++n_seeded;
    if (sign * sources_[s].bias_ewma >= cfg_.defense.bias_engage_sigma) {
      ++n_agree;
    }
  }
  return n_seeded <= 1 ? n_agree >= 1 : n_agree >= 2;
}

void OnlineGradientEstimator::learn_accel_bias(const SourceFilter& src,
                                               double t, double y) {
  const OnlineDefenseConfig& d = cfg_.defense;
  if (!d.compensate_accel_bias || !src.has_accept_t) return;
  // Once the barometer anchor is live it owns the estimate: velocity
  // innovations cannot separate bias from grade (the filter absorbs a
  // ramp into theta), and this learner's decay-toward-zero would erase
  // what the anchor learned.
  if (d.baro_anchor && baro_anchor_active_) return;
  const double dt_m = t - src.last_accept_t;
  if (dt_m < d.bias_obs_min_dt_s || dt_m > d.bias_obs_max_dt_s) return;
  // The innovation accumulated over dt under an un-modeled forward-accel
  // bias b is y ~ -b*dt. Track it only on cross-source consensus; a
  // single-source bias is the sensor's problem (health handles it), not
  // the IMU's — otherwise decay the estimate back toward zero.
  const bool engaged = std::abs(src.bias_ewma) >= d.bias_engage_sigma &&
                       bias_consensus(src.bias_ewma < 0.0 ? -1.0 : 1.0);
  const double b_obs =
      engaged ? std::clamp(-y / dt_m, -d.accel_bias_max_mps2,
                           d.accel_bias_max_mps2)
              : 0.0;
  const double a = 1.0 - std::exp(-dt_m / d.accel_bias_tau_s);
  accel_bias_ += a * (b_obs - accel_bias_);
}

bool OnlineGradientEstimator::admit_velocity(std::size_t s, double t,
                                             double v) {
  const OnlineDefenseConfig& d = cfg_.defense;
  SourceFilter& src = sources_[s];
  if (!seeded(s)) {
    // First measurement seeds the filter; there is no prediction to gate
    // against yet.
    seed(s, v);
    src.last_t = t;
    src.has_t = true;
    src.last_accept_t = t;
    src.has_accept_t = true;
    ++src.accepted;
    return true;
  }
  if (!d.enabled) {  // trusting legacy path
    src.last_t = t;
    src.has_t = true;
    ekf_kernel::update_velocity(filter(s), v, src.variance,
                                cfg_.ekf.gate_nis);
    src.last_accept_t = t;
    src.has_accept_t = true;
    ++src.accepted;
    return true;
  }

  const double p00 = p00_[s];
  const double y = v - v_[s];
  const double s_base = p00 + src.variance;
  const double gate2 = d.gate_nsigma * d.gate_nsigma;

  if (src.quarantined) {
    // Measurements are consumed by the probe machine only: the stream
    // clock advances (replay protection stays live) but nothing reaches
    // the EKF until readmit_probes consecutive neutral-gate passes, each
    // after the hold expires. p00 grows while no updates land, so the
    // probe gate widens with quarantine age.
    src.last_t = t;
    src.has_t = true;
    if (t < src.probe_open_t) return false;
    if (y * y > gate2 * s_base) {
      src.probes_passed = 0;
      src.probe_open_t = t + d.readmit_after_s;  // failed probe re-arms
      return false;
    }
    if (++src.probes_passed < d.readmit_probes) return false;
    readmit(src);
    // The readmitting probe itself is applied as a normal update below.
  }

  // Adaptive effective measurement noise (the ekf_servo pattern):
  // sustained large-but-plausible innovations inflate R_eff — the gate
  // widens instead of starving the filter — and degraded health
  // down-weights the source.
  const double infl = std::clamp(src.nis_ewma, 1.0, d.r_inflation_max);
  src.r_eff =
      src.variance * infl / std::max(src.health, d.min_health_weight);
  const bool pass = y * y <= gate2 * (p00 + src.r_eff);

  // Window statistics track every measurement the gate sees, capped so a
  // single insane outlier cannot blow the window open for the next one.
  const double nis_raw = y * y / s_base;
  src.nis_ewma +=
      d.nis_ewma_alpha * (std::min(nis_raw, d.nis_cap) - src.nis_ewma);
  const double sigma = std::sqrt(s_base);
  src.bias_ewma +=
      d.bias_ewma_alpha *
      (std::clamp(y / sigma, -d.bias_cap_sigma, d.bias_cap_sigma) -
       src.bias_ewma);

  if (!pass) {
    ++src.gated;
#if RGE_OBS_ENABLED
    if (obs::enabled()) src.c_gate_rejected.add(1);
#endif
    src.health *= 1.0 - d.health_penalty_reject;
    publish_source_gauges(src);
    if (src.health < d.quarantine_below) enter_quarantine(src, t);
    // NOT consumed: the stream clock stays put so a legitimate
    // measurement at this same epoch still gets its chance.
    return false;
  }

  src.health += d.health_recover * (1.0 - src.health);
  const double bias_excess =
      std::abs(src.bias_ewma) - d.bias_tolerance_sigma;
  if (bias_excess > 0.0) {
    // A source can drift inside the gate (stuck-at during gentle speed
    // changes); sustained innovation bias bleeds health even without
    // rejections.
    src.health =
        std::max(0.0, src.health - d.health_penalty_bias * bias_excess);
  }
  learn_accel_bias(src, t, y);
  src.last_t = t;
  src.has_t = true;
  ekf_kernel::update_velocity(filter(s), v, src.r_eff, cfg_.ekf.gate_nis);
  src.last_accept_t = t;
  src.has_accept_t = true;
  ++src.accepted;
  publish_source_gauges(src);
  if (src.health < d.quarantine_below) enter_quarantine(src, t);
  return true;
}

void OnlineGradientEstimator::push_gps(const sensors::GpsFix& fix) {
  if (!finite_gps_fix(fix)) {
    OBS_COUNT("online.rejected_nonfinite", 1);
    return;
  }
  if (!fix.valid) {
    OBS_COUNT("online.rejected_invalid", 1);
    have_prev_fix_ = false;
    return;
  }
  if (!push_velocity(VelocitySource::kGps, fix.t, fix.speed_mps)) return;
  // Heading chain and speed cache follow only measurements that were
  // actually applied: a gated (spoofed) fix must not steer the alignment.
  if (have_prev_fix_ && fix.t - prev_fix_t_ <= 3.0 && fix.t > prev_fix_t_) {
    target_rate_ =
        math::angle_diff(fix.heading_rad, prev_fix_heading_) /
        (fix.t - prev_fix_t_);
    last_rate_update_t_ = fix.t;
  }
  prev_fix_heading_ = fix.heading_rad;
  prev_fix_t_ = fix.t;
  have_prev_fix_ = true;
  latest_speed_meas_ = fix.speed_mps;
}

void OnlineGradientEstimator::push_speedometer(double t, double speed_mps) {
  if (!std::isfinite(t) || !std::isfinite(speed_mps)) {
    OBS_COUNT("online.rejected_nonfinite", 1);
    return;
  }
  if (push_velocity(VelocitySource::kSpeedometer, t, speed_mps)) {
    latest_speed_meas_ = speed_mps;
  }
}

void OnlineGradientEstimator::push_canbus(double t, double speed_mps) {
  if (!std::isfinite(t) || !std::isfinite(speed_mps)) {
    OBS_COUNT("online.rejected_nonfinite", 1);
    return;
  }
  if (push_velocity(VelocitySource::kCanbus, t, speed_mps)) {
    latest_speed_meas_ = speed_mps;
  }
}

bool OnlineGradientEstimator::push_velocity(VelocitySource which, double t,
                                            double v) {
  const auto s = static_cast<std::size_t>(which);
  const SourceFilter& src = sources_[s];
  if (src.has_t && t == src.last_t) {
    OBS_COUNT("online.rejected_duplicate_t", 1);
    return false;
  }
  if (src.has_t && t < src.last_t) {
    OBS_COUNT("online.rejected_nonmonotonic", 1);
    return false;
  }
  return admit_velocity(s, t, v);
}

void OnlineGradientEstimator::push_baro(double t, double altitude_m) {
  if (!std::isfinite(t) || !std::isfinite(altitude_m)) {
    OBS_COUNT("online.rejected_nonfinite", 1);
    return;
  }
  if (have_baro_ && t <= last_baro_t_) {
    OBS_COUNT("online.rejected_nonmonotonic", 1);
    return;
  }
  // Endpoint smoothing: metre-level white noise on single samples would
  // dominate the window differential; a short EWMA lags equally at both
  // endpoints, so the lag cancels in the difference under steady climb.
  if (!have_baro_) {
    baro_smooth_ = altitude_m;
    have_baro_ = true;
  } else {
    const double dt = t - last_baro_t_;
    const double a = 1.0 - std::exp(-dt / cfg_.defense.baro_smooth_tau_s);
    baro_smooth_ += a * (altitude_m - baro_smooth_);
  }
  last_baro_t_ = t;

  const OnlineDefenseConfig& d = cfg_.defense;
  if (!d.enabled || !d.compensate_accel_bias || !d.baro_anchor) return;
  if (!baro_anchor_active_) {
    // Anchoring needs a climb prediction, i.e. at least one seeded filter.
    double v = 0.0;
    double th = 0.0;
    if (!fused_state(&v, &th)) return;
    baro_anchor_active_ = true;
    baro_anchor_t_ = t;
    baro_anchor_alt_ = baro_smooth_;
    climb_pred_int_ = 0.0;
    dist_int_ = 0.0;
    return;
  }
  const double span = t - baro_anchor_t_;
  if (span < d.baro_window_s) return;
  // A positive bias inflates theta-hat, so the predicted climb overshoots
  // the measured one: err > 0 means the filter believes it climbed more
  // than the barometer saw, and err/distance is the absorbed grade error.
  const double err = climb_pred_int_ - (baro_smooth_ - baro_anchor_alt_);
  if (dist_int_ >= d.baro_min_speed_mps * span) {
    // b_obs measures the *residual* bias (the prediction already ran on
    // compensated f), so it increments the estimate rather than
    // replacing it.
    const double b_obs =
        std::clamp(params_.gravity * err / dist_int_, -d.accel_bias_max_mps2,
                   d.accel_bias_max_mps2);
    const double a = 1.0 - std::exp(-span / d.accel_bias_tau_s);
    accel_bias_ = std::clamp(accel_bias_ + a * b_obs, -d.accel_bias_max_mps2,
                             d.accel_bias_max_mps2);
  }
  baro_anchor_t_ = t;
  baro_anchor_alt_ = baro_smooth_;
  climb_pred_int_ = 0.0;
  dist_int_ = 0.0;
}

double OnlineGradientEstimator::current_alpha(double t) const {
  return alpha_active_ && t <= alpha_until_ ? alpha_ : 0.0;
}

bool OnlineGradientEstimator::source_usable(std::size_t s) const {
  return seeded(s) && !sources_[s].quarantined;
}

bool OnlineGradientEstimator::any_usable_source() const {
  for (std::size_t s = 0; s < kVelocitySourceCount; ++s) {
    if (source_usable(s)) return true;
  }
  return false;
}

bool OnlineGradientEstimator::fused_state(double* v, double* th) const {
  // Speed and grade of the lowest-grade-variance fused filter (first
  // source wins ties, in gps/speedometer/canbus order): odometry, the
  // baro integrals and estimate()'s speed all use this one selection.
  // Quarantined sources are excluded unless every seeded source is
  // quarantined (see OnlineEstimate::sources_fused_mask). Leaves *v and
  // *th untouched and returns false when no filter is seeded.
  const bool all_quarantined = !any_usable_source();
  double best_var = 0.0;
  bool any = false;
  for (std::size_t s = 0; s < kVelocitySourceCount; ++s) {
    if (!seeded(s)) continue;
    if (sources_[s].quarantined && !all_quarantined) continue;
    const double var = p11_[s];
    if (!any || var < best_var) {
      any = true;
      best_var = var;
      *v = v_[s];
      *th = th_[s];
    }
  }
  return any;
}

double OnlineGradientEstimator::applied_accel_bias() const {
  const OnlineDefenseConfig& d = cfg_.defense;
  if (!d.enabled || !d.compensate_accel_bias) return 0.0;
  const double mag = std::abs(accel_bias_) - d.bias_deadband_mps2;
  if (mag <= 0.0) return 0.0;
  return accel_bias_ > 0.0 ? mag : -mag;
}

void OnlineGradientEstimator::push_imu(const sensors::ImuSample& sample) {
  if (!finite_imu_sample(sample)) {
    OBS_COUNT("online.rejected_nonfinite", 1);
    return;
  }
  if (have_imu_ && sample.t <= last_imu_t_) {
    OBS_COUNT("online.rejected_nonmonotonic", 1);
    return;
  }
  const std::int64_t obs_t0 = obs::enabled() ? obs::trace_now_ns() : -1;
  const double dt = have_imu_ ? sample.t - last_imu_t_ : 0.0;
  last_imu_t_ = sample.t;
  have_imu_ = true;

  // ---- causal alignment -------------------------------------------
  double gyro = sample.gyro_z;
  if (cfg_.alignment.remove_spikes) {
    gyro = std::clamp(gyro, -cfg_.alignment.spike_threshold,
                      cfg_.alignment.spike_threshold);
  }
  const bool fresh = sample.t - last_rate_update_t_ < 3.0;
  const double target = fresh ? target_rate_ : 0.0;
  if (dt > 0.0) road_rate_ += road_gain_(dt) * (target - road_rate_);
  const double raw_steer = gyro - road_rate_ - gyro_bias_;
  if (cfg_.alignment.remove_bias && dt > 0.0 &&
      std::abs(raw_steer) < 0.08) {
    gyro_bias_ += bias_gain_(dt) * (gyro - road_rate_ - gyro_bias_);
  }
  const double steer = gyro - road_rate_ - gyro_bias_;

  // ---- lane-change correction state --------------------------------
  if (alpha_active_) {
    if (sample.t > alpha_until_) {
      alpha_active_ = false;
      alpha_ = 0.0;
    } else {
      alpha_ += steer * dt;
    }
  }

  // ---- adjusted specific force -> EKF predict ----------------------
  // Accel-bias compensation applies to the raw forward axis, before the
  // lane-change projection; applied_accel_bias() is exactly 0.0 while
  // the defense layer is off (and inside the deadband), keeping that
  // path bit-identical.
  double f = sample.accel_forward - applied_accel_bias();
  const double alpha = current_alpha(sample.t);
  if (alpha != 0.0) {
    const double sa = std::sin(alpha);
    f = f * std::cos(alpha) - latest_speed_meas_ * steer * sa -
        params_.gravity * cfg_.assumed_road_crown * sa;
  }

  if (dt > 0.0) {
    // One predict steps every seeded source filter.
    ekf_kernel::predict_lanes(v_, th_, p00_, p01_, p11_, live_, f, dt,
                              predict_consts_);
    // With no seeded filter the fused speed is 0: odometry stands still.
    double v_f = 0.0;
    double th_f = 0.0;
    const bool fused = fused_state(&v_f, &th_f);
    odometry_ += v_f * dt;
    if (baro_anchor_active_ && fused) {
      climb_pred_int_ += v_f * std::sin(th_f) * dt;
      dist_int_ += v_f * dt;
    }
  }

  // ---- detection buffer at the detector rate -----------------------
  if (sample.t >= next_det_t_) {
    next_det_t_ = sample.t + 1.0 / cfg_.detector_rate_hz;
    det_.push_back(sample.t, steer, latest_speed_meas_);
    // Evict by age, but never a sample the detection machine still
    // references: the active excursion, and a pending bump that can
    // still pair (its gap deadline has not passed, or an excursion that
    // started inside the deadline is still unfolding). Without this the
    // sliding window clips a live bump mid-excursion — the displacement
    // integral of a rejected S-curve then shrinks tick by tick until it
    // sneaks under the lane-change threshold (and the partial-bump
    // ring indices would alias recycled slots).
    std::size_t protect = det_.end();
    if (exc_.active) protect = std::min(protect, exc_.start_abs);
    if (pair_pending_.valid) {
      const double deadline =
          pair_pending_.t_end + cfg_.detector.max_bump_gap_s;
      const bool alive =
          sample.t <= deadline ||
          (exc_.active && det_.t(exc_.start_abs) <= deadline);
      if (alive) protect = std::min(protect, pair_pending_.start_abs);
    }
    while (!det_.empty() && det_.first() < protect &&
           sample.t - det_.t(det_.first()) > cfg_.detector_buffer_s) {
      const std::size_t first = det_.first();
      evicted_class_ =
          first < next_finalize_abs_
              ? sign_class(det_.w_smooth(first), cfg_.detector.bump.zero_band)
              : 0;
      det_.pop_front();
    }
    // A pathologically short buffer could evict not-yet-finalized
    // samples; never let the finalize cursor point before the ring.
    next_finalize_abs_ = std::max(next_finalize_abs_, det_.first());
    on_detector_tick(sample.t);
  }

  if (obs_t0 >= 0) {
    OBS_OBSERVE("online.push_imu_us",
                static_cast<double>(obs::trace_now_ns() - obs_t0) / 1000.0,
                obs::latency_bounds_us());
  }
}

void OnlineGradientEstimator::on_detector_tick(double now) {
  OBS_COUNT("online.det_ticks", 1);
  const std::size_t newest = det_.end() - 1;

  // Freeze the smoothed value of (and feed the detector) every sample
  // whose full smoothing half-window of later samples has arrived.
  while (next_finalize_abs_ + smoothing_half_ <= newest) {
    finalize_sample(next_finalize_abs_);
    ++next_finalize_abs_;
  }

  // The trailing in-progress excursion, exactly as a full re-scan's
  // extract_bumps would report it (end = last finalized sample).
  BumpRec partial;
  if (exc_.active && next_finalize_abs_ > det_.first()) {
    partial = make_bump(exc_.start_abs, exc_.peak_abs, exc_.peak_mag,
                        next_finalize_abs_ - 1, exc_.sign);
  }

  if (!cfg_.incremental_detection) {
    rescan_reference();
  } else if (partial.valid && bump_qualifies(partial)) {
    // The re-scan also pairs against the still-unfolding second bump and
    // can confirm a maneuver early. Simulate that against a *copy* of the
    // pairing state: transitions caused by a partial bump must not stick
    // (the re-scan recomputes them from scratch every tick).
    BumpRec pending_copy = pair_pending_;
    DetectedLaneChange lc;
    if (pair_step(pending_copy, partial, &lc)) try_confirm(lc);
  }

  speculate(now, partial);
}

void OnlineGradientEstimator::finalize_sample(std::size_t j) {
  // Frozen smoothed value: full centered window. The lower clamp only
  // binds in the first half-window of the stream (and, defensively, if a
  // short buffer evicted into the window).
  const std::size_t lo =
      std::max(det_.first(), j >= smoothing_half_ ? j - smoothing_half_ : 0);
  const std::size_t hi = j + smoothing_half_;
  double acc = 0.0;
  for (std::size_t k = lo; k <= hi; ++k) acc += det_.w_raw(k);
  const double w = acc / static_cast<double>(hi - lo + 1);
  det_.set_w_smooth(j, w);
  OBS_COUNT("online.det_samples_finalized", 1);

  // Excursion tracker: extract_bumps' scan, one sample at a time.
  const double zb = cfg_.detector.bump.zero_band;
  const int cls = w > zb ? 1 : (w < -zb ? -1 : 0);
  if (exc_.active) {
    if (cls == exc_.sign) {
      const double mag = std::abs(w);
      if (mag > exc_.peak_mag) {
        exc_.peak_mag = mag;
        exc_.peak_abs = j;
      }
      return;
    }
    complete_excursion(j - 1);
  }
  if (cls != 0) {
    exc_.active = true;
    exc_.sign = cls;
    exc_.start_abs = j;
    exc_.peak_abs = j;
    exc_.peak_mag = std::abs(w);
  }
}

void OnlineGradientEstimator::complete_excursion(std::size_t end_abs) {
  const BumpRec b =
      make_bump(exc_.start_abs, exc_.peak_abs, exc_.peak_mag, end_abs,
                exc_.sign);
  exc_.active = false;
  if (!bump_qualifies(b)) return;
  last_qual_ = b;
  OBS_COUNT("online.qualified_bumps", 1);
  DetectedLaneChange lc;
  const bool emitted = pair_step(pair_pending_, b, &lc);
  if (emitted && cfg_.incremental_detection) try_confirm(lc);
}

OnlineGradientEstimator::BumpRec OnlineGradientEstimator::make_bump(
    std::size_t start_abs, std::size_t peak_abs, double peak_mag,
    std::size_t end_abs, int sign) const {
  BumpRec b;
  b.valid = true;
  b.start_abs = start_abs;
  b.peak_abs = peak_abs;
  b.end_abs = end_abs;
  b.t_start = det_.t(start_abs);
  b.t_peak = det_.t(peak_abs);
  b.t_end = det_.t(end_abs);
  b.delta = peak_mag;
  b.sign = sign;
  b.duration_above = duration_above_walk(start_abs, end_abs, peak_mag);
  return b;
}

bool OnlineGradientEstimator::bump_qualifies(const BumpRec& b) const {
  return b.delta >= cfg_.detector.bump.delta_min &&
         b.duration_above >= cfg_.detector.bump.t_min;
}

double OnlineGradientEstimator::duration_above_walk(std::size_t start_abs,
                                                    std::size_t end_abs,
                                                    double peak_mag) const {
  // Mirrors extract_bumps' trapezoid-half weighting exactly.
  OBS_COUNT("online.det_scan_samples",
            static_cast<std::int64_t>(end_abs - start_abs + 1));
  const double level = cfg_.detector.bump.level_fraction * peak_mag;
  double above = 0.0;
  for (std::size_t j = start_abs; j <= end_abs; ++j) {
    if (std::abs(det_.w_smooth(j)) >= level) {
      const double dt_left =
          j > start_abs ? 0.5 * (det_.t(j) - det_.t(j - 1)) : 0.0;
      const double dt_right =
          j < end_abs ? 0.5 * (det_.t(j + 1) - det_.t(j)) : 0.0;
      above += dt_left + dt_right;
    }
  }
  return above;
}

double OnlineGradientEstimator::displacement_walk(std::size_t i0,
                                                  std::size_t i1) const {
  // Mirrors horizontal_displacement (Eq. 1) exactly.
  OBS_COUNT("online.det_scan_samples", static_cast<std::int64_t>(i1 - i0 + 1));
  double alpha = 0.0;
  double w = 0.0;
  for (std::size_t i = i0; i <= i1; ++i) {
    const double omega =
        i > i0 ? det_.t(i) - det_.t(i - 1)
               : (i + 1 <= i1 ? det_.t(i + 1) - det_.t(i) : 0.0);
    alpha += det_.w_smooth(i) * omega;
    w += det_.v(i) * omega * std::sin(alpha);
  }
  return w;
}

bool OnlineGradientEstimator::pair_step(BumpRec& pending, const BumpRec& b,
                                        DetectedLaneChange* out) const {
  // detect_lane_changes' state transition for one qualified bump. Every
  // branch except a successful pair makes `b` the new pending bump.
  if (!pending.valid || b.sign == pending.sign ||
      b.t_start - pending.t_end > cfg_.detector.max_bump_gap_s) {
    pending = b;
    return false;
  }
  const double w = displacement_walk(pending.start_abs, b.end_abs);
  if (std::abs(w) <= 3.0 * cfg_.detector.lane_width_m) {
    out->t_start = pending.t_start;
    out->t_end = b.t_end;
    out->type =
        pending.sign > 0 ? LaneChangeType::kLeft : LaneChangeType::kRight;
    out->displacement_m = w;
    out->peak_rate = std::max(pending.delta, b.delta);
    pending.valid = false;
    return true;
  }
  pending = b;  // S-curve geometry: keep the newer bump pending
  return false;
}

void OnlineGradientEstimator::try_confirm(const DetectedLaneChange& lc) {
  // The detector re-reports a maneuver with jittering bounds while its
  // window evolves; only a maneuver that *starts* after the last
  // confirmed one ended is genuinely new.
  if (lc.t_start <= confirmed_until_) return;
  lane_changes_.push_back(lc);
  confirmed_until_ = lc.t_end;
  OBS_COUNT("online.lane_changes_confirmed", 1);
  // A confirmed maneuver supersedes the speculative correction: the EKF
  // inputs from here on are post-maneuver, so retire alpha instead of
  // letting alpha_until_ keep extending past the confirmation.
  alpha_active_ = false;
  alpha_ = 0.0;
}

void OnlineGradientEstimator::rescan_reference() {
  std::size_t first = det_.first();
  if (next_finalize_abs_ <= first) return;
  const std::size_t last = next_finalize_abs_ - 1;
  // If the window head is the clipped tail of an evicted excursion, skip
  // that leading run: a truncated bump must never be re-judged (its
  // shortened Eq. 1 integral could pass the displacement gate that the
  // full bump failed).
  if (evicted_class_ != 0) {
    const double zb = cfg_.detector.bump.zero_band;
    while (first <= last &&
           sign_class(det_.w_smooth(first), zb) == evicted_class_) {
      ++first;
    }
    if (first > last) return;
  }
  scratch_t_.clear();
  scratch_w_.clear();
  scratch_v_.clear();
  for (std::size_t k = first; k <= last; ++k) {
    scratch_t_.push_back(det_.t(k));
    scratch_w_.push_back(det_.w_smooth(k));
    scratch_v_.push_back(det_.v(k));
  }
  OBS_COUNT("online.det_scan_samples",
            static_cast<std::int64_t>(last - first + 1));
  const auto detected =
      detect_lane_changes(scratch_t_, scratch_w_, scratch_v_, cfg_.detector);
  for (const auto& lc : detected) try_confirm(lc);
}

void OnlineGradientEstimator::speculate(double now, const BumpRec& partial) {
  // Speculative correction: if a qualified bump is pending (possible
  // first half of a maneuver), integrate alpha from its start so the EKF
  // inputs are corrected while the maneuver is still unfolding. The
  // candidate is the last qualified bump — the trailing excursion if it
  // already qualifies, else the most recent completed one.
  BumpRec cand;
  if (partial.valid && bump_qualifies(partial) &&
      partial.t_start > confirmed_until_) {
    cand = partial;
  } else if (last_qual_.valid && last_qual_.t_start > confirmed_until_) {
    cand = last_qual_;
  }
  if (!cand.valid) return;
  if (now - cand.t_end > cfg_.detector.max_bump_gap_s) return;
  if (!alpha_active_) {
    // Recompute alpha over [bump start, now] from the raw buffer.
    double acc = 0.0;
    const std::size_t newest = det_.end() - 1;
    const std::size_t begin = std::max(cand.start_abs + 1, det_.first() + 1);
    for (std::size_t i = begin; i <= newest; ++i) {
      acc += det_.w_raw(i) * (det_.t(i) - det_.t(i - 1));
    }
    alpha_ = acc;
    alpha_active_ = true;
    OBS_COUNT("online.alpha_activations", 1);
  }
  alpha_until_ = now + cfg_.detector.max_bump_gap_s;
}

OnlineEstimate OnlineGradientEstimator::estimate() const {
  OnlineEstimate out;
  out.t = last_imu_t_;
  out.odometry_m = odometry_;
  out.in_lane_change = alpha_active_;
  out.lane_changes_detected = lane_changes_.size();

  const bool all_quarantined = !any_usable_source();
  std::array<double, kVelocitySourceCount> grades{};
  std::array<double, kVelocitySourceCount> variances{};
  std::size_t n = 0;
  std::uint8_t bit = 1;
  for (std::size_t s = 0; s < kVelocitySourceCount; ++s) {
    const bool quarantined = sources_[s].quarantined;
    if (seeded(s)) {
      if (quarantined) out.sources_quarantined_mask |= bit;
      if (!quarantined || all_quarantined) {
        out.sources_fused_mask |= bit;
        grades[n] = th_[s];
        variances[n] = p11_[s];
        ++n;
      }
    }
    bit = static_cast<std::uint8_t>(bit << 1);
  }
  if (n == 0) return out;
  const auto [g, p] =
      convex_combine(std::span(grades).first(n),
                     std::span(variances).first(n), cfg_.fusion.min_variance);
  out.grade_rad = g;
  out.grade_var = p;
  // Speed: same weights would be wrong (different variances); use the
  // speed of the lowest-grade-variance filter.
  double theta = 0.0;
  fused_state(&out.speed_mps, &theta);
  return out;
}

SourceDiagnostics OnlineGradientEstimator::source_diagnostics(
    VelocitySource which) const {
  const auto s = static_cast<std::size_t>(which);
  const SourceFilter& src = sources_.at(s);
  SourceDiagnostics d;
  d.seeded = seeded(s);
  d.quarantined = src.quarantined;
  d.health = src.health;
  d.nis_ewma = src.nis_ewma;
  d.bias_ewma = src.bias_ewma;
  d.r_eff = src.r_eff;
  d.accepted = src.accepted;
  d.gate_rejected = src.gated;
  return d;
}

}  // namespace rge::core
