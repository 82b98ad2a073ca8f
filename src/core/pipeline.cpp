#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "math/interp_batch.hpp"
#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"

namespace rge::core {

namespace {

/// Full pipeline over one trace. The causal per-source EKFs run as the
/// lanes of one trip-kernel call. When `pool` is non-null the per-source
/// RTS smoothers fan out as nested pool tasks; each writes only its own
/// track slot, so the output is bit-identical to the serial path.
PipelineResult estimate_gradient_impl(const sensors::SensorTrace& trace,
                                      const vehicle::VehicleParams& params,
                                      const PipelineConfig& config,
                                      runtime::ThreadPool* pool,
                                      runtime::StageMetrics* metrics) {
  if (trace.imu.empty()) {
    throw std::invalid_argument("estimate_gradient: empty trace");
  }
  if (!config.use_gps && !config.use_speedometer && !config.use_canbus &&
      !config.use_imu) {
    throw std::invalid_argument(
        "estimate_gradient: all velocity sources disabled");
  }

  OBS_SPAN("pipeline.trip");
  OBS_COUNT("pipeline.trips", 1);
  OBS_COUNT("pipeline.imu_samples",
            static_cast<std::int64_t>(trace.imu.size()));

  PipelineResult result;

  // ---- 0. Input sanitization ------------------------------------------
  // Clean traces pass through untouched (one scan, no copy); dirty traces
  // are copied once with the poisoned samples dropped. Reject cleanly if
  // nothing usable remains.
  const sensors::SensorTrace* active = &trace;
  sensors::SensorTrace sanitized;
  if (config.sanitize_input && !sensors::trace_is_clean(trace)) {
    sanitized = trace;
    result.sanitize = sensors::sanitize_trace(sanitized);
    OBS_COUNT("pipeline.sanitizer.dropped_imu",
              static_cast<std::int64_t>(result.sanitize.dropped_imu));
    OBS_COUNT("pipeline.sanitizer.dropped_gps",
              static_cast<std::int64_t>(result.sanitize.dropped_gps));
    OBS_COUNT("pipeline.sanitizer.dropped_scalar",
              static_cast<std::int64_t>(result.sanitize.dropped_scalar));
    OBS_COUNT("pipeline.sanitizer.dropped_unordered",
              static_cast<std::int64_t>(result.sanitize.dropped_unordered));
    if (sanitized.imu.empty()) {
      throw std::invalid_argument(
          "estimate_gradient: no usable IMU samples after sanitization");
    }
    active = &sanitized;
  }

  // ---- 0/1. Mount auto-calibration + alignment -----------------------
  sensors::SensorTrace corrected;
  {
    const runtime::ScopedTimer timer(metrics ? &metrics->align_ns : nullptr);
    OBS_SPAN("pipeline.align");
    if (config.auto_calibrate_mount) {
      result.mount = calibrate_mount(*active, config.mount);
      if (result.mount.reliable &&
          std::abs(result.mount.yaw_rad) > 0.005) {
        corrected = derotate_imu(*active, result.mount.yaw_rad);
        active = &corrected;
      }
    }
    result.aligned = align_states(*active, config.alignment);
  }
  const auto& aligned = result.aligned;

  // ---- 2/3. Steering profile smoothing + lane change detection --------
  std::vector<double> accel_for_ekf;
  {
    const runtime::ScopedTimer timer(metrics ? &metrics->detect_ns : nullptr);
    OBS_SPAN("pipeline.detect");
    const double imu_rate =
        active->imu_rate_hz > 0 ? active->imu_rate_hz : 50.0;
    const auto decim = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::round(imu_rate / std::max(1.0, config.detector_rate_hz))));
    for (std::size_t i = 0; i < aligned.size(); i += decim) {
      result.det_t.push_back(aligned.t[i]);
      result.det_steer_raw.push_back(aligned.steer_rate[i]);
    }
    result.det_steer_smoothed = result.det_steer_raw;
    const std::size_t dn = result.det_t.size();

    if (config.smoothing_window_s > 0.0 && dn >= 4) {
      const double duration =
          result.det_t.back() - result.det_t.front();
      if (duration > config.smoothing_window_s) {
        math::LoessConfig lo;
        lo.span = std::clamp(config.smoothing_window_s / duration,
                             4.0 / static_cast<double>(dn), 1.0);
        lo.degree = config.smoothing_degree;
        const math::LoessSmoother smoother(lo);
        result.det_steer_smoothed =
            smoother.fit(result.det_t, result.det_steer_smoothed);
      }
    }

    // ---- Detection-rate speed series (best available source) ----------
    std::vector<double> src_t;
    std::vector<double> src_v;
    if (!active->canbus_speed.empty()) {
      for (const auto& s : active->canbus_speed) {
        src_t.push_back(s.t);
        src_v.push_back(s.value);
      }
    } else if (!active->speedometer.empty()) {
      for (const auto& s : active->speedometer) {
        src_t.push_back(s.t);
        src_v.push_back(s.value);
      }
    } else {
      for (const auto& f : active->gps) {
        if (!f.valid) continue;
        src_t.push_back(f.t);
        src_v.push_back(f.speed_mps);
      }
    }
    // Streams and the IMU timeline are sorted (sanitized), so every
    // resampling below is one linear sweep.
    result.det_speed.assign(dn, 0.0);
    if (!src_t.empty()) {
      math::resample_sorted(src_t, src_v, result.det_t, result.det_speed);
    }

    result.lane_changes =
        detect_lane_changes(result.det_t, result.det_steer_smoothed,
                            result.det_speed, config.detector);
    OBS_COUNT("pipeline.lane_changes_detected",
              static_cast<std::int64_t>(result.lane_changes.size()));

    // ---- 4. Lane-change effect elimination ----------------------------
    // Steering angle on the detection timeline, interpolated to the IMU
    // timeline, drives both the Eq. 2 velocity adjustment and the forward
    // specific-force projection.
    accel_for_ekf = aligned.accel_forward;
    if (config.enable_lane_change_adjustment &&
        !result.lane_changes.empty()) {
      const std::vector<double> alpha_det = steering_angle_series(
          result.det_t, result.det_steer_raw, result.lane_changes);
      const auto to_imu = [&](const std::vector<double>& det_series) {
        std::vector<double> out(aligned.size());
        math::resample_sorted(result.det_t, det_series, aligned.t, out);
        return out;
      };
      const std::vector<double> alpha_imu = to_imu(alpha_det);
      const std::vector<double> w_imu = to_imu(result.det_steer_smoothed);
      const std::vector<double> v_imu = to_imu(result.det_speed);
      accel_for_ekf = adjust_specific_force(aligned.accel_forward, alpha_imu,
                                            w_imu, v_imu,
                                            config.assumed_road_crown,
                                            params.gravity);
    }
  }

  // ---- 5. Velocity sources -> per-source EKF tracks -----------------
  {
    const runtime::ScopedTimer timer(metrics ? &metrics->ekf_ns : nullptr);
    OBS_SPAN("pipeline.ekf");
    struct SourceJob {
      const char* name;
      std::vector<VelocityMeasurement> meas;
    };
    std::vector<SourceJob> jobs;
    if (config.use_gps) {
      jobs.push_back({"gps", velocity_from_gps(*active, config.sources)});
    }
    if (config.use_speedometer) {
      jobs.push_back(
          {"speedometer", velocity_from_speedometer(*active, config.sources)});
    }
    if (config.use_canbus) {
      jobs.push_back({"canbus", velocity_from_canbus(*active, config.sources)});
    }
    if (config.use_imu) {
      jobs.push_back({"imu", velocity_from_imu(*active, config.sources)});
    }
    std::erase_if(jobs, [](const SourceJob& j) { return j.meas.empty(); });
    if (config.enable_lane_change_adjustment) {
      for (SourceJob& job : jobs) {
        job.meas = apply_lane_change_adjustment(std::move(job.meas),
                                                result.det_t,
                                                result.det_steer_raw,
                                                result.lane_changes);
      }
    }

    if (config.use_rts_smoother) {
      result.tracks.resize(jobs.size());
      const auto run_job = [&](std::size_t j) {
        OBS_SPAN_DYN(std::string("pipeline.ekf:") + jobs[j].name);
        result.tracks[j] =
            run_grade_rts(jobs[j].name, aligned.t, accel_for_ekf, jobs[j].meas,
                          params, config.ekf, config.rts_rate_hz);
      };
      if (pool != nullptr && jobs.size() > 1) {
        runtime::parallel_for(*pool, jobs.size(), run_job);
      } else {
        for (std::size_t j = 0; j < jobs.size(); ++j) run_job(j);
      }
    } else {
      std::vector<SourceStream> sources;
      sources.reserve(jobs.size());
      for (const SourceJob& job : jobs) sources.push_back({job.name, job.meas});
      result.tracks = run_grade_ekf_trip(aligned.t, accel_for_ekf, sources,
                                         params, config.ekf);
    }
  }

  if (result.tracks.empty()) {
    throw std::invalid_argument(
        "estimate_gradient: no velocity measurements in trace");
  }

  // ---- 6. Track fusion ------------------------------------------------
  {
    const runtime::ScopedTimer timer(metrics ? &metrics->fuse_ns : nullptr);
    OBS_SPAN("pipeline.fuse");
    if (config.enable_fusion && result.tracks.size() > 1) {
      result.fused = fuse_tracks_time(result.tracks, 0, config.fusion);
    } else {
      // Without fusion the paper's system degenerates to its best single
      // track; pick the lowest mean variance.
      std::size_t best = 0;
      double best_var = std::numeric_limits<double>::infinity();
      for (std::size_t k = 0; k < result.tracks.size(); ++k) {
        double acc = 0.0;
        for (double p : result.tracks[k].grade_var) acc += p;
        const double mean_var =
            result.tracks[k].grade_var.empty()
                ? std::numeric_limits<double>::infinity()
                : acc / static_cast<double>(result.tracks[k].grade_var.size());
        if (mean_var < best_var) {
          best_var = mean_var;
          best = k;
        }
      }
      result.fused = result.tracks[best];
      result.fused.source =
          "best-single-track(" + result.tracks[best].source + ")";
    }
  }

  if (metrics != nullptr) {
    metrics->trips.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

}  // namespace

PipelineResult estimate_gradient(const sensors::SensorTrace& trace,
                                 const vehicle::VehicleParams& params,
                                 const PipelineConfig& config) {
  return estimate_gradient_impl(trace, params, config, nullptr, nullptr);
}

std::vector<PipelineResult> run_pipeline_batch(
    const std::vector<sensors::SensorTrace>& traces,
    const vehicle::VehicleParams& params, const PipelineConfig& config,
    std::size_t n_threads, runtime::StageMetrics* metrics) {
  std::vector<PipelineResult> results(traces.size());
  if (traces.empty()) return results;

  runtime::ThreadPool pool(n_threads);
  runtime::parallel_for(pool, traces.size(), [&](std::size_t i) {
    results[i] =
        estimate_gradient_impl(traces[i], params, config, &pool, metrics);
    // Fail loudly at the producer if a fused track ever violates the
    // GradeTrack invariants (sizes, finiteness, monotone keys).
    results[i].fused.validate();
  });
  return results;
}

}  // namespace rge::core
