#include "core/online_estimator_batch.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "runtime/thread_pool.hpp"

namespace rge::core {

OnlineEstimatorBatch::OnlineEstimatorBatch(std::size_t lanes,
                                           const vehicle::VehicleParams& params,
                                           const OnlineEstimatorConfig& config)
    : lanes_(lanes),
      params_(params),
      config_(config),
      filters_(kVelocitySourceCount * lanes, params, config.ekf),
      lanes_state_(lanes),
      steps_(lanes),
      f_(kVelocitySourceCount * lanes, 0.0),
      dt_(kVelocitySourceCount * lanes, 0.0) {
  for (std::size_t i = 0; i < lanes; ++i) reset_lane(i);
}

void OnlineEstimatorBatch::reset_lane(std::size_t lane) {
  auto& est = lanes_state_.at(lane);
  for (std::size_t s = 0; s < kVelocitySourceCount; ++s) {
    filters_.reset(s * lanes_ + lane);
  }
  est.reset(
      new OnlineGradientEstimator(params_, config_, &filters_, lane, lanes_));
}

void OnlineEstimatorBatch::push_imu(
    std::span<const sensors::ImuSample> samples) {
  if (samples.size() < lanes_) {
    throw std::invalid_argument(
        "OnlineEstimatorBatch::push_imu: sample span short");
  }
  push_imu(samples, std::span<const std::uint8_t>{});
}

void OnlineEstimatorBatch::push_imu(std::span<const sensors::ImuSample> samples,
                                    std::span<const std::uint8_t> active) {
  if (samples.size() < lanes_) {
    throw std::invalid_argument(
        "OnlineEstimatorBatch::push_imu: sample span short");
  }
  if (!active.empty() && active.size() < lanes_) {
    throw std::invalid_argument(
        "OnlineEstimatorBatch::push_imu: active mask short");
  }
  // Stage 1: causal front half per lane; gather the predict inputs. A
  // lane predicts only when its sample was admitted and advanced time
  // (dt > 0) — exactly the scalar push_imu's guard; which of its source
  // filters are seeded is GradeEkfBatch's own lane mask.
  for (std::size_t i = 0; i < lanes_; ++i) {
    if (!active.empty() && active[i] == 0) {
      steps_[i].accepted = false;
      f_[i] = 0.0;
      dt_[i] = 0.0;
      continue;
    }
    steps_[i] = lanes_state_[i]->push_imu_begin(samples[i]);
    const bool advance = steps_[i].accepted && steps_[i].dt > 0.0;
    f_[i] = advance ? steps_[i].f : 0.0;
    dt_[i] = advance ? steps_[i].dt : 0.0;
  }
  // Stage 2: every source of a lane sees the lane's (f, dt); one
  // lane-parallel predict over the whole store.
  for (std::size_t s = 1; s < kVelocitySourceCount; ++s) {
    std::copy_n(f_.begin(), lanes_, f_.begin() + s * lanes_);
    std::copy_n(dt_.begin(), lanes_, dt_.begin() + s * lanes_);
  }
  filters_.predict(f_, dt_);
  // Stage 3: post-predict back half per lane.
  for (std::size_t i = 0; i < lanes_; ++i) {
    if (steps_[i].accepted) lanes_state_[i]->push_imu_finish(steps_[i]);
  }
}

void OnlineEstimatorBatch::push_gps(std::size_t lane,
                                    const sensors::GpsFix& fix) {
  lanes_state_.at(lane)->push_gps(fix);
}

void OnlineEstimatorBatch::push_speedometer(std::size_t lane, double t,
                                            double speed_mps) {
  lanes_state_.at(lane)->push_speedometer(t, speed_mps);
}

void OnlineEstimatorBatch::push_canbus(std::size_t lane, double t,
                                       double speed_mps) {
  lanes_state_.at(lane)->push_canbus(t, speed_mps);
}

void OnlineEstimatorBatch::push_baro(std::size_t lane, double t,
                                     double altitude_m) {
  lanes_state_.at(lane)->push_baro(t, altitude_m);
}

OnlineEstimate OnlineEstimatorBatch::estimate(std::size_t lane) const {
  return lanes_state_.at(lane)->estimate();
}

const std::vector<DetectedLaneChange>& OnlineEstimatorBatch::lane_changes(
    std::size_t lane) const {
  return lanes_state_.at(lane)->lane_changes();
}

SourceDiagnostics OnlineEstimatorBatch::source_diagnostics(
    std::size_t lane, VelocitySource which) const {
  return lanes_state_.at(lane)->source_diagnostics(which);
}

double OnlineEstimatorBatch::accel_bias_estimate(std::size_t lane) const {
  return lanes_state_.at(lane)->accel_bias_estimate();
}

namespace {

constexpr std::size_t kDefaultLanesPerBlock = 64;

/// Lanes of the store a block streams its traces through. A constant
/// from a measured curve (DESIGN.md §8), not an option: a wider store
/// carries more masked lanes through the block's tail and a larger
/// working set; a narrower one pays the per-step overhead on fewer lanes.
constexpr std::size_t kStoreLanes = 8;

/// One lane's current vehicle: its trace, its read cursors, and the
/// earliest timestamp at which one of its measurement streams is due.
struct LaneFeed {
  const sensors::SensorTrace* trace = nullptr;  ///< null: lane idle
  std::size_t slot = 0;                         ///< index of the trace
  std::size_t imu = 0;
  std::size_t gps = 0;
  std::size_t speedo = 0;
  std::size_t canbus = 0;
  std::size_t baro = 0;
  double due = 0.0;
};

/// Smallest head timestamp of the lane's measurement streams, +inf when
/// all are drained. A NaN head never satisfies `t <= imu.t`, so it is
/// never due and the comparison skips it here too: `due <= imu.t` holds
/// exactly when some stream's head would be delivered before imu.
double next_due(const LaneFeed& f) {
  double due = std::numeric_limits<double>::infinity();
  const auto head = [&due](const auto& stream, std::size_t i) {
    if (i < stream.size() && stream[i].t < due) due = stream[i].t;
  };
  head(f.trace->gps, f.gps);
  head(f.trace->speedometer, f.speedo);
  head(f.trace->canbus_speed, f.canbus);
  head(f.trace->barometer_alt, f.baro);
  return due;
}

/// Streams one block's traces (fleet indices, longest first) through a
/// refilling store: a lane whose trace ends writes its result and takes
/// the block's next trace, so lanes idle only once the queue is empty.
void stream_block(const std::vector<sensors::SensorTrace>& traces,
                  std::span<const std::size_t> queue,
                  const vehicle::VehicleParams& params,
                  const OnlineEstimatorConfig& config,
                  std::vector<OnlineFleetResult>& results) {
  const std::size_t lanes = std::min(queue.size(), kStoreLanes);
  OnlineEstimatorBatch batch(lanes, params, config);
  std::vector<LaneFeed> feed(lanes);
  std::vector<sensors::ImuSample> samples(lanes);
  std::vector<std::uint8_t> active(lanes, 0);
  std::size_t next = 0;
  const auto load = [&](LaneFeed& f) {
    f = LaneFeed{};
    f.slot = queue[next++];
    f.trace = &traces[f.slot];
    f.due = next_due(f);
  };
  for (LaneFeed& f : feed) load(f);

  // Lockstep sweep: each round delivers every live lane its next IMU
  // sample, preceded by that lane's measurements up to the sample's
  // timestamp (the dispatcher order documented on run_online_batch).
  for (;;) {
    bool any = false;
    for (std::size_t l = 0; l < lanes; ++l) {
      LaneFeed& f = feed[l];
      while (f.trace != nullptr && f.imu == f.trace->imu.size()) {
        results[f.slot] = {batch.estimate(l), batch.lane_changes(l)};
        f.trace = nullptr;
        if (next < queue.size()) {
          batch.reset_lane(l);
          load(f);
        }
      }
      if (f.trace == nullptr) {
        active[l] = 0;
        continue;
      }
      any = true;
      active[l] = 1;
      const sensors::SensorTrace& tr = *f.trace;
      const sensors::ImuSample& imu = tr.imu[f.imu++];
      if (f.due <= imu.t) {
        while (f.gps < tr.gps.size() && tr.gps[f.gps].t <= imu.t) {
          batch.push_gps(l, tr.gps[f.gps++]);
        }
        while (f.speedo < tr.speedometer.size() &&
               tr.speedometer[f.speedo].t <= imu.t) {
          batch.push_speedometer(l, tr.speedometer[f.speedo].t,
                                 tr.speedometer[f.speedo].value);
          ++f.speedo;
        }
        while (f.canbus < tr.canbus_speed.size() &&
               tr.canbus_speed[f.canbus].t <= imu.t) {
          batch.push_canbus(l, tr.canbus_speed[f.canbus].t,
                            tr.canbus_speed[f.canbus].value);
          ++f.canbus;
        }
        while (f.baro < tr.barometer_alt.size() &&
               tr.barometer_alt[f.baro].t <= imu.t) {
          batch.push_baro(l, tr.barometer_alt[f.baro].t,
                          tr.barometer_alt[f.baro].value);
          ++f.baro;
        }
        f.due = next_due(f);
      }
      samples[l] = imu;
    }
    if (!any) return;
    batch.push_imu(samples, active);
  }
}

}  // namespace

std::vector<OnlineFleetResult> run_online_batch(
    const std::vector<sensors::SensorTrace>& traces,
    const vehicle::VehicleParams& params, const OnlineEstimatorConfig& config,
    std::size_t n_threads, std::size_t lanes_per_block,
    runtime::StageMetrics* metrics) {
  std::vector<OnlineFleetResult> results(traces.size());
  if (traces.empty()) return results;
  const std::size_t block =
      lanes_per_block == 0 ? kDefaultLanesPerBlock : lanes_per_block;
  const std::size_t n_blocks = (traces.size() + block - 1) / block;

  // Longest first (ties in fleet order), dealt round-robin: block b
  // streams order[b], order[b + n_blocks], ... — at most `block` traces,
  // and a mix of long and short ones like every other block.
  std::vector<std::size_t> order(traces.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const std::size_t na = traces[a].imu.size();
    const std::size_t nb = traces[b].imu.size();
    return na != nb ? na > nb : a < b;
  });

  runtime::ThreadPool pool(n_threads);
  runtime::parallel_for(pool, n_blocks, [&](std::size_t b) {
    std::vector<std::size_t> queue;
    for (std::size_t k = b; k < order.size(); k += n_blocks) {
      queue.push_back(order[k]);
    }
    runtime::ScopedTimer timer(metrics != nullptr ? &metrics->ekf_ns
                                                  : nullptr);
    stream_block(traces, queue, params, config, results);
    if (metrics != nullptr) {
      metrics->trips.fetch_add(static_cast<std::int64_t>(queue.size()),
                               std::memory_order_relaxed);
    }
  });
  return results;
}

}  // namespace rge::core
