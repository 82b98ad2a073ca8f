#include "core/online_estimator_batch.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "runtime/thread_pool.hpp"

namespace rge::core {

namespace {

constexpr std::size_t kDefaultTracesPerBlock = 64;

/// Streams one trace through a fresh estimator in the merge order
/// documented on run_online_batch.
OnlineFleetResult stream_trace(const sensors::SensorTrace& tr,
                               const vehicle::VehicleParams& params,
                               const OnlineEstimatorConfig& config) {
  OnlineGradientEstimator est(params, config);
  std::size_t gps = 0;
  std::size_t speedo = 0;
  std::size_t canbus = 0;
  std::size_t baro = 0;
  // Smallest head timestamp of the measurement streams, +inf when all are
  // drained. A NaN head never satisfies `t <= imu.t`, so it is never due
  // and the comparison skips it here too: `due <= imu.t` holds exactly
  // when some stream's head would be delivered before imu, and a step
  // with nothing due reads only the IMU stream.
  const auto next_due = [&] {
    double due = std::numeric_limits<double>::infinity();
    const auto head = [&due](const auto& stream, std::size_t i) {
      if (i < stream.size() && stream[i].t < due) due = stream[i].t;
    };
    head(tr.gps, gps);
    head(tr.speedometer, speedo);
    head(tr.canbus_speed, canbus);
    head(tr.barometer_alt, baro);
    return due;
  };
  double due = next_due();
  for (const sensors::ImuSample& imu : tr.imu) {
    if (due <= imu.t) {
      while (gps < tr.gps.size() && tr.gps[gps].t <= imu.t) {
        est.push_gps(tr.gps[gps++]);
      }
      for (; speedo < tr.speedometer.size() &&
             tr.speedometer[speedo].t <= imu.t;
           ++speedo) {
        est.push_speedometer(tr.speedometer[speedo].t,
                             tr.speedometer[speedo].value);
      }
      for (; canbus < tr.canbus_speed.size() &&
             tr.canbus_speed[canbus].t <= imu.t;
           ++canbus) {
        est.push_canbus(tr.canbus_speed[canbus].t,
                        tr.canbus_speed[canbus].value);
      }
      for (; baro < tr.barometer_alt.size() &&
             tr.barometer_alt[baro].t <= imu.t;
           ++baro) {
        est.push_baro(tr.barometer_alt[baro].t, tr.barometer_alt[baro].value);
      }
      due = next_due();
    }
    est.push_imu(imu);
  }
  return {est.estimate(), est.lane_changes()};
}

}  // namespace

std::vector<OnlineFleetResult> run_online_batch(
    const std::vector<sensors::SensorTrace>& traces,
    const vehicle::VehicleParams& params, const OnlineEstimatorConfig& config,
    std::size_t n_threads, std::size_t traces_per_block,
    runtime::StageMetrics* metrics) {
  std::vector<OnlineFleetResult> results(traces.size());
  if (traces.empty()) return results;
  const std::size_t block =
      traces_per_block == 0 ? kDefaultTracesPerBlock : traces_per_block;
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

  const auto run_block = [&](std::size_t b) {
    runtime::ScopedTimer timer(metrics != nullptr ? &metrics->ekf_ns
                                                  : nullptr);
    std::int64_t trips = 0;
    for (std::size_t k = b; k < order.size(); k += n_blocks, ++trips) {
      results[order[k]] = stream_trace(traces[order[k]], params, config);
    }
    if (metrics != nullptr) {
      metrics->trips.fetch_add(trips, std::memory_order_relaxed);
    }
  };
  if (n_blocks == 1) {
    run_block(0);
    return results;
  }
  runtime::ThreadPool pool(n_threads);
  runtime::parallel_for(pool, n_blocks, run_block);
  return results;
}

}  // namespace rge::core
