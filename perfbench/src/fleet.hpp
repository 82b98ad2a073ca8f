// Seeded load generation: the city network and the fleet of simulated
// phones the chain consumes. Everything here is a pure function of the
// workload's spec and --seed; the library under test only ever sees the
// generated sensor traces.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "road/network.hpp"
#include "runtime/thread_pool.hpp"
#include "sensors/trace.hpp"
#include "service/map_service.hpp"

namespace perfbench {

/// Runs loop bodies on `width` threads: a runtime::ThreadPool of width - 1
/// workers plus the calling thread, which parallel_for puts to work too.
/// Width 1 runs plain loops on the caller.
class Par {
 public:
  explicit Par(std::size_t width);
  std::size_t width() const { return width_; }
  rge::runtime::ThreadPool* pool() const { return pool_.get(); }
  void for_each(std::size_t n, const std::function<void(std::size_t)>& body);

 private:
  std::size_t width_;
  std::unique_ptr<rge::runtime::ThreadPool> pool_;
};

/// Sizes of one workload's generated inputs.
struct FleetSpec {
  double network_km = 164.8;      ///< make_city_network total length
  int trips_per_road = 1;         ///< full-road survey trips per road
  std::size_t survey_batch = 0;   ///< survey trips per epoch; 0 = roads
  std::size_t online_lanes = 0;   ///< partial-span traces streamed online
  std::size_t online_batch = 0;   ///< online traces per epoch
};

/// Full-road trips one epoch pushes through pipeline -> ... -> freeze.
struct SurveyBatch {
  std::vector<rge::sensors::SensorTrace> traces;
  std::vector<rge::service::RoadId> roads;  ///< road driven, per trace
  double km = 0.0;                          ///< road-km driven
};

/// Partial-span trips one epoch streams through run_online_batch.
struct OnlineBatch {
  std::vector<rge::sensors::SensorTrace> traces;
  /// True grade (rad) at each trace's last IMU sample.
  std::vector<double> truth_grade;
  std::vector<std::size_t> imu_steps;  ///< IMU samples per trace
  double drive_s = 0.0;                ///< summed trace durations
};

struct Fleet {
  rge::road::RoadNetwork net;
  std::vector<SurveyBatch> survey;
  std::vector<OnlineBatch> online;
  std::size_t trips = 0;        ///< trips simulated
  std::size_t imu_samples = 0;  ///< IMU samples over all kept traces
};

/// The network is make_city_network(2019, spec.network_km) — the paper's
/// city; trips, phones and online windows are drawn from `seed`.
rge::road::RoadNetwork make_network(const FleetSpec& spec);

/// Simulates every trip of the spec over `net` (per-trip seeds, so the
/// result does not depend on the pool width).
Fleet make_fleet(rge::road::RoadNetwork net, const FleetSpec& spec,
                 std::uint64_t seed, Par& par);

/// splitmix64: derives independent per-item seeds from one run seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index);

}  // namespace perfbench
