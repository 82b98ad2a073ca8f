#include "fleet.hpp"

#include <algorithm>
#include <random>

#include "sensors/smartphone.hpp"
#include "vehicle/trip.hpp"

namespace perfbench {

using rge::sensors::SensorTrace;

Par::Par(std::size_t width)
    : width_(std::max<std::size_t>(1, width)),
      pool_(width_ > 1 ? std::make_unique<rge::runtime::ThreadPool>(width_ - 1)
                       : nullptr) {}

void Par::for_each(std::size_t n,
                   const std::function<void(std::size_t)>& body) {
  if (pool_) {
    rge::runtime::parallel_for(*pool_, n, body);
  } else {
    for (std::size_t i = 0; i < n; ++i) body(i);
  }
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream * 0x100000001ull +
                                                    index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

enum Stream : std::uint64_t { kSurvey = 1, kOnline = 2 };

struct Drive {
  rge::vehicle::Trip trip;
  SensorTrace trace;
};

Drive drive(const rge::road::Road& road, std::uint64_t seed,
            std::size_t index) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  rge::vehicle::TripConfig tc;
  tc.seed = rng();
  tc.cruise_speed_mps = 9.5 + 4.0 * u(rng);
  tc.lane_changes_per_km = 1.2;
  rge::sensors::SmartphoneConfig pc;
  pc.seed = rng();
  pc.random_outage_count = index % 5 == 0 ? 1 : 0;
  Drive d;
  d.trip = rge::vehicle::simulate_trip(road, tc);
  d.trace = rge::sensors::simulate_sensors(d.trip, road.anchor(),
                                           rge::vehicle::VehicleParams{}, pc);
  return d;
}

template <class Sample>
std::vector<Sample> window(const std::vector<Sample>& xs, double t0,
                           double t1) {
  std::vector<Sample> out;
  for (const Sample& x : xs) {
    if (x.t < t0 || x.t > t1) continue;
    out.push_back(x);
    out.back().t -= t0;
  }
  return out;
}

/// Drops the growth slack of every stream: the fleet keeps thousands of
/// traces for the whole run.
SensorTrace compact(SensorTrace tr) {
  tr.imu.shrink_to_fit();
  tr.gps.shrink_to_fit();
  tr.speedometer.shrink_to_fit();
  tr.canbus_speed.shrink_to_fit();
  tr.barometer_alt.shrink_to_fit();
  tr.engine_torque.shrink_to_fit();
  tr.active_gear.shrink_to_fit();
  return tr;
}

/// A phone that records only [t0, t1] of the drive, timestamps rebased.
SensorTrace cut(const SensorTrace& tr, double t0, double t1) {
  SensorTrace out;
  out.imu_rate_hz = tr.imu_rate_hz;
  out.imu = window(tr.imu, t0, t1);
  out.gps = window(tr.gps, t0, t1);
  out.speedometer = window(tr.speedometer, t0, t1);
  out.canbus_speed = window(tr.canbus_speed, t0, t1);
  out.barometer_alt = window(tr.barometer_alt, t0, t1);
  out.engine_torque = window(tr.engine_torque, t0, t1);
  out.active_gear = window(tr.active_gear, t0, t1);
  return compact(std::move(out));
}

double grade_at_time(const rge::vehicle::Trip& trip, double t) {
  const auto it = std::lower_bound(
      trip.states.begin(), trip.states.end(), t,
      [](const rge::vehicle::VehicleState& s, double x) { return s.t < x; });
  if (it == trip.states.end()) return trip.states.back().grade;
  if (it != trip.states.begin() && (t - std::prev(it)->t) < (it->t - t)) {
    return std::prev(it)->grade;
  }
  return it->grade;
}

}  // namespace

rge::road::RoadNetwork make_network(const FleetSpec& spec) {
  return rge::road::make_city_network(2019, spec.network_km);
}

Fleet make_fleet(rge::road::RoadNetwork net, const FleetSpec& spec,
                 std::uint64_t seed, Par& par) {
  const std::size_t n_roads = net.size();
  const std::size_t n_survey =
      n_roads * static_cast<std::size_t>(std::max(0, spec.trips_per_road));
  const std::size_t n_online = spec.online_lanes;

  // Survey trip i drives road i % n_roads, so consecutive batches of
  // n_roads trips each cover the whole city once.
  std::vector<SensorTrace> survey(n_survey);
  std::vector<SensorTrace> online(n_online);
  std::vector<double> truth(n_online, 0.0);
  std::vector<std::size_t> online_road(n_online);
  std::mt19937_64 pick(mix_seed(seed, kOnline, ~0ull));
  for (auto& r : online_road) {
    r = std::uniform_int_distribution<std::size_t>(0, n_roads - 1)(pick);
  }

  par.for_each(n_survey + n_online, [&](std::size_t i) {
    if (i < n_survey) {
      const auto& road = net.roads()[i % n_roads].road;
      survey[i] = compact(drive(road, mix_seed(seed, kSurvey, i), i).trace);
      return;
    }
    const std::size_t j = i - n_survey;
    const std::uint64_t s = mix_seed(seed, kOnline, j);
    Drive d = drive(net.roads()[online_road[j]].road, s, j);
    // Uneven recording windows: 25-100% of the drive, anywhere in it.
    std::mt19937_64 rng(s ^ 0x5bd1e995ull);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const double dur = d.trace.duration_s();
    const double len = dur * (0.25 + 0.75 * u(rng));
    const double t0 = (dur - len) * u(rng);
    online[j] = cut(d.trace, t0, t0 + len);
    truth[j] = grade_at_time(d.trip, online[j].imu.back().t + t0);
  });

  Fleet fleet;
  fleet.trips = n_survey + n_online;
  const std::size_t sb = spec.survey_batch == 0 ? n_roads : spec.survey_batch;
  for (std::size_t lo = 0; lo < n_survey; lo += sb) {
    SurveyBatch b;
    for (std::size_t i = lo; i < std::min(n_survey, lo + sb); ++i) {
      b.roads.push_back(static_cast<rge::service::RoadId>(i % n_roads));
      b.km += net.roads()[i % n_roads].road.length_m() / 1000.0;
      fleet.imu_samples += survey[i].imu.size();
      b.traces.push_back(std::move(survey[i]));
    }
    fleet.survey.push_back(std::move(b));
  }
  const std::size_t ob = std::max<std::size_t>(1, spec.online_batch);
  for (std::size_t lo = 0; lo < n_online; lo += ob) {
    OnlineBatch b;
    for (std::size_t j = lo; j < std::min(n_online, lo + ob); ++j) {
      b.drive_s += online[j].duration_s();
      b.imu_steps.push_back(online[j].imu.size());
      b.truth_grade.push_back(truth[j]);
      fleet.imu_samples += online[j].imu.size();
      b.traces.push_back(std::move(online[j]));
    }
    fleet.online.push_back(std::move(b));
  }
  fleet.net = std::move(net);
  return fleet;
}

}  // namespace perfbench
