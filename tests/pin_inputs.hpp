// Inputs shared by the bit pins (test_survey_pins.cpp) and the trip-kernel
// parity tests (test_grade_ekf_trip.cpp): the two seeded SurveyPins drives
// and the faults every scenario stream runs under.
#pragma once

#include "road/network.hpp"
#include "sensors/smartphone.hpp"
#include "sensors/trace.hpp"
#include "testing/fault_injection.hpp"
#include "vehicle/params.hpp"
#include "vehicle/trip.hpp"

namespace rge::testing {

/// Each scenario stream runs clean and under the three faults the
/// velocity gate sees, in this order.
inline constexpr FaultKind kPinFaults[] = {
    FaultKind::kNone, FaultKind::kAccelBiasRamp, FaultKind::kGpsSpoofJump,
    FaultKind::kStuckSensor};

/// The phone trace of one simulated drive over `road`.
inline sensors::SensorTrace simulate_pin_trace(
    const road::Road& road, const vehicle::TripConfig& tc,
    const sensors::SmartphoneConfig& pc) {
  const vehicle::Trip trip = vehicle::simulate_trip(road, tc);
  return sensors::simulate_sensors(trip, road.anchor(),
                                   vehicle::VehicleParams{}, pc);
}

/// Table III route with frequent lane changes: the Eq. 2 adjustment
/// resamples three detection-rate series onto the IMU timeline.
inline sensors::SensorTrace lane_change_pin_trace() {
  vehicle::TripConfig tc;
  tc.seed = 21;
  tc.lane_changes_per_km = 5.0;
  sensors::SmartphoneConfig pc;
  pc.seed = 28;
  return simulate_pin_trace(road::make_table3_route(2019), tc, pc);
}

/// A city road driven with a rotated phone and a GPS outage: the mount
/// derotation and the outage fallback of the alignment stage both run.
inline sensors::SensorTrace city_pin_trace() {
  const road::RoadNetwork net = road::make_city_network(2019);
  vehicle::TripConfig tc;
  tc.seed = 77;
  sensors::SmartphoneConfig pc;
  pc.seed = 78;
  pc.mount_yaw_rad = 0.12;
  pc.gps_outages = {{40.0, 70.0}};
  return simulate_pin_trace(net.roads()[5].road, tc, pc);
}

}  // namespace rge::testing
