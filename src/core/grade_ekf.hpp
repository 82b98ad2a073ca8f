// Road gradient EKF (paper Section III-C).
//
// State x = [v, theta]: longitudinal velocity and road gradient. The phone's
// longitudinal accelerometer measures specific force f = dv/dt + g*sin(theta)
// (gravity leaks into the forward axis on an incline), so the process model
//   v(t+1)     = v(t) + (f_hat - g sin(theta)) * dt
//   theta(t+1) = theta(t) + rho*A_f*C_d * v * f_hat * dt / (m g cos(theta))
// couples the two states; velocity measurements (GPS / speedometer /
// CAN-bus / integrated IMU) then make theta observable through the Kalman
// gain, exactly the deviation-feedback loop of Section III-C2. The theta
// drift term is the paper's Eq. 4/5; it can be disabled for ablation.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sensors/trace.hpp"
#include "vehicle/params.hpp"

namespace rge::core {

struct GradeEkfConfig {
  /// Accelerometer noise feeding the v-channel process noise (m/s^2).
  double accel_sigma = 0.06;
  /// Gradient random-walk intensity (rad^2 per second); encodes how fast
  /// real road grades change under the wheels.
  double grade_process_psd = 1e-4;
  /// Initial state uncertainty.
  double initial_speed_var = 4.0;
  double initial_grade_var = 0.01;
  /// Innovation gate (NIS, 1 dof); 0 disables gating.
  double gate_nis = 25.0;
  /// Include the paper's Eq. 4 deterministic drift term in the theta
  /// propagation (ablation switch).
  bool use_paper_drift_term = true;
  /// Record every k-th IMU-rate sample into the output track.
  std::size_t record_decimation = 5;
};

/// One timestamped velocity measurement from a particular source.
struct VelocityMeasurement {
  double t = 0.0;
  double v = 0.0;       ///< m/s (already lane-change adjusted, Eq. 2)
  double variance = 0.1;///< R, (m/s)^2
};

/// A gradient estimation track: theta(t) with its EKF variance, plus the
/// filter's own velocity estimate and integrated odometry.
struct GradeTrack {
  std::string source;
  std::vector<double> t;
  std::vector<double> grade;      ///< rad
  std::vector<double> grade_var;  ///< EKF P_theta_theta
  std::vector<double> speed;      ///< filter velocity estimate (m/s)
  std::vector<double> s;          ///< odometry integral of speed (m)

  std::size_t size() const { return t.size(); }

  /// Debug invariant check: all five parallel arrays share size(), every
  /// value is finite, variances are non-negative, and both keys (t, s) are
  /// non-decreasing. Fusion and the batch runtime call this on their
  /// outputs so a malformed track (e.g. placeholder speeds) fails loudly
  /// at the producer instead of feeding garbage to evaluation/track_io.
  /// @throws std::logic_error naming the source and the violated invariant.
  void validate() const;
};

/// Incremental interface: the scalar reference filter.
///
/// The 2-state filter is hand-rolled (state and covariance unpacked into
/// five doubles) so one predict+update costs zero heap allocations. Every
/// expression is what math::EkfN<2> computes for this model, in the same
/// association order, so results are bit-identical to the generic filter
/// (pinned by GradeEkf.MatchesGenericEkfBitExact). The library runs its
/// filters on the four-lane kernel (ekf_kernel::predict_lanes, in
/// run_grade_ekf_trip and the online estimator); their parity tests step
/// this class over the same inputs.
class GradeEkf {
 public:
  GradeEkf(const vehicle::VehicleParams& params, const GradeEkfConfig& cfg,
           double initial_speed, double initial_grade = 0.0);

  /// Propagate by dt seconds using the measured forward specific force.
  void predict(double specific_force, double dt);
  /// Fuse one velocity measurement; returns false if gated out.
  bool update_velocity(double v_meas, double variance);

  double speed() const { return v_; }
  double grade() const { return th_; }
  double grade_variance() const { return p11_; }
  double speed_variance() const { return p00_; }

 private:
  vehicle::VehicleParams params_;
  GradeEkfConfig cfg_;
  double v_ = 0.0;    ///< state: longitudinal velocity (m/s)
  double th_ = 0.0;   ///< state: road gradient (rad)
  double p00_ = 0.0;  ///< covariance (symmetric; p10 == p01)
  double p01_ = 0.0;
  double p11_ = 0.0;
};

/// One velocity source of a trip: its track name and its time-sorted
/// measurement stream.
struct SourceStream {
  std::string_view name;
  std::span<const VelocityMeasurement> measurements;
};

/// Most sources one run_grade_ekf_trip call steps together: the four
/// velocity sources of estimate_gradient.
inline constexpr std::size_t kTripKernelLanes = 4;

/// Trip kernel: one causal EKF per source over a shared IMU timeline,
/// stepped in lockstep as the lanes of one loop (DESIGN.md §8). Each IMU
/// step runs one predict for all lanes on the shared (f, dt), then each
/// lane's velocity updates (measurements with t <= t[i]), odometry and,
/// every `record_decimation`-th step, a record. tracks[j] is source j's.
/// A lane starts at its first measurement's speed (0 with none).
///
/// RGE_SIMD=OFF: each track is bit-identical to stepping a GradeEkf over
/// the same inputs. RGE_SIMD=ON: the predict is the vectorized lane body
/// (ekf_kernel::predict_simd), within §8's trace tolerance of that; the
/// update, odometry and records are exact. In both modes a track's bits
/// depend neither on the other sources nor on its lane.
/// @throws std::invalid_argument on a t/accel_forward size mismatch or
///         more than kTripKernelLanes sources.
std::vector<GradeTrack> run_grade_ekf_trip(
    std::span<const double> t, std::span<const double> accel_forward,
    std::span<const SourceStream> sources,
    const vehicle::VehicleParams& params, const GradeEkfConfig& cfg = {});

/// Causal runner for one source: run_grade_ekf_trip with one lane. Walks
/// an IMU-rate accelerometer series, interleaving the velocity
/// measurements by timestamp, and records the gradient track. `t` and
/// `accel_forward` share the IMU timeline; `measurements` must be
/// time-sorted.
GradeTrack run_grade_ekf(const std::string& source_name,
                         std::span<const double> t,
                         std::span<const double> accel_forward,
                         const std::vector<VelocityMeasurement>& measurements,
                         const vehicle::VehicleParams& params,
                         const GradeEkfConfig& cfg = {});

/// Offline fixed-interval smoother (Rauch-Tung-Striebel) over the same
/// model: a forward EKF pass at a reduced rate followed by a backward
/// sweep, so each estimate uses the *whole* drive instead of only the
/// past. Halves the grade-transition lag that dominates the causal
/// filter's mean error — an offline-processing extension beyond the
/// paper (its system is causal). `rts_rate_hz` sets the smoothing grid;
/// the IMU input is block-averaged onto it.
GradeTrack run_grade_rts(const std::string& source_name,
                         std::span<const double> t,
                         std::span<const double> accel_forward,
                         const std::vector<VelocityMeasurement>& measurements,
                         const vehicle::VehicleParams& params,
                         const GradeEkfConfig& cfg = {},
                         double rts_rate_hz = 10.0);

/// Barometer-augmented variant: a 3-state [z, v, theta] filter that
/// additionally fuses barometer altitude, z' = z + v sin(theta) dt.
/// The paper rejects the barometer for its metre-level noise (Section
/// III-C1, [19]); this runner exists to *quantify* that design decision —
/// see bench_ablations. `barometer` must be time-sorted.
GradeTrack run_grade_ekf_with_baro(
    const std::string& source_name, std::span<const double> t,
    std::span<const double> accel_forward,
    const std::vector<VelocityMeasurement>& measurements,
    const std::vector<sensors::ScalarSample>& barometer,
    const vehicle::VehicleParams& params, const GradeEkfConfig& cfg = {},
    double baro_variance = 9.0);

}  // namespace rge::core
