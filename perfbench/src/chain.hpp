// The chain under test, driven one epoch at a time through the library's
// public calls, each timed from outside:
//
//   survey batch  -> core::run_pipeline_batch      ("pipeline")
//                 -> core::rekey_track_by_road     ("match")
//                 -> MapService::ingest            ("service.ingest")
//                 -> MapService::publish           ("service.publish")
//                 -> MapService::snapshot          ("service.snapshot")
//                 -> planning::build_network_graph ("graph.build")
//                 -> planning::CsrGraph            ("graph.freeze")
//                 -> CsrGraph::route burst         ("query")
//   replay rounds -> ingest -> publish -> snapshot [-> build -> freeze]
//                 -> route burst
//   online batch  -> core::run_online_batch        ("online")
//
// Every output is checked after the call that produced it; check time is
// kept out of every reported figure.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet.hpp"
#include "planning/csr_graph.hpp"
#include "runtime/metrics.hpp"
#include "service/map_service.hpp"
#include "tracer.hpp"
#include "vehicle/params.hpp"

namespace perfbench {

/// How much of each layer one epoch drives (besides the fleet's batches).
struct Mix {
  std::size_t queries_per_burst = 256;  ///< route queries after a publish
  std::size_t serve_rounds = 0;         ///< replayed-upload rounds per epoch
  std::size_t refresh_every = 4;        ///< replay rounds per graph refresh
};

/// Deliberate violations, one per correctness check, so the benchmark's
/// own tests can show that each check fails the run.
struct Faults {
  bool alt = false;          ///< a sampled ALT route's cost is perturbed
  bool served_cell = false;  ///< one served cell reads NaN
  bool online = false;       ///< one online estimate reads NaN
  bool parity = false;       ///< the width-1 pipeline output differs
};

/// Work done by one call and the wall time it took.
struct Rate {
  double work = 0.0;
  double seconds = 0.0;
};

/// Samples and counts of one run phase.
struct Ledger {
  // End-to-end rates, one (work, wall) sample per call.
  std::vector<Rate> survey_km;       ///< new map (on a wrap) .. freeze
  std::vector<Rate> online_drive_s;  ///< driving seconds streamed
  std::vector<Rate> ingest_fixes;
  std::vector<Rate> burst_queries;
  // End-to-end latency samples.
  std::vector<double> publish_ms;
  std::vector<double> refresh_ms;  ///< publish start -> graph frozen
  std::vector<double> query_us;
  std::vector<double> trip_ms;  ///< estimate_gradient per trip (width 1)

  // Work done, per layer.
  std::uint64_t epochs = 0, trips = 0, tracks = 0, uploads = 0, fixes = 0;
  std::uint64_t publishes = 0, refreshes = 0, queries = 0;
  std::uint64_t imu_steps = 0, lane_slots = 0;
  std::uint64_t fallback_cells = 0, settled = 0, relaxed = 0;
  std::uint64_t alt_mismatches = 0;
  std::uint64_t pipeline_failed = 0, match_failed = 0;
  double snapshot_us = 0.0, cost_tables_ms = 0.0, landmarks_ms = 0.0;
  std::int64_t epoch_ns = 0;  ///< epoch wall, checks excluded

  // Outcome.
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> violations;

  void fail(std::uint64_t n, const std::string& why);
};

struct MapQuality {
  double mre_pct = 0.0;      ///< mean relative error vs true grade
  double covered_pct = 0.0;  ///< served cells over grid cells
  std::uint64_t cells = 0;   ///< served cells
};

/// One vehicle's replayed upload batches (map_serving).
using Replay = std::vector<std::vector<rge::service::TrackUpload>>;

/// Fused tracks of `traces`: run_pipeline_batch on width - 1 workers plus
/// the caller, or estimate_gradient trip by trip at width 1 (which also
/// records per-trip times and leaf spans). Validates like
/// run_pipeline_batch does.
std::vector<rge::core::GradeTrack> estimate(
    const std::vector<rge::sensors::SensorTrace>& traces,
    const rge::vehicle::VehicleParams& params, Par& par,
    rge::runtime::StageMetrics* stage = nullptr, Tracer* tracer = nullptr,
    std::vector<double>* trip_ms = nullptr);

/// The set-up survey: estimates every survey trip once, cuts the rekeyed
/// tracks into per-vehicle sub-spans and deals them into rounds of
/// `per_round` uploads.
Replay make_replay(const Fleet& fleet, Par& par, std::uint64_t seed,
                   std::size_t per_round);

class Chain {
 public:
  /// `fleet` outlives the chain; at width 1 the chain briefly moves online
  /// traces out of it and back, so it is held non-const.
  Chain(Fleet& fleet, const Replay& replay, const Mix& mix, std::size_t width,
        std::uint64_t seed, Tracer& tracer, const Faults& faults);
  ~Chain();
  Chain(const Chain&) = delete;
  Chain& operator=(const Chain&) = delete;

  /// One survey batch, the mix's replay rounds, one online batch.
  void epoch();
  /// Streams every online batch not streamed yet (completes the warm-up).
  void online_rest();

  std::size_t survey_batches_per_cycle() const { return fleet_.survey.size(); }
  Ledger& ledger() { return ledger_; }
  /// Hands per-stage thread time of run_pipeline_batch to `m` (or stops).
  void set_stage_metrics(rge::runtime::StageMetrics* m) { stage_ = m; }

  /// Quality of the map currently published.
  MapQuality map_quality() const;
  /// Mean |final online estimate - truth| over every lane streamed (deg);
  /// NaN until every online batch has run once.
  double online_mae_deg() const;
  /// max / mean samples_ingested over the service's shards.
  double shard_skew() const;
  std::size_t graph_edges() const;

 private:
  class CheckScope;

  void open_service();
  void survey(const SurveyBatch& b, bool new_map);
  std::vector<rge::core::GradeTrack> pipeline(const SurveyBatch& b);
  std::vector<rge::service::TrackUpload> match(
      const SurveyBatch& b, std::vector<rge::core::GradeTrack>& fused);
  void ingest(const std::vector<rge::service::TrackUpload>& uploads);
  void publish(bool refresh);
  void refresh_graph();
  void burst();
  void online(std::size_t batch);
  void check_snapshot();

  Fleet& fleet_;
  const Replay& replay_;
  Mix mix_;
  std::uint64_t seed_;
  Tracer& tracer_;
  Faults faults_;
  Par par_;
  rge::vehicle::VehicleParams params_;
  rge::runtime::StageMetrics* stage_ = nullptr;

  std::unique_ptr<rge::service::MapService> service_;
  std::shared_ptr<const rge::service::ServiceSnapshot> snap_;
  std::unique_ptr<rge::planning::CsrGraph> graph_;
  std::vector<rge::planning::QueryContext> contexts_;  ///< one per worker
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;

  std::size_t survey_cursor_ = 0, online_cursor_ = 0, replay_cursor_ = 0;
  std::uint64_t epoch_no_ = 0, round_no_ = 0, query_no_ = 0;
  std::int64_t check_ns_ = 0;  ///< time spent checking, ever
  std::vector<double> online_abs_err_deg_;  ///< per batch, NaN until run

  Ledger ledger_;
};

}  // namespace perfbench
