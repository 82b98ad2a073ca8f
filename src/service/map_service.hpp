// Sharded city-scale map service: the ingest/serve layer on top of the
// streaming FusionAccumulator and the cached RoadMatcher.
//
// The paper's end goal is a crowd-sourced road-gradient map serving whole
// road networks. One process-wide accumulator per road does not survive
// that scale: every upload would serialize on one lock, and a snapshot
// would block ingest for the whole map. MapService partitions the network
// into fixed-length tiles along each road's arc length, assigns tiles to
// shards by a deterministic hash, and gives each shard its own
// FusionAccumulator per road (full road grid; only the shard's tiles are
// ever touched) plus its own MatcherCache. Uploads are split at tile
// boundaries — at boundary cell indices of the road's fusion grid, a pure
// function of the grid, never of thread count — and each shard applies its
// sub-ranges with FusionAccumulator::add_track_cells, whose cell-wise
// arithmetic is bit-identical to an unsplit add. The cell-wise union of
// all shards therefore reproduces single-accumulator serial fusion
// exactly, for any shard count and any pool size.
//
// Serving is epoch/double-buffered: publish() finalizes every shard's
// covered cells into an immutable ServiceSnapshot and swaps it in under a
// pointer lock held O(1); readers grab the current snapshot with
// snapshot() and keep reading it (shared_ptr-pinned) while ingest and the
// next publish proceed. Rebalancing to a different shard count merges the
// old shards' sums per road (FusionAccumulator::merge_cells over the new
// tile ranges) — exact, because tiles partition cells so every cell's sums
// live in exactly one old shard.
//
// Determinism rules (pinned by tests/test_map_service):
//  * ingest() applies each shard's work items in upload order, so per-cell
//    accumulation order equals upload order regardless of shard count or
//    pool size — published maps are bit-identical across 1/2/8 threads and
//    1/4/16 shards;
//  * tile boundaries are cell indices (tile t owns cells [t*cpt,
//    (t+1)*cpt)), so the split is exact and never duplicates or drops a
//    cell;
//  * ingest_one() is thread-safe (per-shard locking) but concurrent
//    streaming callers race for upload order; use ingest() batches when
//    bit-reproducibility matters.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/road_matcher.hpp"
#include "core/track_fusion.hpp"
#include "road/network.hpp"

namespace rge::runtime {
class ThreadPool;
}

namespace rge::service {

/// Index of a road within the service's network (construction order).
using RoadId = std::uint32_t;

struct MapServiceConfig {
  /// Number of shards tiles are hashed onto. >= 1.
  std::size_t n_shards = 4;
  /// Target tile length along a road's arc (m); rounded to a whole number
  /// of fusion-grid cells (>= 1 cell).
  double tile_length_m = 2000.0;
  /// Fusion settings for every per-shard accumulator (distance_step_m is
  /// the serving grid's cell size).
  core::FusionConfig fusion;
  /// Map-matching settings for the per-shard matcher caches (each of
  /// core::MatcherCache's default capacity).
  core::MapMatchConfig match;
  /// Serving threshold: cells covered by fewer tracks are left out of
  /// published snapshots (min 1 — a partially covered city grid still
  /// serves what it has).
  std::uint32_t min_coverage = 1;
};

/// One gradient-track upload, keyed by road odometry (track.s is arc
/// length along the road, e.g. after rekey_track_by_road).
struct TrackUpload {
  RoadId road = 0;
  core::GradeTrack track;
};

/// Served view of one road: the covered cells of its fusion grid.
struct RoadView {
  RoadId road = 0;
  core::GradeTrack track;               ///< covered cells, ascending s
  std::vector<std::size_t> cells;       ///< grid cell index per sample
  std::vector<std::uint32_t> coverage;  ///< contributing tracks per sample

  std::size_t size() const { return cells.size(); }
};

/// Immutable published map: one RoadView per road (empty view when
/// nothing is covered yet). Readers hold it via shared_ptr; it never
/// changes after publish.
struct ServiceSnapshot {
  std::uint64_t epoch = 0;
  std::vector<RoadView> roads;  ///< indexed by RoadId
};

/// Ingest-side counters of one shard (mirrored into per-shard obs
/// counters `service.shard<k>.*` when the observability layer is on).
struct ShardStats {
  std::size_t shard = 0;
  std::size_t n_tiles = 0;
  std::size_t n_roads = 0;             ///< roads with at least one tile here
  std::uint64_t tracks_ingested = 0;   ///< tile-split sub-track applications
  std::uint64_t samples_ingested = 0;  ///< upload samples routed here
  std::uint64_t covered_cells = 0;     ///< cells with coverage >= 1
};

class MapService {
 public:
  /// Builds the tile partition and every shard's (empty) accumulators up
  /// front, so ingest never mutates the shard structure.
  /// @throws std::invalid_argument on an empty network, n_shards == 0, or
  /// a non-positive tile length / fusion step.
  MapService(road::RoadNetwork network, MapServiceConfig cfg = {});
  ~MapService();

  MapService(const MapService&) = delete;
  MapService& operator=(const MapService&) = delete;

  std::size_t n_shards() const { return shards_.size(); }
  std::size_t n_roads() const { return network_.size(); }
  std::size_t n_tiles() const { return n_tiles_; }
  const MapServiceConfig& config() const { return cfg_; }
  const road::Road& road(RoadId id) const;
  const core::FusionGrid& grid(RoadId id) const;
  /// Tile count of one road and the deterministic tile -> shard map.
  std::size_t tiles_of(RoadId id) const;
  std::size_t shard_of_tile(RoadId id, std::size_t tile) const;

  /// Deterministic batch ingest: splits every upload at tile boundaries,
  /// routes the sub-ranges to their shards, and applies each shard's work
  /// in upload order (shards run concurrently on the pool when given).
  /// Published maps after publish() are bit-identical for any pool size
  /// and any shard count.
  /// @throws std::out_of_range on an unknown road id.
  void ingest(const std::vector<TrackUpload>& uploads,
              runtime::ThreadPool* pool = nullptr);

  /// Thread-safe streaming ingest of a single upload (locks only the
  /// shards its tiles hash to, in ascending shard order). Concurrent
  /// callers race for per-cell accumulation order — deterministic only
  /// from a single thread.
  void ingest_one(const TrackUpload& upload);

  /// Rebuild the published snapshot from the shards' current sums and
  /// swap it in (epoch + 1). Shards finalize, then roads merge, on the
  /// pool when given. Ingest proceeds concurrently except for the
  /// brief per-shard finalize, and readers are never blocked: they keep
  /// the previous buffer until the O(1) pointer swap. Returns the new
  /// epoch.
  std::uint64_t publish(runtime::ThreadPool* pool = nullptr);

  /// The latest published map (epoch 0 / empty views before the first
  /// publish). O(1): a shared_ptr copy under a pointer mutex.
  std::shared_ptr<const ServiceSnapshot> snapshot() const;
  std::uint64_t epoch() const;

  /// All shards' sums for one road merged into a single accumulator over
  /// the road's full grid — exact (tiles partition cells, so each cell's
  /// sums come from exactly one shard). The rebalance/audit path.
  core::FusionAccumulator merged_accumulator(RoadId id) const;
  /// merged_accumulator finalized to the served view of one road.
  RoadView merged_road_view(RoadId id) const;

  /// Re-partition onto a different shard count by merging every tile's
  /// cell range out of the old shards (exact; published maps before and
  /// after are bit-identical). NOT safe concurrently with ingest_one /
  /// ingest / publish — quiesce writers first.
  void rebalance(std::size_t new_n_shards);

  /// The road's matcher served from its home shard's cache (thread-safe).
  std::shared_ptr<const core::RoadMatcher> matcher(RoadId id) const;

  /// Per-shard counters restart at zero on rebalance() (tiles move to
  /// different shards, so the old attribution is meaningless).
  std::vector<ShardStats> shard_stats() const;
  /// Durable service-level ingest total: unlike the per-shard stats this
  /// survives rebalance(), so conservation checks (samples in == samples
  /// accounted) hold across any re-sharding schedule.
  std::uint64_t total_samples_ingested() const {
    return samples_total_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard;
  struct SubTrack;  // one upload's cell range on one shard

  void split_upload(const TrackUpload& upload, std::size_t upload_index,
                    std::vector<std::vector<SubTrack>>& per_shard) const;
  void check_road(RoadId id) const;
  void build_shards(std::size_t n_shards);

  road::RoadNetwork network_;
  MapServiceConfig cfg_;
  std::vector<core::FusionGrid> grids_;        ///< per road
  std::vector<std::size_t> cells_per_tile_;    ///< per road
  std::vector<std::size_t> tiles_per_road_;    ///< per road
  std::size_t n_tiles_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> samples_total_{0};  ///< rebalance-durable

  mutable std::mutex publish_mu_;  ///< serializes publishers/rebalance
  mutable std::mutex snap_mu_;     ///< guards the published pointer only
  std::shared_ptr<const ServiceSnapshot> published_;
  std::uint64_t epoch_ = 0;  ///< guarded by snap_mu_
};

}  // namespace rge::service
