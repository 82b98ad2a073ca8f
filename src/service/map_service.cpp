#include "service/map_service.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"

namespace rge::service {

namespace {

/// Fusion grid over a whole road: [0, length] with the service's cell
/// size, laid out exactly like make_overlap_grid (integer-indexed, final
/// sample pinned to the road length).
core::FusionGrid full_road_grid(double length_m, double step) {
  if (!(length_m > 0.0)) {
    throw std::invalid_argument("MapService: road with non-positive length");
  }
  core::FusionGrid grid;
  grid.lo = 0.0;
  grid.hi = length_m;
  grid.step = step;
  const auto whole_steps =
      static_cast<std::size_t>(std::floor(length_m / step));
  const bool exact =
      static_cast<double>(whole_steps) * step >= length_m - 1e-9 * step;
  grid.n = whole_steps + 1 + (exact ? 0 : 1);
  return grid;
}

/// Deterministic tile -> shard assignment: FNV-1a over (road, tile).
/// A pure function of the identifiers — never of thread count, pool size,
/// or ingest order — so routing is reproducible everywhere.
std::uint64_t tile_hash(RoadId road, std::size_t tile) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(road);
  mix(tile);
  return h;
}

}  // namespace

/// One upload's contribution to one shard: the cell range of a single
/// tile (add_track_cells clamps to the track's actual span).
struct MapService::SubTrack {
  std::size_t upload = 0;
  RoadId road = 0;
  const core::GradeTrack* track = nullptr;
  std::size_t cell_begin = 0;
  std::size_t cell_end = 0;
};

struct MapService::Shard {
  std::size_t index;
  std::size_t n_tiles = 0;
  /// Per road (indexed by RoadId): accumulator over the FULL road grid,
  /// allocated only when this shard owns at least one of the road's
  /// tiles; cells outside owned tiles are never touched. The structure is
  /// fixed after construction — only the accumulators mutate, under mu.
  std::vector<std::unique_ptr<core::FusionAccumulator>> acc;
  core::MatcherCache matchers;
  std::mutex mu;  ///< guards the accumulators and the counters below
  std::uint64_t tracks_ingested = 0;
  std::uint64_t samples_ingested = 0;
#if RGE_OBS_ENABLED
  // Per-shard obs counters (service.shard<k>.tracks / .samples), bumped
  // alongside the local counters when the obs layer is runtime-enabled.
  obs::Counter c_tracks;
  obs::Counter c_samples;
#endif

  Shard(std::size_t idx, std::size_t n_roads)
      : index(idx),
        acc(n_roads)
#if RGE_OBS_ENABLED
        ,
        c_tracks("service.shard" + std::to_string(idx) + ".tracks"),
        c_samples("service.shard" + std::to_string(idx) + ".samples")
#endif
  {
  }

  void count_ingest(std::uint64_t tracks, std::uint64_t samples) {
    tracks_ingested += tracks;
    samples_ingested += samples;
#if RGE_OBS_ENABLED
    if (obs::enabled()) {
      c_tracks.add(static_cast<std::int64_t>(tracks));
      c_samples.add(static_cast<std::int64_t>(samples));
    }
#endif
  }
};

MapService::MapService(road::RoadNetwork network, MapServiceConfig cfg)
    : network_(std::move(network)), cfg_(cfg) {
  if (network_.size() == 0) {
    throw std::invalid_argument("MapService: empty road network");
  }
  if (cfg_.n_shards == 0) {
    throw std::invalid_argument("MapService: n_shards must be >= 1");
  }
  if (!(cfg_.tile_length_m > 0.0) || !(cfg_.fusion.distance_step_m > 0.0)) {
    throw std::invalid_argument(
        "MapService: tile_length_m and distance_step_m must be positive");
  }
  grids_.reserve(network_.size());
  cells_per_tile_.reserve(network_.size());
  tiles_per_road_.reserve(network_.size());
  for (const auto& nr : network_.roads()) {
    const core::FusionGrid grid =
        full_road_grid(nr.road.length_m(), cfg_.fusion.distance_step_m);
    // Tile boundaries are CELL indices: tile t owns cells [t*cpt,
    // (t+1)*cpt). Splitting at cell granularity keeps every cell in
    // exactly one tile, which is what makes the sharded sums an exact
    // partition of the single-accumulator sums.
    const auto cpt = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::llround(cfg_.tile_length_m / grid.step)));
    const std::size_t tiles = (grid.n + cpt - 1) / cpt;
    grids_.push_back(grid);
    cells_per_tile_.push_back(cpt);
    tiles_per_road_.push_back(tiles);
    n_tiles_ += tiles;
  }
  build_shards(cfg_.n_shards);
  auto initial = std::make_shared<ServiceSnapshot>();
  initial->roads.resize(network_.size());
  for (std::size_t r = 0; r < network_.size(); ++r) {
    initial->roads[r].road = static_cast<RoadId>(r);
  }
  published_ = std::move(initial);
}

MapService::~MapService() = default;

void MapService::build_shards(std::size_t n_shards) {
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(n_shards);
  for (std::size_t s = 0; s < n_shards; ++s) {
    shards.push_back(std::make_unique<Shard>(s, network_.size()));
  }
  for (std::size_t r = 0; r < network_.size(); ++r) {
    for (std::size_t t = 0; t < tiles_per_road_[r]; ++t) {
      Shard& shard =
          *shards[tile_hash(static_cast<RoadId>(r), t) % n_shards];
      ++shard.n_tiles;
      if (!shard.acc[r]) {
        shard.acc[r] = std::make_unique<core::FusionAccumulator>(
            grids_[r], cfg_.fusion);
      }
    }
  }
  shards_ = std::move(shards);
}

void MapService::check_road(RoadId id) const {
  if (id >= network_.size()) {
    throw std::out_of_range("MapService: unknown road id " +
                            std::to_string(id));
  }
}

const road::Road& MapService::road(RoadId id) const {
  check_road(id);
  return network_.roads()[id].road;
}

const core::FusionGrid& MapService::grid(RoadId id) const {
  check_road(id);
  return grids_[id];
}

std::size_t MapService::tiles_of(RoadId id) const {
  check_road(id);
  return tiles_per_road_[id];
}

std::size_t MapService::shard_of_tile(RoadId id, std::size_t tile) const {
  check_road(id);
  return tile_hash(id, tile) % shards_.size();
}

void MapService::split_upload(
    const TrackUpload& upload, std::size_t upload_index,
    std::vector<std::vector<SubTrack>>& per_shard) const {
  const core::GradeTrack& track = upload.track;
  if (track.s.empty()) {
    throw std::invalid_argument("MapService::ingest: upload without s");
  }
  const RoadId r = upload.road;
  const core::FusionGrid& grid = grids_[r];
  const std::size_t cpt = cells_per_tile_[r];
  const std::size_t tiles = tiles_per_road_[r];
  const double s0 = track.s.front();
  const double s1 = track.s.back();
  if (s1 < grid.lo || s0 > grid.hi) return;  // off-grid upload: no cells
  // Conservative tile range (one tile of slop per side): add_track_cells
  // clamps to the cells the track actually covers, so slop tiles cost an
  // O(1) no-op add, never a wrong cell. The arithmetic is a pure function
  // of (span, grid), hence deterministic.
  const double rel0 = std::max(0.0, s0 - grid.lo) / grid.step;
  const double rel1 = std::max(0.0, s1 - grid.lo) / grid.step;
  std::size_t t_lo = std::min<std::size_t>(
      tiles - 1, static_cast<std::size_t>(rel0) / cpt);
  if (t_lo > 0) --t_lo;
  const std::size_t t_hi = std::min<std::size_t>(
      tiles - 1, static_cast<std::size_t>(rel1) / cpt + 1);
  for (std::size_t t = t_lo; t <= t_hi; ++t) {
    SubTrack st;
    st.upload = upload_index;
    st.road = r;
    st.track = &track;
    st.cell_begin = t * cpt;
    st.cell_end = std::min(grid.n, (t + 1) * cpt);
    per_shard[tile_hash(r, t) % shards_.size()].push_back(st);
  }
}

namespace {

/// Upload samples falling inside the cell range [at(cb), at(ce-1)] —
/// the per-shard share of the upload's fixes (stats only).
std::uint64_t samples_in_range(const core::GradeTrack& track, double lo_m,
                               double hi_m) {
  const auto lo = std::lower_bound(track.s.begin(), track.s.end(), lo_m);
  const auto hi = std::upper_bound(track.s.begin(), track.s.end(), hi_m);
  return lo < hi ? static_cast<std::uint64_t>(hi - lo) : 0u;
}

using CoverageSnapshot = core::FusionAccumulator::CoverageSnapshot;

/// Appends samples [b, e) of `piece` to `view`.
void append_samples(const CoverageSnapshot& piece, std::size_t b,
                    std::size_t e, RoadView& view) {
  const auto tail = [b, e](auto& to, const auto& from) {
    const auto first = from.begin() + static_cast<std::ptrdiff_t>(b);
    to.insert(to.end(), first, first + static_cast<std::ptrdiff_t>(e - b));
  };
  tail(view.cells, piece.cells);
  tail(view.coverage, piece.coverage);
  tail(view.track.t, piece.track.t);
  tail(view.track.s, piece.track.s);
  tail(view.track.grade, piece.track.grade);
  tail(view.track.grade_var, piece.track.grade_var);
  tail(view.track.speed, piece.track.speed);
}

/// One road's served view from its shards' covered pieces. Each piece is
/// ascending in cell index and tiles partition the grid, so the pieces'
/// cells are disjoint and the merged order is unique. A lone piece is
/// taken by move; k > 1 pieces are merged run by run: the piece holding
/// the lowest unmerged cell contributes every cell below the other
/// pieces' lowest unmerged cell. Pieces are consumed.
void merge_pieces(const std::vector<CoverageSnapshot*>& pieces,
                  RoadView& view) {
  if (pieces.empty()) return;
  if (pieces.size() == 1) {
    CoverageSnapshot& p = *pieces.front();
    view.cells = std::move(p.cells);
    view.coverage = std::move(p.coverage);
    view.track = std::move(p.track);
    view.track.source = "map-service";
    return;
  }
  std::size_t total = 0;
  for (const CoverageSnapshot* p : pieces) total += p->size();
  view.cells.reserve(total);
  view.coverage.reserve(total);
  view.track.source = "map-service";
  view.track.t.reserve(total);
  view.track.s.reserve(total);
  view.track.grade.reserve(total);
  view.track.grade_var.reserve(total);
  view.track.speed.reserve(total);

  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const std::size_t k = pieces.size();
  std::vector<std::size_t> cursor(k, 0);  // first unmerged sample per piece
  for (;;) {
    std::size_t lo = k;             // piece with the lowest unmerged cell
    std::size_t lo_cell = kNone;
    std::size_t stop = kNone;       // lowest unmerged cell of the others
    for (std::size_t i = 0; i < k; ++i) {
      const auto& cells = pieces[i]->cells;
      if (cursor[i] == cells.size()) continue;
      const std::size_t c = cells[cursor[i]];
      if (c < lo_cell) {
        stop = lo_cell;
        lo = i;
        lo_cell = c;
      } else if (c < stop) {
        stop = c;
      }
    }
    if (lo == k) break;
    const CoverageSnapshot& p = *pieces[lo];
    const std::size_t b = cursor[lo];
    const std::size_t e = static_cast<std::size_t>(
        std::lower_bound(p.cells.begin() + static_cast<std::ptrdiff_t>(b),
                         p.cells.end(), stop) -
        p.cells.begin());
    append_samples(p, b, e, view);
    cursor[lo] = e;
  }
}

}  // namespace

void MapService::ingest(const std::vector<TrackUpload>& uploads,
                        runtime::ThreadPool* pool) {
  OBS_SPAN("service.ingest");
  std::vector<std::vector<SubTrack>> per_shard(shards_.size());
  for (std::size_t i = 0; i < uploads.size(); ++i) {
    check_road(uploads[i].road);
    split_upload(uploads[i], i, per_shard);
  }
  // Shards run concurrently, but each shard applies its items in upload
  // order (split_upload pushed them that way), so per-cell accumulation
  // order equals upload order for ANY pool size and ANY shard count —
  // the bit-reproducibility contract.
  const auto apply = [&](std::size_t s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    std::uint64_t tracks = 0;
    std::uint64_t samples = 0;
    for (const SubTrack& st : per_shard[s]) {
      shard.acc[st.road]->add_track_cells(*st.track, st.cell_begin,
                                          st.cell_end);
      ++tracks;
      const core::FusionGrid& grid = grids_[st.road];
      samples += samples_in_range(*st.track, grid.at(st.cell_begin),
                                  grid.at(st.cell_end - 1));
    }
    shard.count_ingest(tracks, samples);
    samples_total_.fetch_add(samples, std::memory_order_relaxed);
  };
  if (pool != nullptr) {
    runtime::parallel_for(*pool, shards_.size(), apply);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) apply(s);
  }
  OBS_COUNT("service.uploads", static_cast<std::int64_t>(uploads.size()));
}

void MapService::ingest_one(const TrackUpload& upload) {
  OBS_SPAN("service.ingest_one");
  check_road(upload.road);
  std::vector<std::vector<SubTrack>> per_shard(shards_.size());
  split_upload(upload, 0, per_shard);
  // Ascending shard order (the natural iteration) keeps multi-shard lock
  // acquisition deadlock-free against concurrent callers.
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (per_shard[s].empty()) continue;
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    std::uint64_t samples = 0;
    for (const SubTrack& st : per_shard[s]) {
      shard.acc[st.road]->add_track_cells(*st.track, st.cell_begin,
                                          st.cell_end);
      const core::FusionGrid& grid = grids_[st.road];
      samples += samples_in_range(*st.track, grid.at(st.cell_begin),
                                  grid.at(st.cell_end - 1));
    }
    shard.count_ingest(per_shard[s].size(), samples);
    samples_total_.fetch_add(samples, std::memory_order_relaxed);
  }
  OBS_COUNT("service.uploads", 1);
}

std::uint64_t MapService::publish(runtime::ThreadPool* pool) {
  OBS_SPAN("service.publish");
  std::lock_guard<std::mutex> publishers(publish_mu_);

  // Phase 1 — per-shard finalize: each shard's covered cells, extracted
  // under its ingest lock (held only for the scan, not for the merge).
  // Cells live in exactly one shard, so per-shard coverage thresholds
  // equal global ones.
  struct Piece {
    RoadId road;
    CoverageSnapshot snap;
  };
  std::vector<std::vector<Piece>> pieces(shards_.size());
  const auto finalize = [&](std::size_t s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    for (std::size_t r = 0; r < network_.size(); ++r) {
      if (!shard.acc[r]) continue;
      auto snap = shard.acc[r]->snapshot_covered(cfg_.min_coverage);
      if (snap.cells.empty()) continue;
      pieces[s].push_back(Piece{static_cast<RoadId>(r), std::move(snap)});
    }
  };
  if (pool != nullptr) {
    runtime::parallel_for(*pool, shards_.size(), finalize);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) finalize(s);
  }

  // Phase 2 — per road, merge its disjoint per-shard pieces into the
  // served view, ordered by cell index. No shard lock is held here; ingest
  // proceeds. Each task writes only its own road's view and reads or moves
  // only that road's pieces, so roads merge concurrently on the pool.
  auto next = std::make_shared<ServiceSnapshot>();
  next->roads.resize(network_.size());
  std::vector<std::vector<CoverageSnapshot*>> by_road(network_.size());
  for (auto& shard_pieces : pieces) {
    for (auto& p : shard_pieces) by_road[p.road].push_back(&p.snap);
  }
  const auto merge_road = [&](std::size_t r) {
    RoadView& view = next->roads[r];
    view.road = static_cast<RoadId>(r);
    merge_pieces(by_road[r], view);
  };
  if (pool != nullptr) {
    runtime::parallel_for(*pool, network_.size(), merge_road);
  } else {
    for (std::size_t r = 0; r < network_.size(); ++r) merge_road(r);
  }

  std::uint64_t epoch = 0;
  {
    std::lock_guard<std::mutex> lock(snap_mu_);
    epoch = ++epoch_;
    next->epoch = epoch;
    published_ = std::move(next);
  }
  OBS_COUNT("service.publish", 1);
  return epoch;
}

std::shared_ptr<const ServiceSnapshot> MapService::snapshot() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return published_;
}

std::uint64_t MapService::epoch() const {
  std::lock_guard<std::mutex> lock(snap_mu_);
  return epoch_;
}

core::FusionAccumulator MapService::merged_accumulator(RoadId id) const {
  check_road(id);
  core::FusionAccumulator out(grids_[id], cfg_.fusion);
  // Tiles partition cells, so each cell's sums are nonzero in exactly one
  // shard; adding the other shards' zeros is exact (x + 0 == x in IEEE
  // arithmetic for finite x), making the merge order irrelevant bit-wise.
  for (const auto& shard : shards_) {
    if (!shard->acc[id]) continue;
    std::lock_guard<std::mutex> lock(shard->mu);
    out.merge(*shard->acc[id]);
  }
  return out;
}

RoadView MapService::merged_road_view(RoadId id) const {
  const core::FusionAccumulator merged = merged_accumulator(id);
  auto snap = merged.snapshot_covered(cfg_.min_coverage);
  RoadView view;
  view.road = id;
  view.track = std::move(snap.track);
  view.track.source = "map-service";
  view.cells = std::move(snap.cells);
  view.coverage = std::move(snap.coverage);
  return view;
}

void MapService::rebalance(std::size_t new_n_shards) {
  if (new_n_shards == 0) {
    throw std::invalid_argument("MapService::rebalance: n_shards >= 1");
  }
  std::lock_guard<std::mutex> publishers(publish_mu_);
  // Exact redistribution: per road, merge the old shards into one
  // accumulator (cells are disjoint across shards, so this is bit-exact),
  // then seed each new shard's accumulator with the cell ranges of the
  // tiles it now owns. Per-shard ingest counters restart at zero — the
  // service-level totals are the durable numbers.
  std::vector<core::FusionAccumulator> merged;
  merged.reserve(network_.size());
  for (std::size_t r = 0; r < network_.size(); ++r) {
    merged.push_back(merged_accumulator(static_cast<RoadId>(r)));
  }
  build_shards(new_n_shards);
  cfg_.n_shards = new_n_shards;
  for (std::size_t r = 0; r < network_.size(); ++r) {
    const std::size_t cpt = cells_per_tile_[r];
    for (std::size_t t = 0; t < tiles_per_road_[r]; ++t) {
      Shard& shard =
          *shards_[tile_hash(static_cast<RoadId>(r), t) % new_n_shards];
      shard.acc[r]->merge_cells(merged[r], t * cpt,
                                std::min(grids_[r].n, (t + 1) * cpt));
    }
  }
  OBS_COUNT("service.rebalance", 1);
}

std::shared_ptr<const core::RoadMatcher> MapService::matcher(
    RoadId id) const {
  check_road(id);
  Shard& home = *shards_[shard_of_tile(id, 0)];
  return home.matchers.get(network_.roads()[id].road, cfg_.match);
}

std::vector<ShardStats> MapService::shard_stats() const {
  std::vector<ShardStats> stats;
  stats.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    ShardStats st;
    st.shard = shard->index;
    st.n_tiles = shard->n_tiles;
    st.tracks_ingested = shard->tracks_ingested;
    st.samples_ingested = shard->samples_ingested;
    for (std::size_t r = 0; r < network_.size(); ++r) {
      if (!shard->acc[r]) continue;
      ++st.n_roads;
      for (const std::uint32_t c : shard->acc[r]->coverage()) {
        if (c > 0) ++st.covered_cells;
      }
    }
    stats.push_back(st);
  }
  return stats;
}

}  // namespace rge::service
