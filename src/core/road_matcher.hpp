// Cached road matcher: the city-scale serving side of GPS map matching.
//
// The free functions in core/map_matching.hpp rebuilt the projection
// polyline on every call — O(road length) of trigonometry per matched
// point, which is superlinear at fleet scale. RoadMatcher builds the
// polyline once per (road, config) and answers nearest-point queries
// through a uniform hash-grid spatial index over its segments
// (road::SegmentIndex), expected O(1) per query via expanding ring
// search. A brute-force reference mode scans every segment with the same
// projection arithmetic; tests assert indexed results are bit-identical
// to it, so the index is a pure accelerator, never a behaviour change.
//
// shared_matcher() is a process-wide cache so the existing free-function
// entry points (match_point / match_track / rekey_track_by_road) hit a
// prebuilt matcher: N calls against the same road build the polyline and
// index exactly once (counter-verified by the `match.grid_build` obs
// metric).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/map_matching.hpp"
#include "road/spatial_index.hpp"

namespace rge::core {

class RoadMatcher {
 public:
  /// kIndexed answers global queries via the hash-grid ring search;
  /// kBruteForce linear-scans every segment. Both share one projection
  /// routine and one tie-break rule (lowest segment index), so their
  /// results are bit-identical — kBruteForce exists as the reference for
  /// parity tests and speedup benches.
  enum class Mode { kIndexed, kBruteForce };

  /// Builds the projection polyline (spacing cfg.grid_step_m, endpoint
  /// pinned exactly to the road length) and the segment index (cell size
  /// cfg.index_cell_m, or 2x grid_step_m when 0).
  explicit RoadMatcher(const road::Road& road, const MapMatchConfig& cfg = {});

  /// Match a single geodetic point against the whole road (no
  /// monotonicity).
  MatchedFix match_point(const math::GeoPoint& point,
                         Mode mode = Mode::kIndexed) const;

  /// Match a GPS track in order, enforcing forward progress within
  /// cfg.window_m of the previous match. Invalid fixes break the chain
  /// and the next valid fix re-acquires globally (where the index pays
  /// off). Windowed steps scan the bounded segment range directly in both
  /// modes, so mode changes only the global-acquisition search.
  std::vector<MatchedFix> match_track(
      const std::vector<sensors::GpsFix>& fixes,
      Mode mode = Mode::kIndexed) const;

  const MapMatchConfig& config() const { return cfg_; }
  double length_m() const { return s_.back(); }
  std::size_t vertex_count() const { return s_.size(); }
  const road::SegmentIndex& index() const { return index_; }

 private:
  /// Projection polyline sampled once from the road geometry.
  struct Polyline {
    std::vector<double> s;
    std::vector<double> east;
    std::vector<double> north;
  };

  RoadMatcher(const MapMatchConfig& cfg, const math::GeoPoint& anchor,
              Polyline&& polyline);

  MatchedFix to_fix(const road::SegmentMatch& m) const;
  road::SegmentMatch match_enu_global(double east, double north,
                                      Mode mode) const;
  road::SegmentMatch match_enu_window(double east, double north,
                                      std::size_t lo_seg,
                                      std::size_t hi_seg) const;

  MapMatchConfig cfg_;
  math::LocalTangentPlane ltp_;
  std::vector<double> s_;      ///< arc length at each polyline vertex
  std::vector<double> east_;   ///< ENU east of each vertex
  std::vector<double> north_;  ///< ENU north of each vertex
  road::SegmentIndex index_;
};

/// Content identity of a (road, config) pair: an FNV-1a hash over the
/// road's name, anchor, and every geometry sample (s / grade / elevation /
/// heading), alongside the cheap scalar fields kept for collision defence
/// and the full match config. Deliberately address-free: a Road destroyed
/// and a different one allocated at the recycled address hash to different
/// keys, so an MRU cache keyed this way can never serve a stale matcher
/// for the old geometry.
struct MatcherKey {
  std::uint64_t geometry_hash = 0;
  std::size_t n_samples = 0;
  double length_m = 0.0;
  MapMatchConfig cfg;

  bool operator==(const MatcherKey&) const = default;
};

/// Key for `road` matched under `cfg`. O(road samples) — one multiply per
/// 8-byte sample, no trigonometry — versus the O(road length) polyline +
/// index build it guards.
MatcherKey matcher_key(const road::Road& road, const MapMatchConfig& cfg);

/// Thread-safe MRU cache of built matchers, keyed by content identity
/// (matcher_key). Lookup and insert are serialized on an internal mutex;
/// the first miss for a key builds the matcher under the lock (one-off per
/// road; callers needing concurrent first-builds can construct RoadMatcher
/// directly). Each service shard owns one of these so shards never share
/// cache capacity — shared_matcher() below wraps the process-wide instance
/// the free-function matching entry points use.
class MatcherCache {
 public:
  /// Default capacity: above the road count one survey pass touches (97
  /// roads on the 164.8 km city). A pass cycles its roads in order, so an
  /// LRU smaller than that set evicts every matcher before its road comes
  /// round again and misses on every lookup. A matcher on that city
  /// averages ~36 KB, so all 97 take ~3.5 MB.
  static constexpr std::size_t kDefaultCapacity = 256;

  explicit MatcherCache(std::size_t capacity = kDefaultCapacity);

  /// The cached matcher for (road, cfg), building and inserting it on a
  /// miss (evicting the least recently used entry beyond capacity).
  std::shared_ptr<const RoadMatcher> get(const road::Road& road,
                                         const MapMatchConfig& cfg = {});

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  struct Entry {
    MatcherKey key;
    std::shared_ptr<const RoadMatcher> matcher;
  };

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::deque<Entry> entries_;  ///< front = most recently used
};

/// Process-wide matcher cache: MatcherCache::get on a global instance of
/// default capacity. Thread-safe.
std::shared_ptr<const RoadMatcher> shared_matcher(
    const road::Road& road, const MapMatchConfig& cfg = {});

}  // namespace rge::core
