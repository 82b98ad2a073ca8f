#include "core/road_matcher.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <deque>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"

namespace rge::core {

namespace {

/// Projection polyline sample positions: integer-indexed (no float
/// accumulation over long roads) with the last vertex pinned exactly to
/// the road length, mirroring the fusion grid's layout rules.
std::vector<double> polyline_arclengths(double length_m, double step) {
  if (!(step > 0.0)) {
    throw std::invalid_argument("RoadMatcher: grid_step_m must be positive");
  }
  const auto whole_steps =
      static_cast<std::size_t>(std::floor(length_m / step));
  const bool exact =
      static_cast<double>(whole_steps) * step >= length_m - 1e-9 * step;
  const std::size_t n = whole_steps + 1 + (exact ? 0 : 1);
  std::vector<double> s(std::max<std::size_t>(n, 2));
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    s[i] = static_cast<double>(i) * step;
  }
  s.back() = length_m;
  return s;
}

road::SegmentIndex build_index(const std::vector<double>& east,
                               const std::vector<double>& north,
                               const MapMatchConfig& cfg) {
  const double cell =
      cfg.index_cell_m > 0.0 ? cfg.index_cell_m : 2.0 * cfg.grid_step_m;
  return road::SegmentIndex({east.data(), east.size()},
                            {north.data(), north.size()}, cell);
}

}  // namespace

RoadMatcher::RoadMatcher(const road::Road& road, const MapMatchConfig& cfg)
    : RoadMatcher(cfg, road.anchor(), [&] {
        Polyline p;
        p.s = polyline_arclengths(road.length_m(), cfg.grid_step_m);
        p.east.resize(p.s.size());
        p.north.resize(p.s.size());
        for (std::size_t i = 0; i < p.s.size(); ++i) {
          const auto pos = road.position_at(p.s[i]);
          p.east[i] = pos.east_m;
          p.north[i] = pos.north_m;
        }
        return p;
      }()) {}

RoadMatcher::RoadMatcher(const MapMatchConfig& cfg,
                         const math::GeoPoint& anchor, Polyline&& polyline)
    : cfg_(cfg),
      ltp_(anchor),
      s_(std::move(polyline.s)),
      east_(std::move(polyline.east)),
      north_(std::move(polyline.north)),
      index_(build_index(east_, north_, cfg_)) {
  OBS_COUNT("match.grid_build", 1);
}

MatchedFix RoadMatcher::to_fix(const road::SegmentMatch& m) const {
  MatchedFix fix;
  fix.s_m = s_[m.segment] + m.t * (s_[m.segment + 1] - s_[m.segment]);
  fix.lateral_m = std::sqrt(m.d2);
  fix.valid = fix.lateral_m <= cfg_.max_lateral_m;
  return fix;
}

road::SegmentMatch RoadMatcher::match_enu_global(double east, double north,
                                                 Mode mode) const {
  OBS_COUNT("match.query", 1);
  return mode == Mode::kIndexed ? index_.nearest(east, north)
                                : index_.nearest_brute(east, north);
}

road::SegmentMatch RoadMatcher::match_enu_window(double east, double north,
                                                 std::size_t lo_seg,
                                                 std::size_t hi_seg) const {
  OBS_COUNT("match.query", 1);
  road::SegmentMatch best;
  best.d2 = std::numeric_limits<double>::infinity();
  for (std::size_t i = lo_seg; i <= hi_seg; ++i) {
    const road::SegmentMatch cand = index_.project(i, east, north);
    if (cand.d2 < best.d2) best = cand;
  }
  return best;
}

MatchedFix RoadMatcher::match_point(const math::GeoPoint& point,
                                    Mode mode) const {
  const auto enu = ltp_.to_enu(point);
  return to_fix(match_enu_global(enu.east_m, enu.north_m, mode));
}

std::vector<MatchedFix> RoadMatcher::match_track(
    const std::vector<sensors::GpsFix>& fixes, Mode mode) const {
  OBS_SPAN("match.track");
  const std::size_t n_segments = s_.size() - 1;
  std::vector<MatchedFix> out;
  out.reserve(fixes.size());

  bool have_prev = false;
  std::size_t prev_seg = 0;
  double prev_s = 0.0;
  const auto window_segs =
      static_cast<std::size_t>(cfg_.window_m / cfg_.grid_step_m) + 1;

  for (const auto& fix : fixes) {
    MatchedFix m;
    m.t = fix.t;
    if (!fix.valid) {
      // An outage breaks the monotone chain; re-acquire globally next fix.
      have_prev = false;
      out.push_back(m);
      continue;
    }
    const auto enu = ltp_.to_enu(fix.position);
    road::SegmentMatch sm;
    if (have_prev) {
      // Bounded forward window: scanned directly in both modes (the range
      // is a handful of segments; the index only accelerates the global
      // re-acquisition above).
      const std::size_t hi =
          std::min(n_segments - 1, prev_seg + window_segs);
      sm = match_enu_window(enu.east_m, enu.north_m, prev_seg, hi);
    } else {
      sm = match_enu_global(enu.east_m, enu.north_m, mode);
    }
    const MatchedFix projected = to_fix(sm);
    m.s_m = projected.s_m;
    m.lateral_m = projected.lateral_m;
    m.valid = projected.valid;
    if (m.valid) {
      // Projection near the window edge can step back by a fraction of a
      // segment; clamp so consumers see strict forward progress.
      if (have_prev) m.s_m = std::max(m.s_m, prev_s);
      prev_seg = sm.segment;
      prev_s = m.s_m;
      have_prev = true;
    }
    out.push_back(m);
  }
  return out;
}

// ------------------------------------------------------------- cache ----

namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// FNV-1a over an arbitrary byte range.
std::uint64_t fnv1a(const void* data, std::size_t n, std::uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a over the samples, one 8-byte word per step (a road's geometry is
/// ~130 KB, so byte steps cost more than the cache hit they guard). A
/// multiply only carries differences upward, so each step folds the high
/// half back down; otherwise equal flips of a word's top bit in two
/// samples would cancel.
std::uint64_t fnv1a(const std::vector<double>& xs, std::uint64_t h) {
  for (const double x : xs) {
    h ^= std::bit_cast<std::uint64_t>(x);
    h *= kFnvPrime;
    h ^= h >> 32;
  }
  return h;
}

}  // namespace

MatcherKey matcher_key(const road::Road& road, const MapMatchConfig& cfg) {
  MatcherKey key;
  std::uint64_t h = 0xcbf29ce484222325ull;
  const std::string& name = road.name();
  h = fnv1a(name.data(), name.size(), h);
  const math::GeoPoint anchor = road.anchor();
  h = fnv1a(&anchor, sizeof(anchor), h);
  // The full sampled geometry: two roads that agree on all four profiles,
  // the anchor, and the name are the same road for matching purposes (the
  // projection polyline is derived from exactly this data).
  h = fnv1a(road.samples_s(), h);
  h = fnv1a(road.samples_grade(), h);
  h = fnv1a(road.samples_elevation(), h);
  h = fnv1a(road.samples_heading(), h);
  key.geometry_hash = h;
  key.n_samples = road.sample_count();
  key.length_m = road.length_m();
  key.cfg = cfg;
  return key;
}

MatcherCache::MatcherCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::size_t MatcherCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::shared_ptr<const RoadMatcher> MatcherCache::get(
    const road::Road& road, const MapMatchConfig& cfg) {
  // Hash outside the lock: the sweep over the samples is the expensive
  // part of a lookup and needs no cache state.
  const MatcherKey key = matcher_key(road, cfg);
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (it->key == key) {
      OBS_COUNT("match.cache_hit", 1);
      Entry entry = std::move(*it);
      entries_.erase(it);
      entries_.push_front(std::move(entry));
      return entries_.front().matcher;
    }
  }
  OBS_COUNT("match.cache_miss", 1);
  // Build under the lock: construction is a one-off per road and keeping
  // it serialized makes the cache trivially race-free. Callers that need
  // concurrent first-builds can construct RoadMatcher directly.
  Entry entry;
  entry.key = key;
  entry.matcher = std::make_shared<const RoadMatcher>(road, cfg);
  entries_.push_front(std::move(entry));
  if (entries_.size() > capacity_) entries_.pop_back();
  return entries_.front().matcher;
}

std::shared_ptr<const RoadMatcher> shared_matcher(const road::Road& road,
                                                  const MapMatchConfig& cfg) {
  static MatcherCache cache;
  return cache.get(road, cfg);
}

}  // namespace rge::core
