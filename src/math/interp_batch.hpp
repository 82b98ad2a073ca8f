// Batched resampling over sorted query grids (SoA interpolation kernel).
//
// The per-query path (locate(), InterpCursor::advance, or
// LinearInterpolator::operator()) pays a branchy binary search or cursor
// walk per sample. When the queries themselves are sorted — resampling
// grids, timelines, the dense distance grids of track fusion — the whole
// sweep can instead walk key segments once and emit each segment's run of
// queries with a branch-free inner loop: O(keys + queries) total and
// vectorizable.
//
// Determinism contract: these kernels are *always* bit-identical to the
// scalar per-query path (locate / LinearInterpolator), in every build
// mode. Unlike the EKF batch kernel they are compiled with the
// project's default flags and contain no transcendentals, so RGE_SIMD
// only affects their speed indirectly (the algorithmic win is the point).
// LinearInterpolator::sample() routes through resample_sorted.
#pragma once

#include <span>

#include "math/interp.hpp"

namespace rge::math {

/// Bracket every query like locate(keys, q) would, walking forward
/// through the keys instead of binary-searching per query.
/// `queries` must be non-decreasing (throws std::invalid_argument
/// otherwise); `keys` non-empty and sorted; `out.size() == queries.size()`.
/// Results are bit-identical to locate() per query.
void resample_positions(std::span<const double> keys,
                        std::span<const double> queries,
                        std::span<InterpPos> out);

/// Clamped linear interpolation of vals(keys) at every query, bit-identical
/// to LinearInterpolator::operator() per query (keys strictly increasing)
/// and to evaluating ys[lo]*(1-f) + ys[hi]*f at locate()'s bracket in
/// general. Same preconditions as resample_positions, plus
/// `vals.size() == keys.size()`.
void resample_sorted(std::span<const double> keys,
                     std::span<const double> vals,
                     std::span<const double> queries, std::span<double> out);

}  // namespace rge::math
