// Metrics registry: named counters, up/down gauges, and fixed-bucket
// histograms.
//
// Hot-path architecture: every metric owns a span of integer "cells"
// (and, for histograms, one double "sum" cell). Each thread that touches
// a metric gets its own shard — a fixed-size block of relaxed atomics —
// so updates never contend and never lock. `snapshot()` merges live
// shards plus the folded remains of exited threads under the registry
// mutex; the mutex is otherwise only taken on first-touch registration
// (metric name -> id, thread -> shard).
//
// Values are intentionally coarse-grained: counters/gauges are int64,
// histogram buckets are int64 counts plus a double running sum. That is
// all the scenario harness and the perf tier need, and it keeps each
// update a single fetch_add.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rge::obs {

/// Global runtime switch for metric collection. Relaxed: readers on the
/// hot path only need eventual visibility, not ordering.
bool enabled();
void set_enabled(bool on);

/// Zeroes every metric value and clears tracing buffers. Registered
/// names/cells persist (static handles stay valid). Test/harness
/// convenience; not safe against concurrent updates.
void reset_all();

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;   ///< ascending upper bounds; last bucket +inf
  std::vector<std::int64_t> counts;  ///< bounds.size() + 1 entries
  std::int64_t count = 0;            ///< total observations
  double sum = 0.0;                  ///< sum of observed values
};

struct MetricsSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Deterministic (sorted-key) JSON document:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{"bounds":[...],
  ///  "counts":[...],"count":N,"sum":S}}}
  std::string to_json() const;
};

namespace detail {

// Cell budget per shard. Exceeding it is a programming error (every
// metric is a static call site); Registry throws on exhaustion.
inline constexpr std::size_t kMaxIntCells = 1024;
inline constexpr std::size_t kMaxSumCells = 64;

struct Shard {
  std::array<std::atomic<std::int64_t>, kMaxIntCells> ints{};
  std::array<std::atomic<double>, kMaxSumCells> sums{};
};

}  // namespace detail

/// Process-wide metric registry. Access through the typed handles below
/// (Counter/Gauge/Histogram) rather than directly.
class Registry {
 public:
  static Registry& global();

  // Registration: idempotent per name, mutex-guarded, returns the
  // metric's first int cell index. Histograms additionally consume a sum
  // cell and bounds.size()+1 bucket cells.
  std::uint32_t register_counter(std::string_view name);
  std::uint32_t register_gauge(std::string_view name);
  std::uint32_t register_histogram(std::string_view name,
                                   std::span<const double> bounds);

  // Hot-path updates (lock-free after registration).
  void add(std::uint32_t cell, std::int64_t delta);
  void observe_registered(std::uint32_t first_cell, std::uint32_t sum_cell,
                          std::uint32_t n_buckets,
                          std::span<const double> bounds, double value);

  MetricsSnapshot snapshot();

  /// Zeroes values (retired folds + live shards). Registrations persist
  /// so outstanding handles stay valid.
  void reset();

  // Looks up a histogram's layout after register_histogram (used by the
  // Histogram handle to cache its cells).
  struct HistogramLayout {
    std::uint32_t first_cell = 0;
    std::uint32_t sum_cell = 0;
    std::uint32_t n_buckets = 0;
  };
  HistogramLayout histogram_layout(std::string_view name) const;
  /// Canonical (first-registration-wins) bounds for a histogram.
  std::vector<double> histogram_bounds_copy(std::string_view name) const;

 private:
  Registry() = default;
  detail::Shard& local_shard();
  friend struct ThreadShardOwner;
  void fold_retired(const detail::Shard& shard);

  enum class Kind { kCounter, kGauge, kHistogram };
  struct Meta {
    std::string name;
    Kind kind;
    std::uint32_t first_cell;   // first int cell
    std::uint32_t n_cells;      // int cells owned (1, or buckets+1... see cpp)
    std::uint32_t sum_cell;     // histograms only
    std::vector<double> bounds; // histograms only
  };

  mutable std::mutex mu_;
  std::vector<Meta> metrics_;
  std::map<std::string, std::size_t, std::less<>> by_name_;
  std::uint32_t next_int_cell_ = 0;
  std::uint32_t next_sum_cell_ = 0;
  std::vector<detail::Shard*> live_shards_;
  // Folded contributions of exited threads.
  std::array<std::int64_t, detail::kMaxIntCells> retired_ints_{};
  std::array<double, detail::kMaxSumCells> retired_sums_{};
};

/// Monotonic counter handle. Construct once (function-local static) and
/// call add() on the hot path.
class Counter {
 public:
  explicit Counter(std::string_view name)
      : cell_(Registry::global().register_counter(name)) {}
  void add(std::int64_t delta = 1) const {
    Registry::global().add(cell_, delta);
  }

 private:
  std::uint32_t cell_;
};

/// Up/down gauge (e.g. queue depth). Snapshot value is the net sum of
/// all deltas across threads.
class Gauge {
 public:
  explicit Gauge(std::string_view name)
      : cell_(Registry::global().register_gauge(name)) {}
  void add(std::int64_t delta) const { Registry::global().add(cell_, delta); }

 private:
  std::uint32_t cell_;
};

/// One object's share of a gauge summed over many objects (e.g. the
/// health of every live estimator's GPS filter). set() publishes the
/// change from the last value set; destruction withdraws the share, so
/// the gauge counts live objects only. Moving hands the share over.
class GaugeShare {
 public:
  explicit GaugeShare(std::string_view name) : gauge_(name) {}
  GaugeShare(GaugeShare&& other) noexcept
      : gauge_(other.gauge_), value_(std::exchange(other.value_, 0)) {}
  GaugeShare& operator=(GaugeShare&& other) noexcept {
    if (this != &other) {
      set(0);
      gauge_ = other.gauge_;
      value_ = std::exchange(other.value_, 0);
    }
    return *this;
  }
  GaugeShare(const GaugeShare&) = delete;
  GaugeShare& operator=(const GaugeShare&) = delete;
  ~GaugeShare() { set(0); }

  void set(std::int64_t value) {
    if (value != value_) gauge_.add(value - value_);
    value_ = value;
  }

 private:
  Gauge gauge_;
  std::int64_t value_ = 0;  ///< the share currently in the gauge
};

/// Fixed-bucket histogram. `bounds` are ascending upper bounds; a value
/// lands in the first bucket whose bound is >= value, else the overflow
/// bucket. Bounds are captured at registration (first handle wins).
class Histogram {
 public:
  Histogram(std::string_view name, std::span<const double> bounds);
  void observe(double value) const {
    Registry::global().observe_registered(first_cell_, sum_cell_, n_buckets_,
                                          {bounds_.data(), bounds_.size()},
                                          value);
  }

 private:
  std::uint32_t first_cell_;
  std::uint32_t sum_cell_;
  std::uint32_t n_buckets_;
  std::vector<double> bounds_;
};

/// Canonical microsecond-latency bounds: 1,2,5 decades from 1 us to 1 s.
std::span<const double> latency_bounds_us();

/// Serialized snapshot of the global registry (sorted keys, stable).
std::string metrics_json();

/// Writes metrics_json() to `path`. Returns false on I/O failure.
bool write_metrics_json(const std::string& path);

}  // namespace rge::obs
