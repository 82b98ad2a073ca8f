// In-memory spans recorded by the benchmark around each call it makes into
// a library layer. Spans carry a name, start/end (steady clock), the span
// that caused them and a per-trip / per-round / per-query id; they are
// written out once, at exit, as a Chrome trace.
//
// Layer spans are opened on the driving thread and nest as a stack (an
// epoch span holds the layer calls it drives). Worker threads record
// leaf spans (one per trip or query) with an explicit parent.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  ///< string literal
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = 0;
  std::int64_t id = -1;
  int parent = -1;  ///< index into Tracer::spans(), -1 for roots
  int tid = 0;      ///< 0 is the driving thread
  int pass = 0;     ///< caller-chosen run phase, exported as the pid
  bool leaf = false;  ///< per-trip / per-query span inside a layer call
};

class Tracer {
 public:
  bool on() const { return on_; }
  void set_on(bool on) { on_ = on; }
  void set_pass(int pass) { pass_ = pass; }

  /// Opens a span on the driving thread; returns its index (-1 when off).
  int open(const char* name, std::int64_t id);
  void close(int index);
  /// The innermost open span on the driving thread (-1 when none).
  int current() const { return stack_.empty() ? -1 : stack_.back(); }

  /// Records a finished leaf span from any thread.
  void leaf(const char* name, std::int64_t t0_ns, std::int64_t t1_ns,
            std::int64_t id, int parent);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per layer-span name over one pass: each span's duration
  /// minus the part of it its child layer spans cover (ns). Leaf spans
  /// are detail inside a layer call and do not count.
  std::map<std::string, std::int64_t> self_ns(int pass) const;
  /// Number of spans (layer and leaf) per name over one pass.
  std::map<std::string, std::int64_t> counts(int pass) const;

  /// {"traceEvents":[...]} with one complete ("X") event per span.
  bool write_chrome_trace(const std::string& path) const;

 private:
  int tid();

  bool on_ = false;
  int pass_ = 0;
  std::thread::id main_ = std::this_thread::get_id();
  std::map<std::thread::id, int> tids_;  ///< guarded by mu_
  std::vector<int> stack_;
  mutable std::mutex mu_;  ///< guards spans_ against concurrent leaf()
  std::vector<SpanRecord> spans_;
};

/// RAII layer span on the driving thread.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::int64_t id = -1)
      : tracer_(tracer), index_(tracer.on() ? tracer.open(name, id) : -1) {}
  ~Scope() {
    if (index_ >= 0) tracer_.close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
