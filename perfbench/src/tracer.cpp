#include "tracer.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int Tracer::open(const char* name, std::int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecord s;
  s.name = name;
  s.t0_ns = now_ns();
  s.id = id;
  s.parent = current();
  s.pass = pass_;
  spans_.push_back(s);
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  const std::int64_t t1 = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].t1_ns = t1;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

int Tracer::tid() {
  const auto me = std::this_thread::get_id();
  if (me == main_) return 0;
  return tids_.try_emplace(me, static_cast<int>(tids_.size()) + 1)
      .first->second;
}

void Tracer::leaf(const char* name, std::int64_t t0_ns, std::int64_t t1_ns,
                  std::int64_t id, int parent) {
  SpanRecord s;
  s.name = name;
  s.t0_ns = t0_ns;
  s.t1_ns = t1_ns;
  s.id = id;
  s.parent = parent;
  s.pass = pass_;
  s.leaf = true;
  std::lock_guard<std::mutex> lock(mu_);
  s.tid = tid();
  spans_.push_back(s);
}

std::map<std::string, std::int64_t> Tracer::self_ns(int pass) const {
  // Child layer spans of each span, as intervals.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const SpanRecord& s : spans_) {
    if (s.pass != pass || s.leaf || s.parent < 0) continue;
    kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0_ns, s.t1_ns);
  }
  std::map<std::string, std::int64_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (s.pass != pass || s.leaf) continue;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.t0_ns;
    for (const auto& [a, b] : iv) {
      const std::int64_t lo = std::max(a, reach);
      const std::int64_t hi = std::min(b, s.t1_ns);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, b);
    }
    out[s.name] += (s.t1_ns - s.t0_ns) - covered;
  }
  return out;
}

std::map<std::string, std::int64_t> Tracer::counts(int pass) const {
  std::map<std::string, std::int64_t> out;
  for (const SpanRecord& s : spans_) {
    if (s.pass == pass) ++out[s.name];
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t origin = 0;
  if (!spans_.empty()) {
    origin = spans_.front().t0_ns;
    for (const SpanRecord& s : spans_) origin = std::min(origin, s.t0_ns);
  }
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":%lld}}",
                 i == 0 ? "" : ",", s.name, s.pass, s.tid,
                 static_cast<double>(s.t0_ns - origin) / 1000.0,
                 static_cast<double>(s.t1_ns - s.t0_ns) / 1000.0, i, s.parent,
                 static_cast<long long>(s.id));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
