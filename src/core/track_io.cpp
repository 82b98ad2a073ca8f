#include "core/track_io.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace rge::core {

namespace {

constexpr std::string_view kMagic = "# rge-grade-track v1 source=";

[[noreturn]] void fail_row(const std::string& what, std::size_t line_no) {
  throw std::runtime_error("track CSV: " + what + " at line " +
                           std::to_string(line_no));
}

/// One finite field (from_chars also accepts "nan" and "inf").
double parse_double(std::string_view sv, std::size_t line_no) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(sv.data(), sv.data() + sv.size(), value);
  if (ec != std::errc{} || ptr != sv.data() + sv.size()) {
    fail_row("bad number '" + std::string(sv) + "'", line_no);
  }
  if (!std::isfinite(value)) {
    fail_row("non-finite value '" + std::string(sv) + "'", line_no);
  }
  return value;
}

std::vector<std::string_view> split(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string_view::npos) {
      out.push_back(line.substr(start));
      break;
    }
    out.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace

void write_track_csv(const GradeTrack& track, std::ostream& out) {
  out << kMagic << track.source << '\n';
  out << "t,s,grade,grade_var,speed\n";
  out << std::setprecision(17);
  for (std::size_t i = 0; i < track.size(); ++i) {
    out << track.t[i] << ',' << track.s[i] << ',' << track.grade[i] << ','
        << track.grade_var[i] << ',' << track.speed[i] << '\n';
  }
}

void write_track_csv_file(const GradeTrack& track, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("track CSV: cannot open for write: " + path);
  }
  write_track_csv(track, out);
}

GradeTrack read_track_csv(std::istream& in) {
  GradeTrack track;
  std::string line;
  std::size_t line_no = 0;

  if (!std::getline(in, line) || line.rfind(kMagic, 0) != 0) {
    throw std::runtime_error("track CSV: missing magic header");
  }
  track.source = line.substr(kMagic.size());
  ++line_no;
  if (!std::getline(in, line) || line != "t,s,grade,grade_var,speed") {
    throw std::runtime_error("track CSV: missing column header");
  }
  ++line_no;

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = split(line);
    if (fields.size() != 5) fail_row("wrong field count", line_no);
    const double t = parse_double(fields[0], line_no);
    const double s = parse_double(fields[1], line_no);
    const double grade = parse_double(fields[2], line_no);
    const double grade_var = parse_double(fields[3], line_no);
    const double speed = parse_double(fields[4], line_no);
    if (grade_var < 0.0) fail_row("negative grade_var", line_no);
    // `t` may go backwards: served coverage snapshots do by design.
    if (!track.s.empty() && s < track.s.back()) {
      fail_row("decreasing s", line_no);
    }
    track.t.push_back(t);
    track.s.push_back(s);
    track.grade.push_back(grade);
    track.grade_var.push_back(grade_var);
    track.speed.push_back(speed);
  }
  return track;
}

GradeTrack read_track_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("track CSV: cannot open for read: " + path);
  }
  return read_track_csv(in);
}

}  // namespace rge::core
