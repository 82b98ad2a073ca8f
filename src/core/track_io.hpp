// Gradient-track CSV (de)serialization: the export format for handing
// estimated gradient profiles to GIS tools, the cloud-fusion service, or
// downstream planners.
//
// Format (one header line, then one row per sample):
//   # rge-grade-track v1 source=<name>
//   t,s,grade,grade_var,speed
// Deterministic 17-significant-digit formatting so values round-trip
// bit-exactly.
#pragma once

#include <iosfwd>
#include <string>

#include "core/grade_ekf.hpp"

namespace rge::core {

void write_track_csv(const GradeTrack& track, std::ostream& out);
void write_track_csv_file(const GradeTrack& track, const std::string& path);

/// Parse a track written by write_track_csv. Malformed headers or rows
/// raise std::runtime_error with the line number; a row is malformed if a
/// field is not a finite number, grade_var is negative or s decreases.
/// `t` is not checked for order (served coverage snapshots are not
/// monotone in t).
GradeTrack read_track_csv(std::istream& in);
GradeTrack read_track_csv_file(const std::string& path);

}  // namespace rge::core
