// Unit tests for gradient-track CSV serialization.
#include "core/track_io.hpp"

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "math/rng.hpp"

namespace rge::core {
namespace {

GradeTrack make_track(std::size_t n, std::uint64_t seed) {
  GradeTrack tr;
  tr.source = "unit-test source";
  math::Rng rng(seed);
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    tr.t.push_back(0.1 * static_cast<double>(i));
    s += rng.uniform(0.5, 2.0);
    tr.s.push_back(s);
    tr.grade.push_back(rng.gaussian(0.0, 0.05));
    tr.grade_var.push_back(rng.uniform(1e-6, 1e-3));
    tr.speed.push_back(rng.uniform(5.0, 20.0));
  }
  return tr;
}

TEST(TrackIo, RoundTripBitExact) {
  const GradeTrack tr = make_track(500, 3);
  std::stringstream ss;
  write_track_csv(tr, ss);
  const GradeTrack back = read_track_csv(ss);
  EXPECT_EQ(back.source, tr.source);
  ASSERT_EQ(back.size(), tr.size());
  for (std::size_t i = 0; i < tr.size(); i += 13) {
    EXPECT_DOUBLE_EQ(back.t[i], tr.t[i]);
    EXPECT_DOUBLE_EQ(back.s[i], tr.s[i]);
    EXPECT_DOUBLE_EQ(back.grade[i], tr.grade[i]);
    EXPECT_DOUBLE_EQ(back.grade_var[i], tr.grade_var[i]);
    EXPECT_DOUBLE_EQ(back.speed[i], tr.speed[i]);
  }
}

TEST(TrackIo, EmptyTrackRoundTrips) {
  GradeTrack tr;
  tr.source = "empty";
  std::stringstream ss;
  write_track_csv(tr, ss);
  const GradeTrack back = read_track_csv(ss);
  EXPECT_EQ(back.source, "empty");
  EXPECT_EQ(back.size(), 0u);
}

TEST(TrackIo, FileRoundTrip) {
  const GradeTrack tr = make_track(50, 5);
  const std::string path =
      (std::filesystem::temp_directory_path() / "rge_track_test.csv")
          .string();
  write_track_csv_file(tr, path);
  const GradeTrack back = read_track_csv_file(path);
  EXPECT_EQ(back.size(), tr.size());
  std::remove(path.c_str());
  EXPECT_THROW(read_track_csv_file("/nonexistent/rge_track.csv"),
               std::runtime_error);
  EXPECT_THROW(write_track_csv_file(tr, "/nonexistent/dir/track.csv"),
               std::runtime_error);
}

TEST(TrackIo, MalformedInputs) {
  {
    std::stringstream ss("not a track file\n");
    EXPECT_THROW(read_track_csv(ss), std::runtime_error);
  }
  {
    std::stringstream ss("# rge-grade-track v1 source=x\nwrong,header\n");
    EXPECT_THROW(read_track_csv(ss), std::runtime_error);
  }
  {
    std::stringstream ss(
        "# rge-grade-track v1 source=x\nt,s,grade,grade_var,speed\n"
        "1.0,2.0,3.0\n");
    EXPECT_THROW(read_track_csv(ss), std::runtime_error);
  }
  {
    std::stringstream ss(
        "# rge-grade-track v1 source=x\nt,s,grade,grade_var,speed\n"
        "1.0,2.0,abc,0.1,10.0\n");
    EXPECT_THROW(read_track_csv(ss), std::runtime_error);
  }
  // Rows that parse as numbers but that no GradeTrack may hold.
  const std::string header =
      "# rge-grade-track v1 source=x\nt,s,grade,grade_var,speed\n";
  for (const char* row : {"0,0,nan,1e-4,10\n", "0.5,5,inf,1e-4,10\n",
                          "0,-inf,0.01,1e-4,10\n", "1,10,0.01,-1,10\n"}) {
    std::stringstream ss(header + row);
    EXPECT_THROW(read_track_csv(ss), std::runtime_error) << row;
  }
  {
    // Decreasing s, reported at the offending line.
    std::stringstream ss(header + "0,10,0.01,1e-4,10\n1,5,0.01,1e-4,10\n");
    try {
      read_track_csv(ss);
      ADD_FAILURE() << "decreasing s accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos)
          << e.what();
    }
  }
  {
    // t may go backwards; s may repeat; grade_var may be zero.
    std::stringstream ss(header +
                         "5.0,2.0,0.01,0.1,10.0\n1.0,2.0,0.02,0.0,10.0\n");
    EXPECT_EQ(read_track_csv(ss).size(), 2u);
  }
  {
    // Blank lines are tolerated.
    std::stringstream ss(
        "# rge-grade-track v1 source=x\nt,s,grade,grade_var,speed\n\n"
        "1.0,2.0,0.01,0.1,10.0\n\n");
    const GradeTrack back = read_track_csv(ss);
    EXPECT_EQ(back.size(), 1u);
    EXPECT_DOUBLE_EQ(back.grade[0], 0.01);
  }
}

}  // namespace
}  // namespace rge::core
