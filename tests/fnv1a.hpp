// Byte-wise FNV-1a fingerprints over raw IEEE-754 bits, for the bit-pin
// tests: a pin fails when any hashed output moves by a single bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace rge::testing {

/// Byte-wise FNV-1a accumulator over raw object representations.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void f64(double v) { bytes(&v, sizeof(v)); }
  void f64s(const std::vector<double>& xs) {
    u64(xs.size());
    bytes(xs.data(), xs.size() * sizeof(double));
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

}  // namespace rge::testing
