// Timing helpers shared by the perf-tier tests (ctest -L perf): the
// calling thread's CPU clock, which other processes and host stalls do
// not advance, and whether this build runs under a sanitizer, whose
// instrumentation the budgets are not meant for (DESIGN.md §8).
#pragma once

#include <time.h>

namespace rge::testing {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif
#else
inline constexpr bool kSanitized = false;
#endif

/// CPU time consumed by the calling thread, in ms.
inline double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

}  // namespace rge::testing
