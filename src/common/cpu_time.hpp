// Per-thread CPU-time measurement.
//
// The sharded engine's pooled spans and the scaling bench both need
// "CPU seconds this thread actually executed": unlike wall time it
// excludes barrier waits and time spent descheduled, so summing
// events/busy across shards measures aggregate processing capacity
// even on an oversubscribed host.  The engine's caller-thread
// stretches wait at no barrier and read the steady clock instead,
// since this read is a syscall (~350 ns on a KVM guest).
#pragma once

#if defined(__linux__)
#include <time.h>
#else
#include <chrono>
#endif

namespace xartrek {

/// CPU seconds consumed by the calling thread.  Falls back to a
/// wall-clock reading where no thread clock exists (differences are
/// still meaningful; absolute values are not).
inline double thread_cpu_seconds() {
#if defined(__linux__)
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
#else
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
#endif
}

}  // namespace xartrek
