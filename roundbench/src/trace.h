// In-memory span recorder for the round benchmark's traced run.
//
// Spans are recorded by the benchmark around its own calls into the
// library's public API, so every layer gets its own numbers without any
// tracing inside src/. A span is {name, start, end, parent, round}; spans
// stay in memory until the run ends and are then written out as JSON
// (run.py turns them into a Chrome trace and into the per-layer metrics).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace roundbench {

/// Monotonic clock in nanoseconds.
std::uint64_t now_ns() noexcept;

/// Resource usage of the calling thread or of the whole process.
struct Usage {
  std::int64_t user_us = 0;
  std::int64_t sys_us = 0;
  std::int64_t minflt = 0;
};
Usage thread_usage() noexcept;
Usage process_usage() noexcept;

/// CPU time the hypervisor stole from the CPUs this process may run on
/// (its affinity mask), in clock ticks: the per-CPU "steal" column of
/// /proc/stat summed over those CPUs; 0 where the kernel does not report it.
std::uint64_t steal_ticks() noexcept;

/// Which usage a span records as its start-to-end delta: none, the calling
/// thread's (for calls that run concurrently with others) or the
/// process's (for calls that own the machine while they run).
enum class Meter { kNone, kThread, kProcess };

struct Span {
  const char* name = "";
  std::int64_t round = -1;
  std::int32_t parent = -1;
  std::uint32_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  Meter meter = Meter::kNone;
  Usage usage;  // end minus start when metered
};

/// Thread-safe span store; a span id is its index in the store.
class Tracer {
 public:
  std::int32_t open(const char* name, std::int32_t parent,
                    std::int64_t round, Meter meter);
  void close(std::int32_t id, const Usage& usage);
  /// The spans as a JSON array of
  /// [name, round, parent, tid, start_ns, end_ns, user_us, sys_us, minflt].
  std::string to_json() const;

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int32_t parent,
             std::int64_t round, Meter meter = Meter::kNone);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int32_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int32_t id_;
  Meter meter_;
  Usage start_;
};

}  // namespace roundbench
