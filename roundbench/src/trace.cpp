#include "trace.h"

#include <sched.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>

namespace roundbench {
namespace {

std::int64_t to_us(const timeval& tv) noexcept {
  return static_cast<std::int64_t>(tv.tv_sec) * 1000000 + tv.tv_usec;
}

Usage usage_of(int who) noexcept {
  rusage ru{};
  getrusage(who, &ru);
  return {to_us(ru.ru_utime), to_us(ru.ru_stime), ru.ru_minflt};
}

Usage operator-(const Usage& a, const Usage& b) noexcept {
  return {a.user_us - b.user_us, a.sys_us - b.sys_us, a.minflt - b.minflt};
}

std::uint32_t thread_index() noexcept {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Usage thread_usage() noexcept { return usage_of(RUSAGE_THREAD); }
Usage process_usage() noexcept { return usage_of(RUSAGE_SELF); }

std::uint64_t steal_ticks() noexcept {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return 0;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  // Per-CPU lines read "cpuN user nice system idle iowait irq softirq
  // steal ..."; the aggregate "cpu" line and the lines after the CPUs
  // do not match the pattern.
  std::uint64_t total = 0;
  char line[512];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    int cpu = -1;
    unsigned long long v[8] = {};
    if (std::sscanf(line, "cpu%d %llu %llu %llu %llu %llu %llu %llu %llu",
                    &cpu, &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                    &v[7]) == 9 &&
        cpu >= 0 && cpu < CPU_SETSIZE && CPU_ISSET(cpu, &allowed)) {
      total += v[7];
    }
  }
  std::fclose(f);
  return total;
}

std::int32_t Tracer::open(const char* name, std::int32_t parent,
                          std::int64_t round, Meter meter) {
  Span span;
  span.name = name;
  span.round = round;
  span.parent = parent;
  span.tid = thread_index();
  span.meter = meter;
  const std::lock_guard lock(mutex_);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t id, const Usage& usage) {
  const std::uint64_t end = now_ns();
  const std::lock_guard lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = end;
  span.usage = usage;
}

std::string Tracer::to_json() const {
  std::string out = "[";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "%s[\"%s\",%lld,%d,%u,%llu,%llu,", i > 0 ? ",\n" : "",
                  s.name, static_cast<long long>(s.round), s.parent, s.tid,
                  static_cast<unsigned long long>(s.start_ns),
                  static_cast<unsigned long long>(s.end_ns));
    out += buf;
    if (s.meter == Meter::kNone) {
      out += "null,null,null]";
    } else {
      std::snprintf(buf, sizeof buf, "%lld,%lld,%lld]",
                    static_cast<long long>(s.usage.user_us),
                    static_cast<long long>(s.usage.sys_us),
                    static_cast<long long>(s.usage.minflt));
      out += buf;
    }
  }
  return out + "]";
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, std::int32_t parent,
                       std::int64_t round, Meter meter)
    : tracer_(tracer), meter_(meter) {
  if (meter_ == Meter::kThread) start_ = thread_usage();
  if (meter_ == Meter::kProcess) start_ = process_usage();
  id_ = tracer_.open(name, parent, round, meter);
}

ScopedSpan::~ScopedSpan() {
  Usage end;
  if (meter_ == Meter::kThread) end = thread_usage();
  if (meter_ == Meter::kProcess) end = process_usage();
  tracer_.close(id_, meter_ == Meter::kNone ? Usage{} : end - start_);
}

}  // namespace roundbench
