// Per-thread CPU attribution from outside the program: the benchmark lists
// /proc/self/task before and after constructing a component, calls the
// threads that appeared that component's, and reads their utime + stime
// from /proc/self/task/<tid>/stat. Clock-tick resolution (usually 10 ms)
// is plenty over a window of seconds.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

namespace servebench {

/// Thread ids of this process right now.
[[nodiscard]] std::set<int> list_tasks();

/// Threads in `after` that are not in `before`.
[[nodiscard]] std::vector<int> new_tasks(const std::set<int>& before,
                                         const std::set<int>& after);

/// utime + stime of one thread of this process, in clock ticks; -1 when
/// the thread is gone.
[[nodiscard]] long long task_cpu_ticks(int tid);

/// Sum of task_cpu_ticks over `tids` (threads that are gone count 0).
[[nodiscard]] long long tasks_cpu_ticks(const std::vector<int>& tids);

/// Clock ticks per second (sysconf(_SC_CLK_TCK)).
[[nodiscard]] double clock_ticks_per_second();

/// Process user + system CPU seconds (getrusage(RUSAGE_SELF)).
[[nodiscard]] double process_cpu_seconds();

/// CPU seconds of the calling thread (CLOCK_THREAD_CPUTIME_ID).
[[nodiscard]] double thread_cpu_seconds();

/// Peak resident set size of the process in MiB (ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Cross-check of the attribution: per-thread /proc times summed over
/// every live thread, against getrusage, over one interval.
class AttributionCheck {
 public:
  /// Snapshot every live thread and getrusage now.
  AttributionCheck();
  /// Re-read both; the gap between the two CPU deltas in clock ticks and
  /// the number of threads it was summed over (each thread's reading is
  /// truncated to whole ticks, so up to one tick per thread is rounding).
  struct Result {
    double gap_ticks = 0.0;
    std::size_t threads = 0;
  };
  [[nodiscard]] Result finish() const;

 private:
  std::vector<int> tids_;
  long long ticks_ = 0;
  double rusage_s_ = 0.0;
};

}  // namespace servebench
