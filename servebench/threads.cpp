#include "threads.h"

#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <iterator>
#include <string>

namespace servebench {

std::set<int> list_tasks() {
  std::set<int> tids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (const dirent* entry = ::readdir(dir)) {
    const int tid = std::atoi(entry->d_name);
    if (tid > 0) tids.insert(tid);
  }
  ::closedir(dir);
  return tids;
}

std::vector<int> new_tasks(const std::set<int>& before,
                           const std::set<int>& after) {
  std::vector<int> out;
  std::set_difference(after.begin(), after.end(), before.begin(),
                      before.end(), std::back_inserter(out));
  return out;
}

long long task_cpu_ticks(int tid) {
  const std::string path = "/proc/self/task/" + std::to_string(tid) + "/stat";
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return -1;
  char buf[1024] = {};
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  // The command name (field 2) may hold spaces and parentheses; fields
  // after the LAST ')' are space separated, starting with field 3.
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return -1;
  ++p;
  long long utime = 0;
  long long stime = 0;
  // Fields 3..13 are skipped; 14 = utime, 15 = stime.
  if (std::sscanf(p, " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %lld %lld",
                  &utime, &stime) != 2) {
    return -1;
  }
  return utime + stime;
}

long long tasks_cpu_ticks(const std::vector<int>& tids) {
  long long total = 0;
  for (const int tid : tids) total += std::max(0LL, task_cpu_ticks(tid));
  return total;
}

double clock_ticks_per_second() {
  const long hz = ::sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(hz) : 100.0;
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double thread_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

AttributionCheck::AttributionCheck() {
  const std::set<int> tids = list_tasks();
  tids_.assign(tids.begin(), tids.end());
  ticks_ = tasks_cpu_ticks(tids_);
  rusage_s_ = process_cpu_seconds();
}

AttributionCheck::Result AttributionCheck::finish() const {
  const double rusage_ticks =
      (process_cpu_seconds() - rusage_s_) * clock_ticks_per_second();
  const double proc_ticks =
      static_cast<double>(tasks_cpu_ticks(tids_) - ticks_);
  return {std::fabs(proc_ticks - rusage_ticks), tids_.size()};
}

}  // namespace servebench
