// Clocks, counters and the result model shared by the benchmark's
// workloads.
//
// Every rate the benchmark reports is work per second of *process CPU
// time*: on a virtual machine the wall clock is disturbed by hypervisor
// steal time, while CPU time charges a process only for what it ran.
// Latencies a user waits for (race decision, race completion) stay wall
// time and are reported as per-layer figures.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <pthread.h>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Seconds of CPU the whole process has used since it started.
double process_cpu_s();
/// Seconds of CPU the calling thread has used.
double thread_cpu_s();
/// Seconds of CPU thread `t` has used (readable from any thread).
double thread_cpu_s(pthread_t t);
/// Monotonic wall clock in seconds.
double wall_s();

/// Heap allocations made through operator new since the process started.
std::uint64_t allocations();

/// Socket and epoll system calls (recv, send, accept4, connect,
/// epoll_wait, epoll_ctl) made since the process started.
std::uint64_t syscalls();

/// Peak resident set size of this process in MB.
double peak_rss_mb();

/// Whole rounds in a time budget: after each round, another starts only
/// if a round of the mean length so far still ends within the budget.
class RoundClock {
 public:
  explicit RoundClock(double budget_s) : budget_(budget_s), start_(wall_s()) {}
  bool another() {
    const double elapsed = wall_s() - start_;
    ++rounds_;
    return elapsed + elapsed / rounds_ <= budget_;
  }

 private:
  double budget_;
  double start_;
  int rounds_ = 0;
};

/// The host-speed reference: `events` steps of a fixed discrete-event
/// kernel defined in this benchmark (a binary heap of timed events,
/// hash-map state and an RNG, the simulator's own mix of work), never the
/// program's code, so no change to the program moves it. Returns the
/// calling thread's CPU seconds.
double reference_slice(int events);

/// Work done over a run's rounds, and the reference slices run between
/// them. Rates are aggregates, total work over total seconds: rounds
/// alternate between faster and slower host regimes, and the aggregate
/// moves less with the share of time spent in each than the median round.
class RateLog {
 public:
  void add(double work, double cpu_s, double wall_s);
  /// Runs one reference slice of `events` and records its CPU time, which
  /// it returns.
  double sample_reference(int events);
  double per_cpu_s() const { return cpu_s_ > 0.0 ? work_ / cpu_s_ : 0.0; }
  double per_wall_s() const { return wall_s_ > 0.0 ? work_ / wall_s_ : 0.0; }
  /// Work per CPU time of one million reference events: the CPU rate
  /// with the host's speed during the run cancelled.
  double per_mref() const;
  /// CPU ns one reference event took during the run.
  double reference_ns_per_event() const;
  double cpu_s() const { return cpu_s_; }
  /// Prints the per-round rates to stderr (one line).
  void log(const char* what) const;

 private:
  double work_ = 0.0;
  double cpu_s_ = 0.0;
  double wall_s_ = 0.0;
  double ref_events_ = 0.0;
  double ref_cpu_s_ = 0.0;
  std::vector<double> per_round_;
};

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);

/// Counter value (or histogram count) of a series; 0 when absent.
std::uint64_t count_of(const idr::obs::Snapshot& s, const char* name);
/// Histogram sum of a series; 0 when absent.
double sum_of(const idr::obs::Snapshot& s, const char* name);

/// Deliberate corruption of one output, so each correctness check can be
/// shown to fail. `none` in every measured run.
enum class Corrupt { kNone, kImprovement, kIndirect, kDigest, kBytes,
                     kBody, kVerdict };

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Corrupt corrupt = Corrupt::kNone;
  /// Directory for the traced run's Chrome trace and layer table.
  std::string out_dir = ".bench_build/results";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run hands back: the checks' verdict, the operation counts,
/// and every metric by name.
struct Outcome {
  std::vector<std::string> failures;  // empty = correct
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// Tracer plus the clock the benchmark stamps its own spans with.
struct TraceSink {
  idr::obs::Tracer tracer;
  idr::obs::TraceClock clock = idr::obs::TraceClock::steady();

  TraceSink() { tracer.set_enabled(true); }
  /// One complete span [start_us, now) on `track`.
  void span(const char* name, const char* category, std::uint64_t track,
            double start_us, std::string args = {});
  double now_us() const { return clock.now_us(); }
};

}  // namespace perfbench
