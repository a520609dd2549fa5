// Single-threaded epoll reactor with monotonic timers — the event loop
// under the real-socket overlay runtime (origin server, relay daemon,
// client, probe race). Everything runs on the loop thread; no locks.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace idr::rt {

/// Event mask bits passed to I/O callbacks.
struct IoEvents {
  bool readable = false;
  bool writable = false;
  bool error = false;  // EPOLLERR / EPOLLHUP
};

using TimerId = std::uint64_t;

class Reactor {
 public:
  Reactor();
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  using IoCallback = std::function<void(IoEvents)>;

  /// Registers a non-blocking fd. The callback fires on the loop for
  /// every ready event until remove_fd.
  void add_fd(int fd, bool want_read, bool want_write, IoCallback cb);
  /// Changes interest set.
  void update_fd(int fd, bool want_read, bool want_write);
  /// Unregisters; safe to call from inside the fd's own callback.
  void remove_fd(int fd);

  /// One-shot timer after `delay_s` seconds (monotonic clock).
  TimerId add_timer(double delay_s, std::function<void()> cb);
  bool cancel_timer(TimerId id);
  /// Deadline entries held, cancelled ones included: at most about twice
  /// the live timers, since cancelled entries are compacted away.
  std::size_t timer_queue_size() const { return timer_queue_.size(); }

  /// Runs until stop() is called or there is nothing left to wait for
  /// (no fds, no timers).
  void run();
  void stop() { stopped_ = true; }

  /// Polls once with at most `max_wait_s`; returns whether any event or
  /// timer fired. Useful for tests.
  bool poll(double max_wait_s);

  /// Seconds since reactor construction (monotonic).
  double now() const;

  /// The loop's metrics registry (Sync::Atomic: the loop writes while a
  /// /metrics scrape snapshots). Daemons on this reactor register their
  /// own series here or merge this registry's snapshot into theirs.
  obs::Registry& metrics() { return metrics_; }
  const obs::Registry& metrics() const { return metrics_; }

  /// Optional span tracer for poll/dispatch and timer-wheel reaps;
  /// `track` is the Chrome tid. Null/disabled costs one branch per poll.
  void set_tracer(obs::Tracer* tracer, std::uint64_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }
  obs::Tracer* tracer() const { return tracer_; }
  std::uint64_t trace_track() const { return trace_track_; }
  /// Clock stamping this reactor's monotonic time in trace microseconds.
  obs::TraceClock trace_clock() const;

 private:
  struct FdState {
    IoCallback callback;
    bool want_read = false;
    bool want_write = false;
  };
  struct TimerEntry {
    double deadline;
    TimerId id;
    bool operator>(const TimerEntry& other) const {
      if (deadline != other.deadline) return deadline > other.deadline;
      return id > other.id;
    }
  };

  void run_due_timers();
  int next_timeout_ms();
  void pop_timer();

  int epoll_fd_ = -1;
  std::chrono::steady_clock::time_point origin_;
  std::unordered_map<int, FdState> fds_;
  /// Min-heap (std::greater) by deadline, then id; may hold cancelled ids.
  std::vector<TimerEntry> timer_queue_;
  std::unordered_map<TimerId, std::function<void()>> timers_;
  TimerId next_timer_ = 0;
  bool stopped_ = false;

  // `rt.reactor.*` series; handles resolved once at construction.
  obs::Registry metrics_{obs::Registry::Sync::Atomic};
  obs::Counter c_polls_;
  obs::Counter c_io_dispatches_;
  obs::Counter c_timers_scheduled_;
  obs::Counter c_timers_fired_;
  obs::Counter c_timers_cancelled_;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t trace_track_ = 0;
};

}  // namespace idr::rt
