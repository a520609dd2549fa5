#include "measure.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <new>
#include <queue>
#include <random>
#include <unordered_map>
#include <string>

#include <dlfcn.h>
#include <sys/epoll.h>
#include <sys/socket.h>

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_syscalls{0};

/// libc's definition of a symbol this file interposes.
template <typename Fn>
Fn next_symbol(const char* name) {
  return reinterpret_cast<Fn>(dlsym(RTLD_NEXT, name));
}

void count_syscall() { g_syscalls.fetch_add(1, std::memory_order_relaxed); }

void* counted_alloc(std::size_t n) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

}  // namespace

// The benchmark's allocation counter: every operator new in the process
// (library code included) passes through here.
void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// The benchmark's system-call counter: the rt stack's socket and epoll
// calls resolve to these definitions, which count and forward to libc.
// (/proc/self/io's syscr/syscw count read(2)/write(2) but not the
// recv(2)/send(2) the rt stack uses.)
extern "C" {
ssize_t recv(int fd, void* buf, size_t len, int flags) {
  static const auto real = next_symbol<ssize_t (*)(int, void*, size_t, int)>("recv");
  count_syscall();
  return real(fd, buf, len, flags);
}
ssize_t send(int fd, const void* buf, size_t len, int flags) {
  static const auto real =
      next_symbol<ssize_t (*)(int, const void*, size_t, int)>("send");
  count_syscall();
  return real(fd, buf, len, flags);
}
int accept4(int fd, sockaddr* addr, socklen_t* len, int flags) {
  static const auto real =
      next_symbol<int (*)(int, sockaddr*, socklen_t*, int)>("accept4");
  count_syscall();
  return real(fd, addr, len, flags);
}
int connect(int fd, const sockaddr* addr, socklen_t len) {
  static const auto real =
      next_symbol<int (*)(int, const sockaddr*, socklen_t)>("connect");
  count_syscall();
  return real(fd, addr, len);
}
int epoll_wait(int epfd, epoll_event* events, int max, int timeout) {
  static const auto real =
      next_symbol<int (*)(int, epoll_event*, int, int)>("epoll_wait");
  count_syscall();
  return real(epfd, events, max, timeout);
}
int epoll_ctl(int epfd, int op, int fd, epoll_event* event) {
  static const auto real =
      next_symbol<int (*)(int, int, int, epoll_event*)>("epoll_ctl");
  count_syscall();
  return real(epfd, op, fd, event);
}
}

namespace perfbench {

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }
double thread_cpu_s(pthread_t t) {
  clockid_t id{};
  if (pthread_getcpuclockid(t, &id) != 0) return 0.0;
  return clock_s(id);
}
double wall_s() { return clock_s(CLOCK_MONOTONIC); }

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t syscalls() { return g_syscalls.load(std::memory_order_relaxed); }

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter carries over the peak of
  // the process image that exec'd this one (e.g. a Python launcher).
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double reference_slice(int events) {
  const double c0 = thread_cpu_s();
  std::mt19937_64 rng(7);
  std::exponential_distribution<double> gap(1.0);
  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint32_t, double> state;
  for (std::uint32_t id = 0; id < 2048; ++id) {
    queue.push({gap(rng), id});
    state[id] = 0.0;
  }
  double acc = 0.0;
  for (int k = 0; k < events; ++k) {
    const auto [t, id] = queue.top();
    queue.pop();
    double& level = state[id];
    level = 0.9 * level + gap(rng);
    acc += level;
    const std::uint32_t next =
        (id * 2654435761u + static_cast<std::uint32_t>(k)) % 8192;
    state.try_emplace(next, 0.0);
    queue.push({t + gap(rng), next});
  }
  static std::atomic<double> sink{0.0};  // keeps the kernel from folding away
  sink.store(acc, std::memory_order_relaxed);
  return thread_cpu_s() - c0;
}

double RateLog::sample_reference(int events) {
  const double cpu = reference_slice(events);
  ref_cpu_s_ += cpu;
  ref_events_ += events;
  return cpu;
}

double RateLog::per_mref() const {
  return ref_events_ > 0.0 ? per_cpu_s() * ref_cpu_s_ / ref_events_ * 1e6
                           : 0.0;
}

double RateLog::reference_ns_per_event() const {
  return ref_events_ > 0.0 ? 1e9 * ref_cpu_s_ / ref_events_ : 0.0;
}

void RateLog::add(double work, double cpu_s, double wall_s) {
  work_ += work;
  cpu_s_ += cpu_s;
  wall_s_ += wall_s;
  per_round_.push_back(cpu_s > 0.0 ? work / cpu_s : 0.0);
}

void RateLog::log(const char* what) const {
  std::string line;
  char buf[32];
  for (const double x : per_round_) {
    std::snprintf(buf, sizeof buf, " %.4g", x);
    line += buf;
  }
  std::fprintf(stderr, "%s per round:%s; aggregate %.6g, per Mref %.6g\n",
               what, line.c_str(), per_cpu_s(), per_mref());
}

std::uint64_t count_of(const idr::obs::Snapshot& s, const char* name) {
  const idr::obs::MetricValue* m = s.find(name);
  return m != nullptr ? m->count : 0;
}

double sum_of(const idr::obs::Snapshot& s, const char* name) {
  const idr::obs::MetricValue* m = s.find(name);
  return m != nullptr ? m->value : 0.0;
}

void Outcome::check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    failures.push_back(what);
  }
}

void TraceSink::span(const char* name, const char* category,
                     std::uint64_t track, double start_us, std::string args) {
  tracer.complete(name, category, track, start_us, now_us() - start_us,
                  std::move(args));
}

}  // namespace perfbench
