#include "rt/reactor.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>

#include "util/error.hpp"

namespace idr::rt {

Reactor::Reactor() : origin_(std::chrono::steady_clock::now()) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  IDR_REQUIRE(epoll_fd_ >= 0, "epoll_create1 failed");
  c_polls_ = metrics_.counter("rt.reactor.polls");
  c_io_dispatches_ = metrics_.counter("rt.reactor.io_dispatches");
  c_timers_scheduled_ = metrics_.counter("rt.reactor.timers_scheduled");
  c_timers_fired_ = metrics_.counter("rt.reactor.timers_fired");
  c_timers_cancelled_ = metrics_.counter("rt.reactor.timers_cancelled");
}

namespace {
double reactor_now_us(const void* ctx) {
  return static_cast<const Reactor*>(ctx)->now() * 1e6;
}
}  // namespace

obs::TraceClock Reactor::trace_clock() const {
  return obs::TraceClock{&reactor_now_us, this};
}

Reactor::~Reactor() {
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

namespace {
std::uint32_t to_mask(bool want_read, bool want_write) {
  std::uint32_t mask = 0;
  if (want_read) mask |= EPOLLIN;
  if (want_write) mask |= EPOLLOUT;
  return mask;
}
}  // namespace

void Reactor::add_fd(int fd, bool want_read, bool want_write,
                     IoCallback cb) {
  IDR_REQUIRE(fd >= 0, "add_fd: bad fd");
  IDR_REQUIRE(cb != nullptr, "add_fd: null callback");
  IDR_REQUIRE(!fds_.contains(fd), "add_fd: fd already registered");
  epoll_event ev{};
  ev.events = to_mask(want_read, want_write);
  ev.data.fd = fd;
  IDR_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
              "epoll_ctl ADD failed");
  fds_[fd] = FdState{std::move(cb), want_read, want_write};
}

void Reactor::update_fd(int fd, bool want_read, bool want_write) {
  auto it = fds_.find(fd);
  IDR_REQUIRE(it != fds_.end(), "update_fd: unknown fd");
  if (it->second.want_read == want_read &&
      it->second.want_write == want_write) {
    return;
  }
  epoll_event ev{};
  ev.events = to_mask(want_read, want_write);
  ev.data.fd = fd;
  IDR_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0,
              "epoll_ctl MOD failed");
  it->second.want_read = want_read;
  it->second.want_write = want_write;
}

void Reactor::remove_fd(int fd) {
  const auto it = fds_.find(fd);
  if (it == fds_.end()) return;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  fds_.erase(it);
}

TimerId Reactor::add_timer(double delay_s, std::function<void()> cb) {
  IDR_REQUIRE(delay_s >= 0.0, "add_timer: negative delay");
  IDR_REQUIRE(cb != nullptr, "add_timer: null callback");
  const TimerId id = ++next_timer_;
  timer_queue_.push_back(TimerEntry{now() + delay_s, id});
  std::push_heap(timer_queue_.begin(), timer_queue_.end(),
                 std::greater<>{});
  timers_.emplace(id, std::move(cb));
  c_timers_scheduled_.inc();
  return id;
}

bool Reactor::cancel_timer(TimerId id) {
  if (timers_.erase(id) == 0) return false;
  c_timers_cancelled_.inc();
  // A cancelled entry stays queued until its deadline would pass; once
  // dead entries outnumber live ones, drop them all in one O(n) sweep so
  // the queue stays proportional to the live timers.
  if (timer_queue_.size() - timers_.size() > timers_.size()) {
    std::erase_if(timer_queue_, [this](const TimerEntry& e) {
      return !timers_.contains(e.id);
    });
    std::make_heap(timer_queue_.begin(), timer_queue_.end(),
                   std::greater<>{});
  }
  return true;
}

void Reactor::pop_timer() {
  std::pop_heap(timer_queue_.begin(), timer_queue_.end(), std::greater<>{});
  timer_queue_.pop_back();
}

double Reactor::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

void Reactor::run_due_timers() {
  const double t = now();
  while (!timer_queue_.empty() && timer_queue_.front().deadline <= t) {
    const TimerId id = timer_queue_.front().id;
    pop_timer();
    const auto it = timers_.find(id);
    if (it == timers_.end()) continue;  // cancelled
    std::function<void()> cb = std::move(it->second);
    timers_.erase(it);
    c_timers_fired_.inc();
    cb();
  }
}

int Reactor::next_timeout_ms() {
  // Drop cancelled heads first, so a cancelled timer never wakes the loop.
  while (!timer_queue_.empty() &&
         !timers_.contains(timer_queue_.front().id)) {
    pop_timer();
  }
  if (timer_queue_.empty()) return -1;
  const double delta = timer_queue_.front().deadline - now();
  if (delta <= 0.0) return 0;
  return static_cast<int>(std::min(60000.0, std::ceil(delta * 1000.0)));
}

bool Reactor::poll(double max_wait_s) {
  int timeout_ms =
      static_cast<int>(std::llround(std::max(0.0, max_wait_s) * 1000.0));
  const int timer_ms = next_timeout_ms();
  if (timer_ms >= 0) timeout_ms = std::min(timeout_ms, timer_ms);

  std::array<epoll_event, 64> events{};
  const int n = ::epoll_wait(epoll_fd_, events.data(),
                             static_cast<int>(events.size()), timeout_ms);
  c_polls_.inc();
  if (n > 0) c_io_dispatches_.inc(static_cast<std::uint64_t>(n));
  // The dispatch span covers callback execution, not the epoll_wait block
  // itself — the interesting cost is what the loop does, not how long it
  // slept. Emitted only for non-empty wakeups to keep traces readable.
  obs::ScopedSpan span(n > 0 ? tracer_ : nullptr, trace_clock(),
                       "reactor.poll", "rt.reactor", trace_track_);
  bool fired = false;
  for (int i = 0; i < n; ++i) {
    const int fd = events[static_cast<std::size_t>(i)].data.fd;
    const auto it = fds_.find(fd);
    if (it == fds_.end()) continue;  // removed by an earlier callback
    IoEvents io;
    const std::uint32_t mask = events[static_cast<std::size_t>(i)].events;
    io.readable = (mask & EPOLLIN) != 0;
    io.writable = (mask & EPOLLOUT) != 0;
    io.error = (mask & (EPOLLERR | EPOLLHUP)) != 0;
    // Copy the callback: it may remove_fd (erasing the state) mid-call.
    IoCallback cb = it->second.callback;
    cb(io);
    fired = true;
  }
  run_due_timers();
  return fired || n > 0;
}

void Reactor::run() {
  stopped_ = false;
  while (!stopped_) {
    if (fds_.empty() && timers_.empty()) return;  // nothing to wait for
    poll(1.0);
  }
}

}  // namespace idr::rt
