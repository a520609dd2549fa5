#include "rt/reactor.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <vector>

#include "rt/socket.hpp"
#include "rt/timer_wheel.hpp"
#include "util/error.hpp"

namespace idr::rt {
namespace {

void spin_until(Reactor& reactor, double deadline_s,
                const std::function<bool()>& done) {
  const double deadline = reactor.now() + deadline_s;
  while (!done() && reactor.now() < deadline) {
    reactor.poll(0.02);
  }
  ASSERT_TRUE(done()) << "condition not reached within deadline";
}

TEST(Reactor, TimersFireInOrder) {
  Reactor reactor;
  std::vector<int> order;
  reactor.add_timer(0.03, [&] { order.push_back(3); });
  reactor.add_timer(0.01, [&] { order.push_back(1); });
  reactor.add_timer(0.02, [&] { order.push_back(2); });
  spin_until(reactor, 2.0, [&] { return order.size() == 3; });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Reactor, CancelledTimerDoesNotFire) {
  Reactor reactor;
  bool fired = false;
  const TimerId id = reactor.add_timer(0.01, [&] { fired = true; });
  EXPECT_TRUE(reactor.cancel_timer(id));
  EXPECT_FALSE(reactor.cancel_timer(id));
  bool sentinel = false;
  reactor.add_timer(0.05, [&] { sentinel = true; });
  spin_until(reactor, 2.0, [&] { return sentinel; });
  EXPECT_FALSE(fired);
}

TEST(Reactor, TimerCanScheduleTimer) {
  Reactor reactor;
  int hops = 0;
  std::function<void()> chain = [&] {
    if (++hops < 3) reactor.add_timer(0.005, chain);
  };
  reactor.add_timer(0.005, chain);
  spin_until(reactor, 2.0, [&] { return hops == 3; });
}

TEST(Reactor, PipeReadability) {
  Reactor reactor;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string received;
  reactor.add_fd(fds[0], true, false, [&](IoEvents events) {
    if (events.readable) {
      char buf[64];
      const ssize_t n = ::read(fds[0], buf, sizeof(buf));
      if (n > 0) received.assign(buf, static_cast<std::size_t>(n));
    }
  });
  ASSERT_EQ(::write(fds[1], "ping", 4), 4);
  spin_until(reactor, 2.0, [&] { return received == "ping"; });
  reactor.remove_fd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Reactor, RunStopsWhenNothingToWaitFor) {
  Reactor reactor;
  int fired = 0;
  reactor.add_timer(0.005, [&] { ++fired; });
  reactor.run();  // returns after the last timer, no fds registered
  EXPECT_EQ(fired, 1);
}

TEST(Reactor, DuplicateFdRejected) {
  Reactor reactor;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  reactor.add_fd(fds[0], true, false, [](IoEvents) {});
  EXPECT_THROW(reactor.add_fd(fds[0], true, false, [](IoEvents) {}),
               util::Error);
  reactor.remove_fd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Sockets, ListenerGetsEphemeralPort) {
  FdHandle listener = listen_loopback(0);
  EXPECT_GT(local_port(listener.get()), 0);
  // Accept queue empty: non-blocking accept says so rather than blocking.
  EXPECT_FALSE(accept_nonblocking(listener.get()).has_value());
}

TEST(Sockets, FdHandleMoveSemantics) {
  FdHandle a = listen_loopback(0);
  const int raw = a.get();
  FdHandle b = std::move(a);
  EXPECT_FALSE(a.valid());
  EXPECT_EQ(b.get(), raw);
  b.reset();
  EXPECT_FALSE(b.valid());
}

TEST(Reactor, TimerCancellingItselfFromItsOwnCallbackIsBenign) {
  Reactor reactor;
  TimerId self = 0;
  int fired = 0;
  self = reactor.add_timer(0.005, [&] {
    ++fired;
    // Already popped: the cancel must report "not found", not corrupt the
    // queue or double-invoke anything.
    EXPECT_FALSE(reactor.cancel_timer(self));
  });
  bool sentinel = false;
  reactor.add_timer(0.05, [&] { sentinel = true; });
  spin_until(reactor, 2.0, [&] { return sentinel; });
  EXPECT_EQ(fired, 1);
}

TEST(Reactor, TimerCancellingASiblingDueInTheSamePoll) {
  // Two timers due at once; the first to fire cancels the second. Works
  // regardless of heap pop order: whichever runs first suppresses the
  // other, so exactly one of them executes.
  Reactor reactor;
  int fired = 0;
  TimerId a = 0, b = 0;
  a = reactor.add_timer(0.005, [&] {
    ++fired;
    reactor.cancel_timer(b);
  });
  b = reactor.add_timer(0.005, [&] {
    ++fired;
    reactor.cancel_timer(a);
  });
  bool sentinel = false;
  reactor.add_timer(0.1, [&] { sentinel = true; });
  spin_until(reactor, 2.0, [&] { return sentinel; });
  EXPECT_EQ(fired, 1);
}

TEST(Reactor, AddCancelStormLeavesTimersConsistent) {
  Reactor reactor;
  int fired = 0;
  // Churn: large batches added and immediately cancelled, with one real
  // survivor per batch. All the churn must be invisible.
  for (int batch = 0; batch < 10; ++batch) {
    for (int i = 0; i < 200; ++i) {
      const TimerId id =
          reactor.add_timer(0.001 + 0.0001 * i, [&] { ADD_FAILURE(); });
      ASSERT_TRUE(reactor.cancel_timer(id));
    }
    reactor.add_timer(0.002, [&] { ++fired; });
  }
  spin_until(reactor, 5.0, [&] { return fired == 10; });
}

TEST(Reactor, CancelledTimersDoNotAccumulateInTheQueue) {
  Reactor reactor;
  // Race-shaped churn: long timeouts armed and cancelled long before
  // their deadlines. The queue must track live timers, not history.
  for (int i = 0; i < 100000; ++i) {
    const TimerId id = reactor.add_timer(30.0, [] { ADD_FAILURE(); });
    ASSERT_TRUE(reactor.cancel_timer(id));
    ASSERT_LE(reactor.timer_queue_size(), 1u);
  }
  // Bulk: 100k live, then all but ten cancelled.
  std::vector<TimerId> ids;
  for (int i = 0; i < 100000; ++i) {
    ids.push_back(reactor.add_timer(30.0 + 1e-6 * i, [] { ADD_FAILURE(); }));
  }
  for (std::size_t i = 10; i < ids.size(); ++i) {
    ASSERT_TRUE(reactor.cancel_timer(ids[i]));
    const std::size_t live = ids.size() - i - 1 + 10;
    ASSERT_LE(reactor.timer_queue_size(), 2 * live + 1);
  }
  EXPECT_LE(reactor.timer_queue_size(), 21u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(reactor.cancel_timer(ids[i]));
  }
  EXPECT_FALSE(reactor.cancel_timer(ids[0]));  // already cancelled
  // A cancelled head no longer bounds the wait: with nothing live the
  // loop has nothing to wait for.
  reactor.poll(0.0);
  EXPECT_EQ(reactor.timer_queue_size(), 0u);
}

TEST(Reactor, FiringOrderSurvivesCompaction) {
  Reactor reactor;
  std::vector<int> fired;
  std::vector<TimerId> ids;
  for (int i = 0; i < 300; ++i) {
    // Deadlines interleave in reverse id order: 299 first, 0 last.
    ids.push_back(reactor.add_timer(0.001 * (300 - i) / 30.0,
                                    [&fired, i] { fired.push_back(i); }));
  }
  // Cancel two of every three: compaction runs mid-way.
  for (int i = 0; i < 300; ++i) {
    if (i % 3 != 0) {
      ASSERT_TRUE(reactor.cancel_timer(ids[i]));
    }
  }
  EXPECT_LE(reactor.timer_queue_size(), 2 * 100u + 1);
  spin_until(reactor, 5.0, [&] { return fired.size() == 100; });
  for (std::size_t k = 0; k < fired.size(); ++k) {
    EXPECT_EQ(fired[k], 297 - 3 * static_cast<int>(k));
  }
}

TEST(Reactor, TimerAccuracyUnderBusyFdSet) {
  // A level-triggered fd with permanently pending data keeps every poll
  // busy; timers must still fire close to their deadline instead of
  // starving behind fd work.
  Reactor reactor;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);  // never drained: always readable
  std::uint64_t wakeups = 0;
  reactor.add_fd(fds[0], true, false, [&](IoEvents) { ++wakeups; });

  const double armed_at = reactor.now();
  double fired_at = 0.0;
  reactor.add_timer(0.1, [&] { fired_at = reactor.now(); });
  spin_until(reactor, 5.0, [&] { return fired_at > 0.0; });
  EXPECT_GE(fired_at - armed_at, 0.1);
  EXPECT_LT(fired_at - armed_at, 0.6);  // late is bounded, even under load
  EXPECT_GT(wakeups, 0u);

  reactor.remove_fd(fds[0]);
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- TimerWheel -------------------------------------------------------------

TEST(TimerWheel, FiresOnceWithinATickOfTheDeadline) {
  Reactor reactor;
  TimerWheel wheel(reactor, 0.01);
  const double armed_at = reactor.now();
  double fired_at = 0.0;
  wheel.add(0.05, [&] { fired_at = reactor.now(); });
  EXPECT_EQ(wheel.size(), 1u);
  spin_until(reactor, 2.0, [&] { return fired_at > 0.0; });
  EXPECT_GE(fired_at - armed_at, 0.05 - 1e-9);
  EXPECT_LT(fired_at - armed_at, 0.05 + 10 * wheel.tick_seconds());
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, DelaysBeyondOneRingRevolutionWait) {
  // 8 slots at 10 ms = one 80 ms revolution; a 200 ms deadline must ride
  // the rounds counter, not fire on the first cursor pass.
  Reactor reactor;
  TimerWheel wheel(reactor, 0.01, /*slot_count=*/8);
  const double armed_at = reactor.now();
  double fired_at = 0.0;
  wheel.add(0.2, [&] { fired_at = reactor.now(); });
  spin_until(reactor, 3.0, [&] { return fired_at > 0.0; });
  EXPECT_GE(fired_at - armed_at, 0.2 - 1e-9);
}

TEST(TimerWheel, CancelPreventsFiring) {
  Reactor reactor;
  TimerWheel wheel(reactor, 0.01);
  const TimerWheel::Token token = wheel.add(0.03, [] { ADD_FAILURE(); });
  EXPECT_TRUE(wheel.cancel(token));
  EXPECT_FALSE(wheel.cancel(token));  // already gone
  EXPECT_EQ(wheel.size(), 0u);
  bool sentinel = false;
  reactor.add_timer(0.1, [&] { sentinel = true; });
  spin_until(reactor, 2.0, [&] { return sentinel; });
}

TEST(TimerWheel, CancellingOwnTokenInsideCallbackIsBenign) {
  Reactor reactor;
  TimerWheel wheel(reactor, 0.01);
  TimerWheel::Token self = 0;
  int fired = 0;
  self = wheel.add(0.02, [&] {
    ++fired;
    EXPECT_FALSE(wheel.cancel(self));  // already removed before invoking
  });
  spin_until(reactor, 2.0, [&] { return fired == 1; });
}

TEST(TimerWheel, CallbackCanCancelASiblingDueInTheSameTick) {
  Reactor reactor;
  TimerWheel wheel(reactor, 0.01);
  int fired = 0;
  TimerWheel::Token a = 0, b = 0;
  a = wheel.add(0.02, [&] {
    ++fired;
    wheel.cancel(b);
  });
  b = wheel.add(0.02, [&] {
    ++fired;
    wheel.cancel(a);
  });
  bool sentinel = false;
  reactor.add_timer(0.2, [&] { sentinel = true; });
  spin_until(reactor, 2.0, [&] { return sentinel; });
  // Both entries were due in the same tick and had already been detached
  // when their callbacks ran, so the cross-cancels are no-ops: both fire.
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, CallbackCanAddNewEntries) {
  Reactor reactor;
  TimerWheel wheel(reactor, 0.005);
  int hops = 0;
  std::function<void()> chain = [&] {
    if (++hops < 4) wheel.add(0.01, chain);
  };
  wheel.add(0.01, chain);
  spin_until(reactor, 3.0, [&] { return hops == 4; });
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheel, RescheduleDefersFiring) {
  Reactor reactor;
  TimerWheel wheel(reactor, 0.01);
  const double armed_at = reactor.now();
  double fired_at = 0.0;
  const TimerWheel::Token token =
      wheel.add(0.02, [&] { fired_at = reactor.now(); });
  // Push the deadline out well past the original.
  EXPECT_TRUE(wheel.reschedule(token, 0.15));
  spin_until(reactor, 3.0, [&] { return fired_at > 0.0; });
  EXPECT_GE(fired_at - armed_at, 0.15 - 1e-9);
  EXPECT_FALSE(wheel.reschedule(token, 0.1));  // fired: token is dead
}

TEST(TimerWheel, RescheduleStormIsAbsorbed) {
  // The idle-reaper pattern: thousands of touches on live connections,
  // each a reschedule. The wheel must stay consistent and still fire each
  // entry exactly once at its final deadline.
  Reactor reactor;
  TimerWheel wheel(reactor, 0.01, /*slot_count=*/16);
  constexpr int kEntries = 50;
  int fired = 0;
  std::vector<TimerWheel::Token> tokens;
  tokens.reserve(kEntries);
  for (int i = 0; i < kEntries; ++i) {
    tokens.push_back(wheel.add(10.0, [&] { ++fired; }));
  }
  for (int round = 0; round < 200; ++round) {
    for (const TimerWheel::Token token : tokens) {
      ASSERT_TRUE(wheel.reschedule(token, 10.0 - 0.001 * round));
    }
  }
  EXPECT_EQ(wheel.size(), static_cast<std::size_t>(kEntries));
  // Final touch brings every deadline near: all must fire exactly once.
  for (const TimerWheel::Token token : tokens) {
    ASSERT_TRUE(wheel.reschedule(token, 0.02));
  }
  spin_until(reactor, 5.0, [&] { return fired == kEntries; });
  EXPECT_EQ(wheel.size(), 0u);
  bool sentinel = false;
  reactor.add_timer(0.1, [&] { sentinel = true; });
  spin_until(reactor, 2.0, [&] { return sentinel; });
  EXPECT_EQ(fired, kEntries);
}

TEST(TimerWheel, EmptyWheelKeepsReactorFreeToExit) {
  // The wheel arms its reactor timer only while it has entries, so a
  // drained wheel must not keep Reactor::run() alive.
  Reactor reactor;
  TimerWheel wheel(reactor, 0.01);
  const TimerWheel::Token token = wheel.add(5.0, [] { ADD_FAILURE(); });
  EXPECT_TRUE(wheel.cancel(token));
  int fired = 0;
  reactor.add_timer(0.005, [&] { ++fired; });
  reactor.run();  // exits promptly: nothing left but the short timer
  EXPECT_EQ(fired, 1);
}

TEST(Sockets, ConnectToListenerSucceeds) {
  Reactor reactor;
  FdHandle listener = listen_loopback(0);
  const std::uint16_t port = local_port(listener.get());
  FdHandle client = connect_nonblocking("127.0.0.1", port);
  bool connected = false;
  reactor.add_fd(client.get(), false, true, [&](IoEvents events) {
    if (events.writable && connect_error(client.get()) == 0) {
      connected = true;
      reactor.remove_fd(client.get());
    }
  });
  spin_until(reactor, 2.0, [&] { return connected; });
}

}  // namespace
}  // namespace idr::rt
