// The shared probe-race machine: randomized scripted event sequences
// through a fake driver (protocol invariants), and one scenario table run
// through both real drivers — the simulated TransferEngine race and the
// loopback-socket race — which must agree on every verdict and count.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/probe_race.hpp"
#include "core/race_machine.hpp"
#include "rt/fault_shim.hpp"
#include "rt/http_server.hpp"
#include "rt/probe_race.hpp"
#include "rt/relay_daemon.hpp"
#include "util/rng.hpp"

namespace idr {
namespace {

// --- Fake driver: the machine's protocol under random scripts ------------

constexpr race::MetricNames kTestNames{
    "t.started", "t.won_direct", "t.won_indirect", "t.failed",
    "t.probe_failures", "t.retries", "t.overload", "t.fallbacks",
    "t.probe_seconds", obs::HistogramOptions{1e-3, 1e3, 4}, "t.races_run",
    "t.probe_bytes", "t.skipped", "t.age", obs::HistogramOptions{},
    "t.pinned_fallbacks",
};

struct FakeDriver final : race::Driver {
  obs::Registry metrics;
  race::Machine machine{*this, &metrics, kTestNames};

  struct Open {
    race::Phase phase;
    race::Lane lane;
    std::size_t attempt;
  };
  std::vector<Open> opens;
  std::set<race::Lane> live_lanes;          // opened probe lanes in flight
  std::optional<race::Phase> in_flight;     // the one non-probe attempt
  std::vector<race::Timer> armed;
  std::size_t finishes = 0;
  std::size_t calls_after_finish = 0;
  std::optional<race::Outcome> outcome;

  void touch() {
    if (finishes > 0) ++calls_after_finish;
  }
  void open(race::Phase phase, race::Lane lane, std::size_t attempt) override {
    touch();
    opens.push_back({phase, lane, attempt});
    if (phase == race::Phase::Probe) {
      live_lanes.insert(lane);
    } else {
      EXPECT_FALSE(in_flight.has_value()) << "two attempts in flight";
      in_flight = phase;
    }
  }
  void cancel_lane(race::Lane lane) override {
    touch();
    EXPECT_EQ(live_lanes.erase(lane), 1u) << "cancelled a finished lane";
  }
  void arm(race::Timer timer, double delay) override {
    touch();
    EXPECT_GE(delay, 0.0);
    armed.push_back(timer);
  }
  void disarm_probe_timeout() override {
    touch();
    const auto it =
        std::find(armed.begin(), armed.end(), race::Timer::ProbeTimeout);
    ASSERT_NE(it, armed.end()) << "disarmed a timeout that was not armed";
    armed.erase(it);
  }
  util::Rng rng{5};
  util::Rng& backoff_rng() override {
    touch();
    return rng;
  }
  void finish(const race::Outcome& o) override {
    touch();
    ++finishes;
    outcome = o;
  }
};

race::Attempt random_attempt(util::Rng& rng) {
  race::Attempt a;
  a.ok = rng.bernoulli(0.45);
  a.overloaded = !a.ok && rng.bernoulli(0.3);
  a.retry_after = a.overloaded ? rng.uniform(0.0, 2.0) : 0.0;
  a.error = a.ok ? "" : "scripted failure";
  return a;
}

bool has_duplicates(std::vector<std::size_t> v) {
  std::sort(v.begin(), v.end());
  return std::adjacent_find(v.begin(), v.end()) != v.end();
}

TEST(RaceMachine, RandomScriptsKeepTheProtocol) {
  util::Rng rng(0x5ACE);
  for (int script = 0; script < 3000; ++script) {
    FakeDriver d;
    race::Plan plan;
    plan.relays = static_cast<std::size_t>(rng.uniform_int(0, 4));
    if (plan.relays > 0 && rng.bernoulli(0.3)) {
      plan.pinned = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(plan.relays)));
    }
    plan.probe_covers_file = rng.bernoulli(0.2);
    plan.probe_timeout = rng.bernoulli(0.3) ? 1.0 : 0.0;
    plan.retry.max_retries = static_cast<std::size_t>(rng.uniform_int(0, 3));
    plan.probe_bytes = 100;
    double now = 0.0;
    d.machine.start(now, plan);

    int steps = 0;
    while (d.finishes == 0) {
      ASSERT_LT(++steps, 1000) << "script " << script << " never finished";
      // Gather every input the world could deliver next; pick one.
      std::vector<std::function<void()>> inputs;
      for (const race::Lane lane : d.live_lanes) {
        inputs.push_back([&d, &rng, &now, lane] {
          d.live_lanes.erase(lane);
          d.machine.done(now, race::Phase::Probe, lane, random_attempt(rng));
        });
      }
      if (d.in_flight) {
        inputs.push_back([&d, &rng, &now] {
          const race::Phase phase = *d.in_flight;
          d.in_flight.reset();
          d.machine.done(now, phase, 0, random_attempt(rng));
        });
      }
      for (std::size_t i = 0; i < d.armed.size(); ++i) {
        inputs.push_back([&d, i] {
          const race::Timer t = d.armed[i];
          d.armed.erase(d.armed.begin() + static_cast<std::ptrdiff_t>(i));
          d.machine.timer_fired(t);
        });
      }
      ASSERT_FALSE(inputs.empty())
          << "script " << script << ": race stalled with nothing pending";
      now += rng.uniform(0.0, 1.0);
      inputs[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(inputs.size()) - 1))]();
    }

    // Stale inputs after the finish are ignored.
    d.machine.done(now, race::Phase::Probe, 0, random_attempt(rng));
    d.machine.done(now, race::Phase::Fallback, 0, random_attempt(rng));
    d.machine.timer_fired(race::Timer::Retry);
    d.machine.timer_fired(race::Timer::ProbeTimeout);
    d.machine.fail(now, "late");

    ASSERT_EQ(d.finishes, 1u) << "script " << script;
    EXPECT_EQ(d.calls_after_finish, 0u) << "script " << script;
    const race::Outcome& o = *d.outcome;
    for (const auto& open : d.opens) {
      EXPECT_LE(open.attempt, plan.retry.max_retries) << "script " << script;
    }
    EXPECT_LE(o.retries, 2 * plan.retry.max_retries) << "script " << script;
    EXPECT_FALSE(has_duplicates(o.failed_relays)) << "script " << script;
    EXPECT_FALSE(has_duplicates(o.overloaded_relays)) << "script " << script;
    EXPECT_LE(o.probe_failures, plan.relays + 1) << "script " << script;
    EXPECT_EQ(o.total_elapsed, now) << "script " << script;
    if (o.ok) {
      EXPECT_TRUE(o.error.empty());
    } else {
      EXPECT_FALSE(o.error.empty());
      EXPECT_FALSE(o.chose_indirect());
    }
    EXPECT_EQ(d.metrics.counter("t.started").value(), 1u);
    EXPECT_EQ(d.metrics.counter("t.won_direct").value() +
                  d.metrics.counter("t.won_indirect").value() +
                  d.metrics.counter("t.failed").value(),
              1u);
  }
}

TEST(RaceMachine, FailedPinIsChargedToTheRelayNotTheProbe) {
  FakeDriver d;
  race::Plan plan;
  plan.relays = 2;
  plan.pinned = 1;
  d.machine.start(0.0, plan);
  ASSERT_EQ(d.opens.size(), 1u);
  EXPECT_EQ(d.opens[0].phase, race::Phase::Pinned);
  EXPECT_EQ(d.opens[0].lane, 2u);
  d.in_flight.reset();
  d.machine.done(3.0, race::Phase::Pinned, 2,
                 race::Attempt{false, false, 0.0, "down"});
  // The full race launches, direct first.
  ASSERT_EQ(d.opens.size(), 4u);
  EXPECT_EQ(d.opens[1].phase, race::Phase::Probe);
  EXPECT_EQ(d.opens[1].lane, race::kDirect);
  d.machine.done(4.0, race::Phase::Probe, 1,
                 race::Attempt{true, false, 0.0, ""});
  d.in_flight.reset();
  d.machine.done(5.0, race::Phase::Remainder, 1,
                 race::Attempt{true, false, 0.0, ""});
  ASSERT_TRUE(d.outcome && d.outcome->ok);
  EXPECT_FALSE(d.outcome->race_skipped);
  EXPECT_EQ(d.outcome->probe_failures, 0u);
  EXPECT_EQ(d.outcome->failed_relays, std::vector<std::size_t>{1});
  EXPECT_EQ(d.outcome->winner, 1u);
  // Elapsed times run from the original start, failed pin included.
  EXPECT_DOUBLE_EQ(d.outcome->probe_elapsed, 4.0);
  EXPECT_DOUBLE_EQ(d.outcome->total_elapsed, 5.0);
  EXPECT_EQ(d.metrics.counter("t.pinned_fallbacks").value(), 1u);
}

TEST(RaceMachine, DirectShedCountsAsOverload) {
  FakeDriver d;
  race::Plan plan;
  plan.relays = 1;
  d.machine.start(0.0, plan);
  d.machine.done(1.0, race::Phase::Probe, race::kDirect,
                 race::Attempt{false, true, 0.5, "503"});
  d.machine.done(2.0, race::Phase::Probe, 1,
                 race::Attempt{true, false, 0.0, ""});
  d.in_flight.reset();
  d.machine.done(3.0, race::Phase::Remainder, 1,
                 race::Attempt{true, false, 0.0, ""});
  ASSERT_TRUE(d.outcome && d.outcome->ok);
  EXPECT_EQ(d.outcome->overload_rejections, 1u);
  EXPECT_EQ(d.outcome->probe_failures, 1u);
  EXPECT_TRUE(d.outcome->overloaded_relays.empty());
}

// --- Cross-stack table: both drivers, one verdict -------------------------

/// The fields every scenario compares across the two stacks.
struct Verdict {
  bool ok = false;
  bool chose_indirect = false;
  std::size_t probe_failures = 0;
  std::size_t retries = 0;
  bool fell_back_direct = false;
  std::size_t overload_rejections = 0;

  bool operator==(const Verdict&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Verdict& v) {
  return os << "{ok " << v.ok << ", indirect " << v.chose_indirect
            << ", probe_failures " << v.probe_failures << ", retries "
            << v.retries << ", fell_back " << v.fell_back_direct
            << ", overload " << v.overload_rejections << "}";
}

enum class Scenario {
  DeadRelayLane,
  WinnerDiesInRemainder,
  EverythingDead,
  RelayShedsDirectWins,
  DeadPinnedRelay,
};

// Simulated stack: direct path server->gw->client plus a fast and a slow
// relay; the fast relay beats direct comfortably.
struct SimWorld {
  sim::Simulator sim;
  net::Topology topo;
  std::optional<flow::FlowSimulator> fsim;
  std::optional<overlay::WebServerModel> server;
  std::optional<overlay::TransferEngine> engine;
  net::NodeId server_node, gw, client, fast, slow;

  SimWorld() {
    using util::mbps;
    using util::milliseconds;
    server_node = topo.add_node("server");
    gw = topo.add_node("gw");
    client = topo.add_node("client");
    fast = topo.add_node("fast");
    slow = topo.add_node("slow");
    topo.add_link(server_node, gw, mbps(0.8), milliseconds(90));
    topo.add_link(gw, client, mbps(50), milliseconds(5));
    topo.add_link(server_node, fast, mbps(40), milliseconds(20));
    topo.add_link(fast, gw, mbps(8.0), milliseconds(85));
    topo.add_link(server_node, slow, mbps(40), milliseconds(25));
    topo.add_link(slow, gw, mbps(2.0), milliseconds(95));
    fsim.emplace(sim, topo, util::Rng(9));
    server.emplace(server_node, "server");
    server->add_resource("/f", 2.0e6);
    engine.emplace(*fsim);
  }

  core::RaceSpec spec(std::vector<net::NodeId> candidates) {
    core::RaceSpec s;
    s.client = client;
    s.server = &*server;
    s.resource = "/f";
    s.candidate_relays = std::move(candidates);
    return s;
  }

  core::RaceOutcome run(const core::RaceSpec& spec) {
    std::optional<core::RaceOutcome> outcome;
    core::start_probe_race(*engine, spec,
                           [&](const core::RaceOutcome& o) { outcome = o; });
    sim.run();
    EXPECT_TRUE(outcome.has_value());
    return outcome.value_or(core::RaceOutcome{});
  }
};

Verdict verdict_of(const core::RaceOutcome& o) {
  return {o.ok,      o.chose_indirect,   o.probe_failures,
          o.retries, o.fell_back_direct, o.overload_rejections};
}

Verdict verdict_of(const rt::RaceResult& r) {
  return {r.ok,      r.chose_indirect,   r.probe_failures,
          r.retries, r.fell_back_direct, r.overload_rejections};
}

Verdict run_sim(Scenario scenario) {
  SimWorld w;
  switch (scenario) {
    case Scenario::DeadRelayLane:
      w.engine->set_relay_down(w.fast, true);
      return verdict_of(w.run(w.spec({w.fast, w.slow})));
    case Scenario::WinnerDiesInRemainder: {
      // The clean timeline first (same seed): crash the winner halfway
      // through its remainder, and keep it down past the retry.
      double probe_end = 0.0, total_end = 0.0;
      {
        SimWorld clean;
        const core::RaceOutcome o = clean.run(clean.spec({clean.fast}));
        probe_end = o.probe_elapsed;
        total_end = o.total_elapsed;
      }
      const double crash = 0.5 * (probe_end + total_end);
      w.sim.schedule_at(crash,
                        [&w] { w.engine->set_relay_down(w.fast, true); });
      return verdict_of(w.run(w.spec({w.fast})));
    }
    case Scenario::EverythingDead:
      w.engine->set_direct_down(true);
      w.engine->set_relay_down(w.fast, true);
      return verdict_of(w.run(w.spec({w.fast})));
    case Scenario::RelayShedsDirectWins: {
      overlay::RelayParams params;
      params.max_concurrent = 1;
      params.queue_limit = 0;
      w.engine->set_relay_params(w.fast, params);
      // A blocker holds the relay's only slot for the whole race.
      overlay::TransferRequest blocker;
      blocker.client = w.client;
      blocker.server = &*w.server;
      blocker.resource = "/f";
      blocker.relay = w.fast;
      w.engine->begin(blocker, [](const overlay::TransferResult&) {});
      return verdict_of(w.run(w.spec({w.fast})));
    }
    case Scenario::DeadPinnedRelay: {
      w.engine->set_relay_down(w.slow, true);
      core::RaceSpec spec = w.spec({w.slow, w.fast});
      spec.pinned_relay = w.slow;
      return verdict_of(w.run(spec));
    }
  }
  return {};
}

void spin_until(rt::Reactor& reactor, double deadline_s,
                const std::function<bool()>& done) {
  const double deadline = reactor.now() + deadline_s;
  while (!done() && reactor.now() < deadline) reactor.poll(0.02);
  ASSERT_TRUE(done()) << "condition not reached within deadline";
}

// Real stack on loopback: relayed requests (Via) are unthrottled and
// direct ones throttled, so a live relay beats direct.
Verdict run_rt(Scenario scenario) {
  rt::FaultShim::instance().clear();
  rt::Reactor reactor;
  rt::HttpOriginServer origin{reactor, 0};
  origin.add_resource("/blob", 200000);
  rt::ServerLimits limits;
  if (scenario == Scenario::RelayShedsDirectWins) limits.max_sessions = 1;
  rt::RelayDaemon relay{reactor, 0, limits};
  double direct_rate = 150000.0, relayed_rate = 0.0;
  if (scenario == Scenario::RelayShedsDirectWins) relayed_rate = 40000.0;
  origin.set_shaping_policy([=](const http::Request& r) {
    return r.headers.has("Via") ? relayed_rate : direct_rate;
  });
  const rt::Endpoint live{"127.0.0.1", relay.port()};
  const rt::Endpoint dead{"127.0.0.1", 1};  // nothing listens there

  rt::RaceSpec spec;
  spec.origin.port = origin.port();
  spec.path = "/blob";
  spec.resource_size = 200000;
  spec.probe_bytes = 50000;
  spec.timeout_s = 10.0;
  spec.relays = {live};

  rt::FetchHandle blocker;
  switch (scenario) {
    case Scenario::DeadRelayLane:
      spec.relays = {dead, live};
      break;
    case Scenario::WinnerDiesInRemainder: {
      // FIFO per port: the probe lane's dial is left alone (a cut far
      // past the probe), then the remainder and its retry are refused.
      rt::FaultRule benign;
      benign.kind = rt::FaultKind::kMidStreamReset;
      benign.after_bytes = 1ull << 30;
      rt::FaultShim::instance().arm(relay.port(), benign);
      rt::FaultRule refuse;
      refuse.kind = rt::FaultKind::kDropOnConnect;
      refuse.uses = 2;
      rt::FaultShim::instance().arm(relay.port(), refuse);
      break;
    }
    case Scenario::EverythingDead: {
      rt::FaultRule refuse;
      refuse.kind = rt::FaultKind::kDropOnConnect;
      refuse.uses = -1;
      rt::FaultShim::instance().arm(origin.port(), refuse);
      rt::FaultShim::instance().arm(relay.port(), refuse);
      break;
    }
    case Scenario::RelayShedsDirectWins: {
      rt::FetchRequest req;
      req.origin.port = origin.port();
      req.path = "/blob";
      req.proxy = live;
      blocker = rt::fetch(reactor, req, [](const rt::FetchResult&) {});
      spin_until(reactor, 10.0, [&] { return relay.active_sessions() == 1; });
      break;
    }
    case Scenario::DeadPinnedRelay:
      spec.relays = {dead, live};
      spec.pinned_relay = 0;
      break;
  }

  std::optional<rt::RaceResult> result;
  rt::start_probe_race(reactor, spec,
                       [&](const rt::RaceResult& r) { result = r; });
  spin_until(reactor, 30.0, [&] { return result.has_value(); });
  blocker.cancel();
  rt::FaultShim::instance().clear();
  if (!result) return {};
  if (result->ok) {
    EXPECT_TRUE(result->body_verified);
  }
  return verdict_of(*result);
}

struct Row {
  Scenario scenario;
  const char* name;
  Verdict expected;
};

class CrossStack : public ::testing::TestWithParam<Row> {};

TEST_P(CrossStack, BothDriversReachTheSameVerdict) {
  const Row& row = GetParam();
  const Verdict sim = run_sim(row.scenario);
  const Verdict real = run_rt(row.scenario);
  EXPECT_EQ(sim, row.expected) << "simulated stack";
  EXPECT_EQ(real, row.expected) << "socket stack";
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, CrossStack,
    ::testing::Values(
        // {ok, indirect, probe_failures, retries, fell_back, overload}
        Row{Scenario::DeadRelayLane, "DeadRelayLane",
            {true, true, 1, 0, false, 0}},
        Row{Scenario::WinnerDiesInRemainder, "WinnerDiesInRemainder",
            {true, true, 0, 1, true, 0}},
        Row{Scenario::EverythingDead, "EverythingDead",
            {false, false, 2, 1, true, 0}},
        Row{Scenario::RelayShedsDirectWins, "RelayShedsDirectWins",
            {true, false, 1, 0, false, 1}},
        Row{Scenario::DeadPinnedRelay, "DeadPinnedRelay",
            {true, true, 1, 0, false, 0}}),
    [](const ::testing::TestParamInfo<Row>& info) {
      return std::string(info.param.name);
    });

// --- Simulated regression: a failed pin's time is charged ----------------

TEST(SimRace, ForcedRaceAfterFailedPinCountsThePinnedAttempt) {
  SimWorld w;
  // The pinned relay carries the file until it crashes at t = 1 s; the
  // race that follows must report elapsed time from the original start.
  const double crash = 1.0;
  w.sim.schedule_at(crash, [&w] { w.engine->set_relay_down(w.slow, true); });
  core::RaceSpec spec = w.spec({w.fast});
  spec.pinned_relay = w.slow;
  std::optional<core::RaceOutcome> outcome;
  double finished_at = 0.0;
  core::start_probe_race(*w.engine, spec, [&](const core::RaceOutcome& o) {
    outcome = o;
    finished_at = w.sim.now();
  });
  w.sim.run();
  ASSERT_TRUE(outcome && outcome->ok);
  EXPECT_FALSE(outcome->race_skipped);
  EXPECT_GT(outcome->total_elapsed, crash);
  EXPECT_DOUBLE_EQ(outcome->total_elapsed, finished_at);
  EXPECT_GT(outcome->probe_elapsed, crash);
  EXPECT_EQ(outcome->failed_relays, std::vector<net::NodeId>{w.slow});
  EXPECT_EQ(outcome->probe_failures, 0u);
}

}  // namespace
}  // namespace idr
