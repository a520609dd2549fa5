// Real-socket workloads: origin, relays and client on loopback.
//
// The end-to-end figures come from the *single* layout: origin, relays and
// client share one reactor on the main thread, so process CPU time is the
// whole data plane's cost. A traced run adds the *split* layout, one
// reactor thread per role, to charge CPU to each role through
// CLOCK_THREAD_CPUTIME_ID.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "rt/http_client.hpp"
#include "rt/http_server.hpp"
#include "rt/probe_race.hpp"
#include "rt/reactor.hpp"
#include "rt/relay_daemon.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace idr;

constexpr const char* kBulkPath = "/bulk";
constexpr const char* kRacePath = "/race";
constexpr const char* kWarmPath = "/warm";
constexpr std::uint64_t kRaceSize = 16 * 1024;
constexpr std::uint64_t kRaceProbe = 4 * 1024;
constexpr std::uint64_t kWarmSize = 64 * 1024;
// Rate granted to a direct (Via-less) request for the race resource: the
// loopback stand-in for the slow direct path, so relays win the races and
// the relayed remainder is exercised. Unthrottled, the direct path wins
// every race on loopback.
constexpr double kDirectRaceRate = 20e3;
constexpr std::size_t kSpanCap = 20000;  // poll spans kept per role
// Reference events run between rounds (measure.hpp): the host's speed
// sampled through the run at ~1-2 % of its CPU.
constexpr int kReferenceEventsPerRound = 20000;
// race_churn reads its peak RSS after this many rounds (3,000 races), a
// fixed amount of work: the reactor keeps each cancelled race timer queued
// until its deadline, so the high-water mark keeps rising with the races a
// run fits in, which the host's speed sets. At ~4 queued entries per race
// the queue is then well between two of its vector's doublings.
constexpr int kChurnRssRounds = 12;

/// The origin's body pattern, recomputed here independently of the
/// program: byte at offset o is 'A' + ((o * 131 + (o >> 7)) mod 53).
char expected_byte(std::uint64_t o) {
  return static_cast<char>('A' + ((o * 131 + (o >> 7)) % 53));
}

unsigned cores() { return std::max(1u, std::thread::hardware_concurrency()); }

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Origin + relays + the client's reactor, in either layout.
class RtWorld {
 public:
  RtWorld(bool split, std::size_t relays, std::uint64_t bulk_size,
          TraceSink* sink)
      : split_(split), sink_(sink) {
    if (split_) {
      origin_reactor_ = std::make_unique<rt::Reactor>();
      relay_reactor_ = std::make_unique<rt::Reactor>();
    }
    origin_ = std::make_unique<rt::HttpOriginServer>(origin_reactor(), 0);
    origin_->add_resource(kBulkPath, bulk_size);
    origin_->add_resource(kRacePath, kRaceSize);
    origin_->add_resource(kWarmPath, kWarmSize);
    origin_->set_shaping_policy([](const http::Request& request) {
      const bool race = request.target.find(kRacePath) != std::string::npos;
      return race && !request.headers.has("Via") ? kDirectRaceRate : 0.0;
    });
    for (std::size_t i = 0; i < relays; ++i) {
      relays_.push_back(std::make_unique<rt::RelayDaemon>(relay_reactor(), 0));
    }
    if (split_) {
      origin_thread_ = std::thread([this] {
        loop(*origin_reactor_, 11, "origin", origin_spans_);
      });
      relay_thread_ = std::thread([this] {
        loop(*relay_reactor_, 12, "relay", relay_spans_);
      });
    }
  }

  ~RtWorld() {
    stop_.store(true);
    if (origin_thread_.joinable()) origin_thread_.join();
    if (relay_thread_.joinable()) relay_thread_.join();
  }

  RtWorld(const RtWorld&) = delete;
  RtWorld& operator=(const RtWorld&) = delete;

  rt::Reactor& client() { return client_; }
  rt::Endpoint origin_ep() const { return {"127.0.0.1", origin_->port()}; }
  rt::Endpoint relay_ep(std::size_t i) const {
    return {"127.0.0.1", relays_.at(i)->port()};
  }
  std::size_t relay_count() const { return relays_.size(); }
  /// Poll spans are recorded only while tracing is on.
  void set_tracing(bool on) { tracing_.store(on); }

  /// Drives the client reactor until `done()`; false on timeout.
  bool pump(const std::function<bool()>& done, double timeout_s) {
    const double deadline = wall_s() + timeout_s;
    while (!done()) {
      if (wall_s() > deadline) return false;
      poll_once(client_, 10, "client", client_spans_);
    }
    return true;
  }

  struct RoleCpu {
    double origin = 0.0;
    double relay = 0.0;
    double client = 0.0;
  };
  /// Per-role CPU seconds (split layout only).
  RoleCpu role_cpu() {
    RoleCpu c;
    if (!split_) return c;
    c.origin = thread_cpu_s(origin_thread_.native_handle());
    c.relay = thread_cpu_s(relay_thread_.native_handle());
    c.client = thread_cpu_s();
    return c;
  }

  /// The `rt.*` registries of every reactor, the origin and the relays.
  obs::Snapshot snapshot() const {
    obs::Snapshot s = client_.metrics().snapshot();
    if (split_) {
      s.merge(origin_reactor_->metrics().snapshot());
      s.merge(relay_reactor_->metrics().snapshot());
    }
    s.merge(origin_->metrics().snapshot());
    for (const auto& r : relays_) s.merge(r->metrics().snapshot());
    return s;
  }

 private:
  rt::Reactor& origin_reactor() {
    return split_ ? *origin_reactor_ : client_;
  }
  rt::Reactor& relay_reactor() { return split_ ? *relay_reactor_ : client_; }

  void poll_once(rt::Reactor& r, std::uint64_t track, const char* role,
                 std::size_t& spans) {
    if (sink_ == nullptr || !tracing_.load(std::memory_order_relaxed)) {
      r.poll(0.002);
      return;
    }
    const double t0 = sink_->now_us();
    if (r.poll(0.002) && spans < kSpanCap) {
      ++spans;
      sink_->span("reactor.poll", role, track, t0);
    }
  }

  void loop(rt::Reactor& r, std::uint64_t track, const char* role,
            std::size_t& spans) {
    while (!stop_.load(std::memory_order_relaxed)) {
      poll_once(r, track, role, spans);
    }
  }

  bool split_;
  TraceSink* sink_;
  rt::Reactor client_;
  std::unique_ptr<rt::Reactor> origin_reactor_;
  std::unique_ptr<rt::Reactor> relay_reactor_;
  std::unique_ptr<rt::HttpOriginServer> origin_;
  std::vector<std::unique_ptr<rt::RelayDaemon>> relays_;
  std::size_t client_spans_ = 0;
  std::size_t origin_spans_ = 0;
  std::size_t relay_spans_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> tracing_{false};
  // Declared last: the threads use everything above and are joined in the
  // destructor body, before any member is destroyed.
  std::thread origin_thread_;
  std::thread relay_thread_;
};

/// Work counters over one measured phase.
struct Counters {
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t allocations = 0;
  std::uint64_t syscalls = 0;
  RtWorld::RoleCpu role;
  obs::Snapshot snap;

  /// Opens a phase: the clocks are read last, so reading the counters
  /// is not charged to the phase.
  static Counters begin(RtWorld& w) {
    Counters c;
    c.snap = w.snapshot();
    c.syscalls = perfbench::syscalls();
    c.allocations = perfbench::allocations();
    c.role = w.role_cpu();
    c.wall_s = perfbench::wall_s();
    c.cpu_s = process_cpu_s();
    return c;
  }

  /// Closes a phase opened by begin(): clocks first, then the counters.
  static Counters since(RtWorld& w, const Counters& before) {
    Counters c;
    c.cpu_s = process_cpu_s();
    c.wall_s = perfbench::wall_s();
    c.role = w.role_cpu();
    c.allocations = perfbench::allocations();
    c.syscalls = perfbench::syscalls();
    c.snap = w.snapshot();
    return c.minus(before);
  }

  Counters minus(const Counters& before) const {
    Counters d;
    d.cpu_s = cpu_s - before.cpu_s;
    d.wall_s = wall_s - before.wall_s;
    d.allocations = allocations - before.allocations;
    d.syscalls = syscalls - before.syscalls;
    d.role.origin = role.origin - before.role.origin;
    d.role.relay = role.relay - before.role.relay;
    d.role.client = role.client - before.role.client;
    d.snap = snap.diff(before.snap);
    return d;
  }

  double count(const char* name) const {
    return static_cast<double>(count_of(snap, name));
  }
};

/// Fetches through the client reactor and keeps the byte ledger every
/// rt check reads: body bytes the clients received, split by path.
class Client {
 public:
  Client(RtWorld& world, Outcome& out, TraceSink* sink)
      : world_(world), out_(out), sink_(sink) {}

  /// Starts one GET; `relay` < 0 fetches over the direct path.
  void start(const char* path, int relay, std::uint64_t expect_bytes,
             std::optional<http::RangeSpec> range = std::nullopt,
             std::string* capture = nullptr) {
    rt::FetchRequest req;
    req.origin = world_.origin_ep();
    req.path = path;
    req.range = range;
    req.timeout_s = 120.0;
    req.capture_body = capture != nullptr;
    if (relay >= 0) req.proxy = world_.relay_ep(static_cast<std::size_t>(relay));
    ++out_.attempted;
    ++pending_;
    const double s0 = sink_ ? sink_->now_us() : 0.0;
    const std::uint64_t track = 20 + (started_++ % 8);
    rt::fetch(world_.client(), req,
              [this, relay, expect_bytes, capture, s0,
               track](const rt::FetchResult& r) {
                --pending_;
                if (sink_) sink_->span("fetch", relay >= 0 ? "relayed" : "direct",
                                       track, s0);
                (relay >= 0 ? relayed_bytes_ : direct_bytes_) += r.body_bytes;
                if (!r.ok) {
                  ++out_.failed;
                  std::fprintf(stderr, "fetch failed: %s\n", r.error.c_str());
                  return;
                }
                out_.check(r.body_verified, "fetch body failed verification");
                out_.check(r.body_bytes == expect_bytes,
                           "fetch delivered " + std::to_string(r.body_bytes) +
                               " of " + std::to_string(expect_bytes) +
                               " bytes");
                if (capture != nullptr) *capture = r.body;
              });
  }

  void wait() {
    out_.check(world_.pump([this] { return pending_ == 0; }, 150.0),
               "fetches did not finish in time");
  }

  /// Captures a seeded range of `path` through relay 0 and over the direct
  /// path and compares every byte with the recomputed pattern.
  void verify_sample(const char* path, std::uint64_t size,
                     std::uint64_t length, std::uint64_t seed,
                     bool corrupt) {
    util::Rng rng{util::child_stream(seed, 0xb0d1)};
    for (const int relay : {0, -1}) {
      const std::uint64_t first = rng.uniform_int(0, size - length);
      http::RangeSpec range;
      range.first = first;
      range.last = first + length - 1;
      std::string body;
      start(path, relay, length, range, &body);
      wait();
      if (corrupt && !body.empty()) body[body.size() / 2] ^= 1;
      bool same = body.size() == length;
      for (std::uint64_t i = 0; same && i < length; ++i) {
        same = body[i] == expected_byte(first + i);
      }
      out_.check(same, std::string("sampled body of ") + path +
                           (relay >= 0 ? " via relay" : " direct") +
                           " differs from the recomputed pattern");
    }
  }

  void set_sink(TraceSink* sink) { sink_ = sink; }
  std::uint64_t relayed_bytes() const { return relayed_bytes_; }
  std::uint64_t direct_bytes() const { return direct_bytes_; }

 private:
  RtWorld& world_;
  Outcome& out_;
  TraceSink* sink_;
  std::size_t pending_ = 0;
  std::uint64_t started_ = 0;
  std::uint64_t relayed_bytes_ = 0;
  std::uint64_t direct_bytes_ = 0;
};

// --- relay_bulk -------------------------------------------------------------

struct BulkRound {
  Counters relayed;
  Counters direct;
  std::uint64_t relayed_bytes = 0;
  std::uint64_t direct_bytes = 0;
};

BulkRound bulk_round(RtWorld& world, Client& client, std::size_t in_flight,
                     std::uint64_t size) {
  BulkRound r;
  for (const bool relayed : {true, false}) {
    const std::uint64_t b0 =
        relayed ? client.relayed_bytes() : client.direct_bytes();
    const Counters c0 = Counters::begin(world);
    for (std::size_t i = 0; i < in_flight; ++i) {
      client.start(kBulkPath, relayed ? 0 : -1, size);
    }
    client.wait();
    const Counters d = Counters::since(world, c0);
    if (relayed) {
      r.relayed = d;
      r.relayed_bytes = client.relayed_bytes() - b0;
    } else {
      r.direct = d;
      r.direct_bytes = client.direct_bytes() - b0;
    }
  }
  return r;
}

// --- race_churn -------------------------------------------------------------

struct RaceTally {
  std::uint64_t indirect = 0;
  std::uint64_t direct = 0;
  /// Latencies are kept only when asked for, so the untraced run's memory
  /// does not grow with the number of races the host fits in it.
  bool keep_latencies = false;
  std::vector<double> decide_ms;
  std::vector<double> total_ms;
};

/// A closed loop of `races` probe races, `in_flight` at a time.
Counters churn_round(RtWorld& world, const rt::RaceSpec& spec,
                     std::size_t races, std::size_t in_flight, Outcome& out,
                     RaceTally& tally, TraceSink* sink, bool flip_verdict) {
  std::size_t started = 0;
  std::size_t finished = 0;
  std::function<void(std::size_t)> launch = [&](std::size_t slot) {
    ++started;
    ++out.attempted;
    const double s0 = sink ? sink->now_us() : 0.0;
    rt::start_probe_race(
        world.client(), spec, [&, slot, s0](const rt::RaceResult& r) {
          ++finished;
          if (sink) sink->span("probe_race", "race", 20 + slot, s0);
          if (!r.ok) {
            ++out.failed;
            std::fprintf(stderr, "race failed: %s\n", r.error.c_str());
          } else {
            out.check(r.body_verified, "race body failed verification");
            out.check(r.total_bytes == spec.resource_size,
                      "race delivered a wrong byte count");
            bool indirect = r.chose_indirect;
            if (flip_verdict && finished == 1) indirect = !indirect;
            ++(indirect ? tally.indirect : tally.direct);
            if (tally.keep_latencies) {
              tally.decide_ms.push_back(1e3 * r.probe_elapsed);
              tally.total_ms.push_back(1e3 * r.total_elapsed);
            }
          }
          if (started < races) launch(slot);
        });
  };
  const Counters c0 = Counters::begin(world);
  for (std::size_t i = 0; i < std::min(in_flight, races); ++i) launch(i);
  out.check(world.pump([&] { return finished == races; }, 150.0),
            "races did not finish in time");
  return Counters::since(world, c0);
}

rt::RaceSpec race_spec(RtWorld& world, obs::Registry* registry) {
  rt::RaceSpec spec;
  spec.origin = world.origin_ep();
  spec.path = kRacePath;
  spec.resource_size = kRaceSize;
  spec.probe_bytes = kRaceProbe;
  for (std::size_t i = 0; i < world.relay_count(); ++i) {
    spec.relays.push_back(world.relay_ep(i));
  }
  spec.timeout_s = 30.0;
  spec.metrics = registry;
  return spec;
}

}  // namespace

bool is_rt_workload(const std::string& name) {
  return name == "relay_bulk" || name == "race_churn";
}

void run_bulk(const Options& opt, bool mini, TraceSink* sink, Outcome& out) {
  // One fetch in flight per phase, so each round is short and a run
  // aggregates many; the mini complement moves 16 MB each way.
  const std::uint64_t size = (mini ? 16ull : 64ull) << 20;
  const std::size_t in_flight = 1;

  RateLog relayed_log, direct_log;
  BulkRound first;
  {
    RtWorld world(false, 1, size, nullptr);
    Client client(world, out, nullptr);
    const obs::Snapshot s0 = world.snapshot();
    std::string warm;
    client.start(kWarmPath, 0, kWarmSize, std::nullopt, &warm);
    client.wait();
    bool warm_ok = warm.size() == kWarmSize;
    for (std::uint64_t i = 0; warm_ok && i < kWarmSize; ++i) {
      warm_ok = warm[i] == expected_byte(i);
    }
    out.check(warm_ok, "warm-up body differs from the recomputed pattern");
    if (!mini) out.set("setup_s", process_cpu_s(), "s");

    const double budget = mini ? 0.0 : (opt.trace ? 0.5 : 1.0) * opt.seconds;
    RoundClock clock(budget);
    bool have_first = false;
    do {
      const BulkRound r = bulk_round(world, client, in_flight, size);
      if (!have_first) {
        first = r;
        have_first = true;
      }
      relayed_log.add(8e-9 * static_cast<double>(r.relayed_bytes),
                      r.relayed.cpu_s, r.relayed.wall_s);
      direct_log.add(8e-9 * static_cast<double>(r.direct_bytes),
                     r.direct.cpu_s, r.direct.wall_s);
      relayed_log.sample_reference(kReferenceEventsPerRound);
    } while (clock.another());
    client.verify_sample(kBulkPath, size, 1 << 20, opt.seed,
                         opt.corrupt == Corrupt::kBody);

    // Byte ledger: everything the origin sent reached a client, and the
    // relay forwarded at least the relayed part of it.
    const obs::Snapshot d = world.snapshot().diff(s0);
    std::uint64_t received = client.relayed_bytes() + client.direct_bytes();
    if (opt.corrupt == Corrupt::kBytes) --received;
    out.check(count_of(d, "rt.origin.bytes_sent") == received,
              "origin bytes_sent " +
                  std::to_string(count_of(d, "rt.origin.bytes_sent")) +
                  " != client body bytes " + std::to_string(received));
    out.check(count_of(d, "rt.relay.bytes_forwarded") >= client.relayed_bytes(),
              "relay forwarded fewer bytes than the clients received via it");
  }
  relayed_log.log("relayed Gbit/CPU-s");
  if (!mini) {
    out.set("transfers_per_mref",
            relayed_log.per_mref() / (8e-9 * static_cast<double>(size)),
            "transfers/Mref");
  }
  if (!opt.trace) return;

  const double mb = static_cast<double>(first.relayed_bytes) / 1e6;
  const Counters& c = first.relayed;
  out.set("relayed_gbit_per_cpu_s", relayed_log.per_cpu_s(), "Gbit/CPU-s");
  out.set("ref.bulk_cpu_ns_per_event", relayed_log.reference_ns_per_event(),
          "ns");
  out.set("direct_gbit_per_cpu_s", direct_log.per_cpu_s(), "Gbit/CPU-s");
  out.set("rt.wall.relayed_gbit_per_s", relayed_log.per_wall_s(), "Gbit/s");
  out.set("rt.relay.bytes_per_chunk",
          per(sum_of(c.snap, "rt.relay.forward_chunk_bytes"),
              c.count("rt.relay.forward_chunk_bytes")),
          "B");
  out.set("rt.reactor.polls_per_mb", c.count("rt.reactor.polls") / mb, "count");
  out.set("rt.reactor.timers_per_mb",
          c.count("rt.reactor.timers_scheduled") / mb, "count");
  out.set("rt.syscalls_per_mb", static_cast<double>(c.syscalls) / mb, "count");
  out.set("alloc.per_mb", static_cast<double>(c.allocations) / mb, "count");

  // Split layout: one untraced round charges CPU to each role; one traced
  // round records the spans and the tracing overhead.
  RtWorld world(true, 1, size, sink);
  Client client(world, out, nullptr);
  const BulkRound plain = bulk_round(world, client, in_flight, size);
  const std::uint64_t relayed = plain.relayed_bytes;
  const std::uint64_t origin_bytes =
      count_of(plain.relayed.snap, "rt.origin.bytes_sent") +
      count_of(plain.direct.snap, "rt.origin.bytes_sent");
  const std::uint64_t client_bytes = plain.relayed_bytes + plain.direct_bytes;
  out.set("rt.relay.cpu_ns_per_byte",
          per(1e9 * plain.relayed.role.relay, static_cast<double>(relayed)),
          "ns/B");
  out.set("rt.origin.cpu_ns_per_byte",
          per(1e9 * (plain.relayed.role.origin + plain.direct.role.origin),
              static_cast<double>(origin_bytes)),
          "ns/B");
  out.set("rt.client.cpu_ns_per_byte",
          per(1e9 * (plain.relayed.role.client + plain.direct.role.client),
              static_cast<double>(client_bytes)),
          "ns/B");
  world.set_tracing(true);
  client.set_sink(sink);
  const BulkRound traced = bulk_round(world, client, in_flight, size);
  if (!mini) {
    out.set("trace.overhead_pct",
            100.0 * (per(traced.relayed.cpu_s + traced.direct.cpu_s,
                         plain.relayed.cpu_s + plain.direct.cpu_s) -
                     1.0),
            "%");
  }
}

void run_churn(const Options& opt, bool mini, TraceSink* sink, Outcome& out) {
  const std::size_t in_flight = std::min<std::size_t>(4, cores());
  const std::size_t round_races = mini ? 200 : 250;
  obs::Registry races(obs::Registry::Sync::Atomic);
  RaceTally tally;
  tally.keep_latencies = opt.trace;
  RateLog race_log;
  Counters first;
  std::size_t total_races = 0;
  {
    RtWorld world(false, 2, 1 << 20, nullptr);
    Client client(world, out, nullptr);
    const obs::Snapshot s0 = world.snapshot();
    const rt::RaceSpec spec = race_spec(world, &races);
    RaceTally warm;
    churn_round(world, spec, 1, 1, out, warm, nullptr, false);
    if (!mini) out.set("setup_s", process_cpu_s(), "s");

    const double budget = mini ? 0.0 : (opt.trace ? 0.5 : 1.0) * opt.seconds;
    RoundClock clock(budget);
    int rounds = 0;
    bool more = true;
    do {
      const Counters c =
          churn_round(world, spec, round_races, in_flight, out, tally, nullptr,
                      opt.corrupt == Corrupt::kVerdict && rounds == 0);
      if (rounds == 0) first = c;
      total_races += round_races;
      race_log.add(static_cast<double>(round_races), c.cpu_s, c.wall_s);
      race_log.sample_reference(kReferenceEventsPerRound / 2);
      more = clock.another();
      if (++rounds == kChurnRssRounds && !mini) {
        out.set("peak_rss_mb", peak_rss_mb(), "MB");
      }
    } while (more || (!mini && rounds < kChurnRssRounds));
    client.verify_sample(kRacePath, kRaceSize, kRaceProbe, opt.seed,
                         opt.corrupt == Corrupt::kBody);

    // Verdicts: the race registry agrees with the results handed back, and
    // the relays and origin carried at least what the verdicts claim.
    const obs::Snapshot r = races.snapshot();
    const std::uint64_t all_indirect = tally.indirect + warm.indirect;
    const std::uint64_t all_direct = tally.direct + warm.direct;
    out.check(count_of(r, "rt.race.races_won_indirect") == all_indirect &&
                  count_of(r, "rt.race.races_won_direct") == all_direct,
              "race verdicts differ from rt.race.races_won_*");
    const obs::Snapshot d = world.snapshot().diff(s0);
    out.check(count_of(d, "rt.relay.bytes_forwarded") >=
                  all_indirect * kRaceSize,
              "relays forwarded less than the relay-won races delivered");
    out.check(count_of(d, "rt.origin.bytes_sent") >=
                  (all_indirect + all_direct) * kRaceSize,
              "origin sent less than the races delivered");
  }
  race_log.log("races/CPU-s");
  if (!mini) {
    out.set("transfers_per_mref", race_log.per_mref(), "transfers/Mref");
  }
  if (!opt.trace) return;

  const double n = static_cast<double>(round_races);
  out.set("races_per_cpu_s", race_log.per_cpu_s(), "races/CPU-s");
  out.set("ref.race_cpu_ns_per_event", race_log.reference_ns_per_event(), "ns");
  out.set("rt.wall.races_per_s", race_log.per_wall_s(), "races/s");
  out.set("race_decide_p50_ms", quantile(tally.decide_ms, 0.5), "ms");
  out.set("race_total_p50_ms", quantile(tally.total_ms, 0.5), "ms");
  out.set("rt.race.decide_p99_ms", quantile(tally.decide_ms, 0.99), "ms");
  out.set("rt.race.total_p99_ms", quantile(tally.total_ms, 0.99), "ms");
  out.set("rt.race.indirect_share",
          per(static_cast<double>(tally.indirect),
              static_cast<double>(tally.indirect + tally.direct)),
          "ratio");
  out.set("rt.connections_per_race",
          (first.count("rt.origin.sessions_accepted") +
           first.count("rt.relay.sessions_accepted")) / n,
          "count");
  out.set("rt.requests_parsed_per_race",
          (first.count("rt.origin.requests_served") +
           first.count("rt.relay.requests_parsed")) / n,
          "count");
  out.set("rt.reactor.polls_per_race", first.count("rt.reactor.polls") / n,
          "count");
  out.set("rt.reactor.timers_per_race",
          first.count("rt.reactor.timers_scheduled") / n, "count");
  out.set("rt.syscalls_per_race", static_cast<double>(first.syscalls) / n,
          "count");
  out.set("alloc.per_race", static_cast<double>(first.allocations) / n,
          "count");
  std::fprintf(stderr, "churn: %zu races, %llu won by a relay\n", total_races,
               static_cast<unsigned long long>(tally.indirect));

  // Split layout, untraced then traced: the tracing overhead.
  RtWorld world(true, 2, 1 << 20, sink);
  const rt::RaceSpec spec = race_spec(world, &races);
  RaceTally split;
  const Counters plain =
      churn_round(world, spec, round_races, in_flight, out, split, nullptr,
                  false);
  world.set_tracing(true);
  const Counters traced = churn_round(world, spec, round_races, in_flight, out,
                                      split, sink, false);
  if (!mini) {
    out.set("trace.overhead_pct", 100.0 * (per(traced.cpu_s, plain.cpu_s) - 1.0),
            "%");
  }
}

}  // namespace perfbench
