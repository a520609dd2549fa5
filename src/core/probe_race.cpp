#include "core/probe_race.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "core/race_machine.hpp"
#include "util/error.hpp"

namespace idr::core {

namespace {

constexpr race::MetricNames kSimRaceNames{
    "sim.race.races_started", "sim.race.races_won_direct",
    "sim.race.races_won_indirect", "sim.race.races_failed",
    "sim.race.probe_failures", "sim.race.retries",
    "sim.race.overload_rejections", "sim.race.fallbacks_direct",
    "sim.race.probe_seconds", obs::HistogramOptions{1e-3, 1e3, 4},
    "sim.select.races_run", "sim.select.probe_bytes",
    "sim.select.races_skipped", "sim.select.estimate_age",
    obs::HistogramOptions{1e-1, 1e5, 4}, "sim.select.pinned_fallbacks"};

std::uint64_t time_salt(util::TimePoint t) {
  std::uint64_t salt = 0;
  static_assert(sizeof(salt) == sizeof(t));
  std::memcpy(&salt, &t, sizeof(salt));
  return salt;
}

/// Drives the race machine over the simulated overlay: each attempt is a
/// TransferEngine transfer, each timer a simulator event.
struct SimRace final : race::Driver, std::enable_shared_from_this<SimRace> {
  overlay::TransferEngine& engine;
  RaceSpec spec;
  RaceCallback on_done;
  race::Machine machine;
  Bytes file_size = 0.0;
  std::uint64_t probe_span = 0;
  std::vector<overlay::TransferHandle> lanes;  // by race::Lane
  sim::EventId timeout_event = 0;
  /// The transfer that completed the file, while its callback runs.
  const overlay::TransferResult* last_result = nullptr;
  /// Cross-hop identity for this race's spans and flight record; invalid
  /// when neither the caller nor the tracer asked for one.
  obs::TraceContext trace;
  std::uint64_t attempt_seq = 0;  // per-attempt child-span salt
  /// Backoff jitter, derived only at the first retry so a clean race
  /// derives no RNG at all. Salting with the start time gives concurrent
  /// races independent jitter that still replays identically.
  std::optional<util::Rng> rng;

  SimRace(overlay::TransferEngine& e, const RaceSpec& s, RaceCallback cb)
      : engine(e),
        spec(s),
        on_done(std::move(cb)),
        machine(*this, &e.flow_simulator().metrics(), kSimRaceNames) {}

  flow::FlowSimulator& fsim() { return engine.flow_simulator(); }
  sim::Simulator& simulator() { return fsim().simulator(); }

  /// World tracer, or null when tracing is off for this world.
  obs::Tracer* tracer() {
    obs::Tracer* t = fsim().tracer();
    return t != nullptr && t->enabled() ? t : nullptr;
  }

  /// Relay of lane i + 1: candidate i, or the pin when it lies outside
  /// the candidate set (it then takes the index past the last one).
  net::NodeId relay_of(race::Lane lane) const {
    return lane - 1 < spec.candidate_relays.size()
               ? spec.candidate_relays[lane - 1]
               : *spec.pinned_relay;
  }

  void begin() {
    const util::TimePoint now = simulator().now();
    const auto size = spec.server->resource_size(spec.resource);
    if (!size) {
      machine.fail(now, "unknown resource " + spec.resource);
      return;
    }
    file_size = *size;
    // The probe range is bytes=0-(x-1); a file smaller than x is decided
    // entirely by the race.
    probe_span = static_cast<std::uint64_t>(
        std::llround(std::min(spec.probe_bytes, file_size)));
    IDR_REQUIRE(probe_span > 0, "probe race: zero probe size");
    // The caller's trace context, else one derived from the seeded RNG
    // tree — only while the tracer is on, so untraced runs replay bitwise.
    if (spec.trace.valid()) {
      trace = spec.trace;
    } else if (tracer() != nullptr) {
      util::Rng id_rng = fsim().derive_rng(time_salt(now) ^ 0x712ACEull);
      trace = obs::make_trace_context(id_rng);
    }

    race::Plan plan;
    plan.relays = spec.candidate_relays.size();
    if (spec.pinned_relay) {
      const auto& c = spec.candidate_relays;
      plan.pinned = static_cast<std::size_t>(
          std::find(c.begin(), c.end(), *spec.pinned_relay) - c.begin());
    }
    plan.probe_covers_file =
        probe_span >= static_cast<std::uint64_t>(std::llround(file_size));
    plan.probe_timeout = spec.probe_timeout;
    plan.retry = spec.retry;
    plan.probe_bytes = probe_span;
    plan.pinned_estimate_age = spec.pinned_estimate_age;
    machine.start(now, plan);
  }

  void open(race::Phase phase, race::Lane lane, std::size_t attempt) override {
    overlay::TransferRequest req;
    req.client = spec.client;
    req.server = spec.server;
    req.resource = spec.resource;
    req.tcp = spec.tcp;
    if (lane != race::kDirect) req.relay = relay_of(lane);
    if (phase == race::Phase::Probe) {
      req.range = http::range_first_bytes(probe_span);
    } else if (phase == race::Phase::Remainder ||
               phase == race::Phase::DirectRemainder) {
      req.range = http::range_from_offset(probe_span);
      // The first attempt rides the winner's warm connection; retries
      // reconnect cold (the connection died with the failure).
      req.warm_connection = phase == race::Phase::Remainder && attempt == 0;
    }
    const overlay::TransferHandle handle = engine.begin(
        req, [self = shared_from_this(), phase,
              lane](const overlay::TransferResult& r) {
          self->emit_attempt_span(phase, r);
          self->last_result = &r;
          self->machine.done(self->simulator().now(), phase, lane,
                             race::Attempt{r.ok, r.overloaded,
                                           r.retry_after, r.error});
          self->last_result = nullptr;
        });
    if (phase != race::Phase::Probe) return;
    if (lane == race::kDirect) lanes.resize(spec.candidate_relays.size() + 1);
    lanes[lane] = handle;
  }

  void cancel_lane(race::Lane lane) override { engine.cancel(lanes[lane]); }

  void arm(race::Timer timer, double delay) override {
    const sim::EventId id = simulator().schedule_in(
        delay, [self = shared_from_this(), timer] {
          if (timer == race::Timer::ProbeTimeout) self->timeout_event = 0;
          self->machine.timer_fired(timer);
        });
    if (timer == race::Timer::ProbeTimeout) timeout_event = id;
  }

  void disarm_probe_timeout() override {
    simulator().cancel(timeout_event);
    timeout_event = 0;
  }

  util::Rng& backoff_rng() override {
    if (!rng) {
      rng.emplace(
          fsim().derive_rng(time_salt(machine.start_time()) ^ 0xFA157ull));
    }
    return *rng;
  }

  void finish(const race::Outcome& o) override {
    RaceOutcome outcome;
    outcome.ok = o.ok;
    outcome.error = o.error;
    outcome.chose_indirect = o.chose_indirect();
    if (outcome.chose_indirect) outcome.relay = relay_of(o.winner);
    outcome.race_skipped = o.race_skipped;
    outcome.probe_elapsed = o.probe_elapsed;
    outcome.total_elapsed = o.total_elapsed;
    if (o.ok) outcome.total_bytes = file_size;
    // A pinned transfer is all "remainder": steady_throughput then
    // measures the full single-lane fetch.
    if (o.ok && (o.phase == race::Phase::Pinned ||
                 o.phase == race::Phase::Remainder ||
                 o.phase == race::Phase::DirectRemainder)) {
      outcome.remainder_bytes = last_result->bytes;
      outcome.remainder_elapsed = last_result->elapsed();
    }
    outcome.probe_failures = o.probe_failures;
    outcome.retries = o.retries;
    outcome.fell_back_direct = o.fell_back_direct;
    outcome.overload_rejections = o.overload_rejections;
    for (const std::size_t i : o.failed_relays) {
      outcome.failed_relays.push_back(relay_of(i + 1));
    }
    for (const std::size_t i : o.overloaded_relays) {
      outcome.overloaded_relays.push_back(relay_of(i + 1));
    }
    if (spec.flights != nullptr) {
      obs::FlightRecord rec = machine.flight_record(
          static_cast<std::uint64_t>(std::llround(outcome.total_bytes)));
      rec.trace_id = trace.trace_id;
      rec.source = "sim.race";
      rec.peer = spec.resource;
      if (outcome.chose_indirect) rec.relay_index = outcome.relay;
      spec.flights->record(std::move(rec));
    }
    if (obs::Tracer* t = tracer()) {
      // The enclosing race span: exactly one per race, so the probe_race
      // span count equals the transfer count by construction.
      std::string args = "{\"ok\":";
      args += outcome.ok ? "true" : "false";
      args += ",\"chose_indirect\":";
      args += outcome.chose_indirect ? "true" : "false";
      if (outcome.chose_indirect) {
        args += ",\"relay\":" + std::to_string(outcome.relay);
      }
      if (outcome.fell_back_direct) args += ",\"fell_back_direct\":true";
      args += '}';
      append_span(*t, "probe_race", machine.start_time(),
                  outcome.total_elapsed, trace.span_id, 0, std::move(args));
    }
    on_done(outcome);
  }

  /// One span per transfer inside the race, parented under the race span
  /// by time nesting and, with a trace context, by span ids.
  void emit_attempt_span(race::Phase phase, const overlay::TransferResult& r) {
    obs::Tracer* t = tracer();
    if (t == nullptr) return;
    std::string args = "{\"ok\":";
    args += r.ok ? "true" : "false";
    if (r.indirect) args += ",\"relay\":" + std::to_string(r.relay);
    args += '}';
    const char* name = phase == race::Phase::Probe      ? "probe_lane"
                       : phase == race::Phase::Pinned   ? "pinned"
                       : phase == race::Phase::Fallback ? "fallback"
                                                        : "remainder";
    append_span(*t, name, r.start_time, r.elapsed(),
                trace.child(0x500 + ++attempt_seq).span_id, trace.span_id,
                std::move(args));
  }

  void append_span(obs::Tracer& t, const char* name, double start,
                   double elapsed, std::uint64_t span_id,
                   std::uint64_t parent, std::string args) {
    obs::TraceEvent ev;
    ev.name = name;
    ev.category = "sim.race";
    ev.phase = 'X';
    ev.track = fsim().trace_track();
    ev.ts_us = start * 1e6;
    ev.dur_us = elapsed * 1e6;
    if (trace.valid()) {
      ev.trace_id = trace.trace_id;
      ev.span_id = span_id;
      ev.parent_span = parent;
    }
    ev.args_json = std::move(args);
    t.append(std::move(ev));
  }
};

}  // namespace

void start_probe_race(overlay::TransferEngine& engine, const RaceSpec& spec,
                      RaceCallback on_done) {
  IDR_REQUIRE(spec.server != nullptr, "start_probe_race: null server");
  IDR_REQUIRE(spec.probe_bytes > 0.0,
              "start_probe_race: non-positive probe size");
  IDR_REQUIRE(spec.probe_timeout >= 0.0,
              "start_probe_race: negative probe timeout");
  IDR_REQUIRE(on_done != nullptr, "start_probe_race: null callback");
  IDR_REQUIRE(!spec.pinned_relay.has_value() ||
                  *spec.pinned_relay != net::kInvalidNode,
              "start_probe_race: invalid pinned relay");
  std::make_shared<SimRace>(engine, spec, std::move(on_done))->begin();
}

}  // namespace idr::core
