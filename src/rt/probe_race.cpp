#include "rt/probe_race.hpp"

#include <algorithm>
#include <memory>

#include "core/race_machine.hpp"
#include "util/error.hpp"

namespace idr::rt {

namespace {

constexpr race::MetricNames kRtRaceNames{
    "rt.race.races_started", "rt.race.races_won_direct",
    "rt.race.races_won_indirect", "rt.race.races_failed",
    "rt.race.probe_failures", "rt.race.retries",
    "rt.race.overload_rejections", "rt.race.fallbacks_direct",
    "rt.race.probe_seconds", obs::HistogramOptions{1e-4, 1e3, 4},
    "rt.select.races_run", "rt.select.probe_bytes",
    "rt.select.races_skipped", "rt.select.estimate_age",
    obs::HistogramOptions{1e-3, 1e5, 4}, "rt.select.pinned_fallbacks"};

/// Drives the race machine over real sockets: each attempt is an
/// rt::fetch, each timer a reactor timer.
struct RtRace final : race::Driver, std::enable_shared_from_this<RtRace> {
  Reactor& reactor;
  RaceSpec spec;
  RaceCallback on_done;
  race::Machine machine;
  std::vector<FetchHandle> lanes;  // by race::Lane
  /// Every fetch the delivered file came from matched the origin pattern.
  bool verified = true;
  /// Jitter stream for backoff delays; fixed seed — wall-clock retry
  /// spacing needs decorrelation, not reproducibility.
  util::Rng rng{0xF417u};

  RtRace(Reactor& r, const RaceSpec& s, RaceCallback cb)
      : reactor(r),
        spec(s),
        on_done(std::move(cb)),
        machine(*this, s.metrics, kRtRaceNames) {}

  void begin() {
    race::Plan plan;
    plan.relays = spec.relays.size();
    plan.pinned = spec.pinned_relay;
    plan.probe_covers_file = spec.probe_bytes >= spec.resource_size;
    plan.retry = spec.retry;
    plan.probe_bytes = std::min(spec.probe_bytes, spec.resource_size);
    plan.pinned_estimate_age = spec.pinned_estimate_age_s;
    machine.start(reactor.now(), plan);
  }

  void open(race::Phase phase, race::Lane lane, std::size_t attempt) override {
    FetchRequest req;
    req.origin = spec.origin;
    req.path = spec.path;
    if (lane != race::kDirect) req.proxy = spec.relays[lane - 1];
    req.timeout_s = spec.timeout_s;
    // Per-fetch child context (trace salts: probes 0x100 + lane,
    // remainders 0x200, fallbacks 0x300, the pin 0x400); no header when
    // the race carries no context.
    std::uint64_t salt = 0x400;
    if (phase == race::Phase::Probe) {
      req.range = http::range_first_bytes(
          std::min(spec.probe_bytes, spec.resource_size));
      salt = 0x100 + lane;
    } else if (phase == race::Phase::Remainder ||
               phase == race::Phase::DirectRemainder) {
      req.range = http::range_from_offset(spec.probe_bytes);
      salt = 0x200 + attempt * 4 +
             (phase == race::Phase::DirectRemainder ? 1 : 0);
    } else if (phase == race::Phase::Fallback) {
      salt = 0x300 + attempt;
    }
    if (spec.trace.valid()) req.trace = spec.trace.child(salt);
    FetchHandle handle = fetch(
        reactor, req,
        [self = shared_from_this(), phase, lane](const FetchResult& r) {
          // The file is one whole-file fetch (pin, fallback) or the
          // winning probe, extended by a remainder.
          if (r.ok && (phase != race::Phase::Probe ||
                       !self->machine.decided())) {
            const bool extends = phase == race::Phase::Remainder ||
                                 phase == race::Phase::DirectRemainder;
            self->verified =
                r.body_verified && (!extends || self->verified);
          }
          self->machine.done(self->reactor.now(), phase, lane,
                             race::Attempt{r.ok, r.overloaded(),
                                           r.retry_after_s, r.error});
        });
    if (phase != race::Phase::Probe) return;
    if (lane == race::kDirect) lanes.resize(spec.relays.size() + 1);
    lanes[lane] = std::move(handle);
  }

  void cancel_lane(race::Lane lane) override { lanes[lane].cancel(); }

  void arm(race::Timer timer, double delay) override {
    reactor.add_timer(delay, [self = shared_from_this(), timer] {
      self->machine.timer_fired(timer);
    });
  }

  // Socket races set no probe timeout (each fetch has its own timeout_s),
  // so there is never one to disarm.
  void disarm_probe_timeout() override {}

  util::Rng& backoff_rng() override { return rng; }

  void finish(const race::Outcome& o) override {
    RaceResult result;
    result.ok = o.ok;
    result.error = o.error;
    result.chose_indirect = o.chose_indirect();
    if (result.chose_indirect) result.relay_index = o.winner - 1;
    result.race_skipped = o.race_skipped;
    result.probe_elapsed = o.probe_elapsed;
    result.total_elapsed = o.total_elapsed;
    if (o.ok) result.total_bytes = spec.resource_size;
    result.body_verified = o.ok && verified;
    result.probe_failures = o.probe_failures;
    result.retries = o.retries;
    result.fell_back_direct = o.fell_back_direct;
    result.overload_rejections = o.overload_rejections;
    if (spec.flights != nullptr) {
      obs::FlightRecord rec = machine.flight_record(result.total_bytes);
      rec.trace_id = spec.trace.trace_id;
      rec.source = "rt.race";
      rec.peer = spec.origin.host + ":" + std::to_string(spec.origin.port) +
                 spec.path;
      if (result.chose_indirect) rec.relay_index = o.winner - 1;
      spec.flights->record(std::move(rec));
    }
    if (spec.tracer != nullptr && spec.tracer->enabled()) emit_span(result);
    on_done(result);
  }

  /// The race span on the client's track, plus — with a trace context —
  /// the flow chain: 's' here at race start, 't' on each server hop, 'f'
  /// back here at completion.
  void emit_span(const RaceResult& result) {
    std::string args = "{\"ok\":";
    args += result.ok ? "true" : "false";
    args += ",\"chose_indirect\":";
    args += result.chose_indirect ? "true" : "false";
    args += ",\"relay\":";
    args += result.chose_indirect ? std::to_string(result.relay_index) : "-1";
    args += ",\"fell_back_direct\":";
    args += result.fell_back_direct ? "true" : "false";
    args += "}";
    const double start_us = machine.start_time() * 1e6;
    const double end_us = reactor.now() * 1e6;
    obs::TraceEvent ev;
    ev.name = "probe_race";
    ev.category = "rt.race";
    ev.phase = 'X';
    ev.pid = spec.trace_pid;
    ev.track = spec.trace_track;
    ev.ts_us = start_us;
    ev.dur_us = end_us - start_us;
    ev.trace_id = spec.trace.trace_id;
    ev.span_id = spec.trace.span_id;
    ev.args_json = std::move(args);
    spec.tracer->append(std::move(ev));
    if (spec.trace.valid()) {
      spec.tracer->flow('s', "transfer", "rt.race", spec.trace_pid,
                        spec.trace_track, start_us, spec.trace.trace_id);
      spec.tracer->flow('f', "transfer", "rt.race", spec.trace_pid,
                        spec.trace_track, end_us, spec.trace.trace_id);
    }
  }
};

}  // namespace

void start_probe_race(Reactor& reactor, const RaceSpec& spec,
                      RaceCallback on_done) {
  IDR_REQUIRE(on_done != nullptr, "start_probe_race: null callback");
  IDR_REQUIRE(spec.resource_size > 0, "start_probe_race: zero resource");
  IDR_REQUIRE(spec.probe_bytes > 0, "start_probe_race: zero probe");
  IDR_REQUIRE(!spec.pinned_relay.has_value() ||
                  *spec.pinned_relay < spec.relays.size(),
              "start_probe_race: pinned relay index out of range");
  std::make_shared<RtRace>(reactor, spec, std::move(on_done))->begin();
}

}  // namespace idr::rt
