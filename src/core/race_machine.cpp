#include "core/race_machine.hpp"

#include <algorithm>

namespace idr::race {

namespace {

void add_unique(std::vector<std::size_t>& relays, std::size_t relay) {
  if (std::find(relays.begin(), relays.end(), relay) == relays.end()) {
    relays.push_back(relay);
  }
}

}  // namespace

void Machine::count(const char* name, std::uint64_t n) {
  if (metrics_ != nullptr) metrics_->counter(name).inc(n);
}

void Machine::start(double now, const Plan& plan) {
  plan_ = plan;
  start_ = now;
  started_ = true;
  count(names_.races_started);
  if (!plan_.pinned) {
    launch();
    return;
  }
  out_.race_skipped = true;
  count(names_.races_skipped);
  if (metrics_ != nullptr) {
    metrics_->histogram(names_.estimate_age, names_.estimate_age_buckets)
        .observe(plan_.pinned_estimate_age);
  }
  phase_ = Phase::Pinned;
  open_next();
}

/// One lane per path, direct first; the first probe to finish wins. The
/// probe overhead (the span down every losing lane) is charged here:
/// lanes cancelled early still consumed capacity.
void Machine::launch() {
  out_.race_skipped = false;
  count(names_.races_run);
  count(names_.probe_bytes, plan_.probe_bytes * plan_.relays);
  pending_ = plan_.relays + 1;
  lane_open_.assign(pending_, 1);
  for (Lane lane = 0; lane <= plan_.relays; ++lane) {
    driver_.open(Phase::Probe, lane, 0);
  }
  // A lane whose relay silently died would otherwise stall the race.
  if (plan_.probe_timeout > 0.0) {
    timeout_armed_ = true;
    driver_.arm(Timer::ProbeTimeout, plan_.probe_timeout);
  }
}

/// Opens attempt `attempt_` of the current non-probe phase.
void Machine::open_next() {
  Lane lane = kDirect;
  if (phase_ == Phase::Pinned) lane = *plan_.pinned + 1;
  if (phase_ == Phase::Remainder) lane = out_.winner;
  driver_.open(phase_, lane, attempt_);
}

/// A shed attempt (503) means the peer is alive and only deserves the
/// shorter "overloaded" penalty; anything else feeds the crash blacklist.
void Machine::note_failure(Lane lane, const Attempt& attempt) {
  if (attempt.overloaded) {
    ++out_.overload_rejections;
    if (lane != kDirect) add_unique(out_.overloaded_relays, lane - 1);
  } else if (lane != kDirect) {
    add_unique(out_.failed_relays, lane - 1);
  }
}

void Machine::disarm_timeout() {
  if (!timeout_armed_) return;
  timeout_armed_ = false;
  driver_.disarm_probe_timeout();
}

void Machine::probe_done(double now, Lane lane, const Attempt& attempt) {
  if (lane < lane_open_.size() && lane_open_[lane] != 0) {
    lane_open_[lane] = 0;
    --pending_;
  }
  if (decided_) return;  // a loser draining out
  if (!attempt.ok) {
    ++out_.probe_failures;
    note_failure(lane, attempt);
    probe_error_.assign(attempt.error);
    if (pending_ == 0) {
      // Every lane died before its probe finished: salvage the file with
      // a plain direct fetch, as a non-selecting client would have.
      disarm_timeout();
      out_.fell_back_direct = true;
      phase_ = Phase::Fallback;
      open_next();
    }
    return;
  }
  decided_ = true;
  out_.winner = lane;
  out_.probe_elapsed = now - start_;
  disarm_timeout();
  for (Lane other = 0; other < lane_open_.size(); ++other) {
    if (lane_open_[other] != 0) driver_.cancel_lane(other);
  }
  if (plan_.probe_covers_file) {
    end(now, {});
    return;
  }
  phase_ = Phase::Remainder;
  open_next();
}

void Machine::done(double now, Phase phase, Lane lane,
                   const Attempt& attempt) {
  if (finished_) return;
  if (phase == Phase::Probe) {
    probe_done(now, lane, attempt);
    return;
  }
  if (attempt.ok) {
    if (phase_ == Phase::Pinned) out_.winner = *plan_.pinned + 1;
    out_.phase = phase_;
    end(now, {});
    return;
  }
  if (phase_ == Phase::Pinned) {
    // A pin is not a probe lane: its failure is charged to the relay, and
    // the full race launches as if the pin had never existed.
    note_failure(*plan_.pinned + 1, attempt);
    count(names_.pinned_fallbacks);
    launch();
    return;
  }
  note_failure(phase_ == Phase::Remainder ? out_.winner : kDirect, attempt);
  if (attempt_ < plan_.retry.max_retries) {
    ++out_.retries;
    // An overloaded peer's Retry-After floor beats our backoff: retrying
    // sooner would just be shed again.
    const double delay = std::max(
        fault::backoff_delay(plan_.retry, attempt_, driver_.backoff_rng()),
        attempt.retry_after);
    ++attempt_;
    driver_.arm(Timer::Retry, delay);
  } else if (phase_ == Phase::Remainder && out_.winner != kDirect) {
    // The selected relay is dead: finish over the direct path instead.
    out_.fell_back_direct = true;
    phase_ = Phase::DirectRemainder;
    attempt_ = 0;
    open_next();
  } else {
    end(now, (phase_ == Phase::Fallback
                  ? "all probes failed (" + probe_error_ +
                        ") and direct fallback died: "
                  : std::string("remainder transfer failed after retries: ")) +
                 std::string(attempt.error));
  }
}

void Machine::timer_fired(Timer timer) {
  if (finished_) return;
  if (timer == Timer::Retry) {
    open_next();
    return;
  }
  timeout_armed_ = false;
  if (decided_ || pending_ == 0) return;
  // Past the deadline every unfinished lane counts as failed.
  for (Lane lane = 0; lane < lane_open_.size(); ++lane) {
    if (lane_open_[lane] == 0) continue;
    driver_.cancel_lane(lane);
    lane_open_[lane] = 0;
    ++out_.probe_failures;
    if (lane != kDirect) add_unique(out_.failed_relays, lane - 1);
  }
  pending_ = 0;
  probe_error_ = "probe timeout";
  out_.fell_back_direct = true;
  phase_ = Phase::Fallback;
  open_next();
}

void Machine::fail(double now, std::string error) {
  if (finished_) return;
  if (!started_) {
    started_ = true;
    start_ = now;
    count(names_.races_started);
  }
  end(now, std::move(error));
}

/// Finishes the race: successful when `error` is empty.
void Machine::end(double now, std::string error) {
  finished_ = true;
  out_.ok = error.empty();
  out_.total_elapsed = now - start_;
  if (!out_.ok) {
    out_.error = std::move(error);
    out_.winner = kDirect;
    out_.probe_elapsed = 0.0;
  }
  count(!out_.ok                   ? names_.races_failed
        : out_.chose_indirect()    ? names_.races_won_indirect
                                   : names_.races_won_direct);
  count(names_.probe_failures, out_.probe_failures);
  count(names_.retries, out_.retries);
  count(names_.overload_rejections, out_.overload_rejections);
  if (out_.fell_back_direct) count(names_.fallbacks_direct);
  if (metrics_ != nullptr && out_.ok && out_.probe_elapsed > 0.0) {
    metrics_->histogram(names_.probe_seconds, names_.probe_seconds_buckets)
        .observe(out_.probe_elapsed);
  }
  driver_.finish(out_);
}

obs::FlightRecord Machine::flight_record(std::uint64_t bytes_total) const {
  obs::FlightRecord rec;
  rec.start_time = start_;
  rec.ok = out_.ok;
  rec.chose_indirect = out_.chose_indirect();
  rec.race_skipped = out_.race_skipped;
  rec.fell_back_direct = out_.fell_back_direct;
  rec.probe_elapsed_s = out_.probe_elapsed;
  rec.total_elapsed_s = out_.total_elapsed;
  rec.bytes_total = bytes_total;
  rec.bytes_probe = out_.race_skipped ? 0 : plan_.probe_bytes * plan_.relays;
  rec.retries = out_.retries;
  rec.probe_failures = out_.probe_failures;
  rec.overload_rejections = out_.overload_rejections;
  return rec;
}

}  // namespace idr::race
