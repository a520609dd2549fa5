// The paper's probe race as one sans-IO state machine, driven by both the
// simulated client (core::start_probe_race over TransferEngine) and the
// real-socket client (rt::start_probe_race over rt::fetch).
//
// The machine owns every rule: which lanes race, who wins, bounded retry
// with backoff, degradation to the direct path, the pin-then-race
// fallback, and the fault/overload accounting. It performs no I/O and
// reads no clock: the driver feeds it inputs (start, attempt done, each
// stamped with `now`; timer fired) and carries out its requests through
// race::Driver. A change to the race's rules therefore lands once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace idr::race {

/// A path the race fetches over: 0 is the direct path, i + 1 is relay i.
using Lane = std::size_t;
inline constexpr Lane kDirect = 0;

/// What an attempt is for. Probe attempts run concurrently, one per lane;
/// the others run one at a time.
enum class Phase : std::uint8_t {
  Pinned,           // whole file through the pinned relay (race skipped)
  Probe,            // "bytes=0-(x-1)"
  Remainder,        // "bytes=x-" on the winner's lane
  DirectRemainder,  // "bytes=x-" on the direct path after the winner died
  Fallback,         // whole file on the direct path after every lane died
};

enum class Timer : std::uint8_t { ProbeTimeout, Retry };

/// How one attempt ended, as the driver observed it.
struct Attempt {
  bool ok = false;
  bool overloaded = false;   // shed by admission control (a 503)
  double retry_after = 0.0;  // the shedder's pacing hint, seconds
  std::string_view error;
};

struct Plan {
  std::size_t relays = 0;  // probe lanes = relays + 1
  /// Skip the race: fetch the whole file through this relay index (it may
  /// lie past the racing set). If that fails, the full race launches.
  std::optional<std::size_t> pinned;
  bool probe_covers_file = false;  // the winning probe finishes the file
  double probe_timeout = 0.0;      // 0 arms no timer
  fault::RetryPolicy retry{};
  std::uint64_t probe_bytes = 0;  // per lane, for *.select.probe_bytes
  double pinned_estimate_age = 0.0;
};

struct Outcome {
  bool ok = false;
  std::string error;
  Phase phase = Phase::Probe;  // the attempt that completed the file
  Lane winner = kDirect;
  bool race_skipped = false;
  double probe_elapsed = 0.0;  // start -> winning probe (0 if none won)
  double total_elapsed = 0.0;  // start -> finish, failed pin included
  std::size_t probe_failures = 0;
  std::size_t retries = 0;
  bool fell_back_direct = false;
  std::size_t overload_rejections = 0;
  /// Deduplicated relay indices: crashed or failed, and shed (503).
  std::vector<std::size_t> failed_relays;
  std::vector<std::size_t> overloaded_relays;

  bool chose_indirect() const { return ok && winner != kDirect; }
};

/// The I/O half of a race; called synchronously from the machine's inputs.
class Driver {
 public:
  /// Starts an attempt; its end must come back later as Machine::done.
  virtual void open(Phase phase, Lane lane, std::size_t attempt) = 0;
  /// Aborts an unfinished probe lane, whose end is then never reported.
  virtual void cancel_lane(Lane lane) = 0;
  /// Calls Machine::timer_fired(timer) after `delay` seconds.
  virtual void arm(Timer timer, double delay) = 0;
  virtual void disarm_probe_timeout() = 0;
  /// The backoff jitter stream; asked for only once a retry is due.
  virtual util::Rng& backoff_rng() = 0;
  /// Called exactly once; the machine issues nothing afterwards.
  virtual void finish(const Outcome& outcome) = 0;

 protected:
  ~Driver() = default;
};

/// The series a stack counts races under (`sim.*` or `rt.*`).
struct MetricNames {
  const char *races_started, *races_won_direct, *races_won_indirect,
      *races_failed, *probe_failures, *retries, *overload_rejections,
      *fallbacks_direct, *probe_seconds;
  obs::HistogramOptions probe_seconds_buckets;
  const char *races_run, *probe_bytes, *races_skipped, *estimate_age;
  obs::HistogramOptions estimate_age_buckets;
  const char* pinned_fallbacks;
};

class Machine {
 public:
  /// `metrics` may be null: nothing is counted.
  Machine(Driver& driver, obs::Registry* metrics, const MetricNames& names)
      : driver_(driver), metrics_(metrics), names_(names) {}
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  void start(double now, const Plan& plan);
  /// An attempt opened as (phase, lane) ended.
  void done(double now, Phase phase, Lane lane, const Attempt& attempt);
  void timer_fired(Timer timer);
  /// Ends the race with an error found by the driver (e.g. an unknown
  /// resource), started or not; a no-op once finished.
  void fail(double now, std::string error);

  bool decided() const { return decided_; }
  double start_time() const { return start_; }

  /// The flight-record fields common to both stacks; the driver adds its
  /// source, peer, trace id and relay identity.
  obs::FlightRecord flight_record(std::uint64_t bytes_total) const;

 private:
  void launch();
  void open_next();
  void probe_done(double now, Lane lane, const Attempt& attempt);
  void note_failure(Lane lane, const Attempt& attempt);
  void disarm_timeout();
  void end(double now, std::string error);
  void count(const char* name, std::uint64_t n = 1);

  Driver& driver_;
  obs::Registry* metrics_;
  const MetricNames& names_;
  Plan plan_;
  double start_ = 0.0;
  bool started_ = false, decided_ = false, finished_ = false;
  bool timeout_armed_ = false;
  std::vector<char> lane_open_;  // per probe lane: not yet ended
  std::size_t pending_ = 0;
  Phase phase_ = Phase::Probe;  // of the one non-probe attempt
  std::size_t attempt_ = 0;
  std::string probe_error_;  // why the last probe lane died
  Outcome out_;
};

}  // namespace idr::race
