// Simulated-fleet workloads: SyntheticFleet -> plan_fleet_shards ->
// run_sharded on one worker thread, repeated in whole rounds over the same
// plan, with every transfer record checked in the per-shard reducer.
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "flow/flow_simulator.hpp"
#include "testbed/shard.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace idr;

struct FleetShape {
  std::size_t clients = 0;
  std::size_t transfers_per_client = 0;
  std::size_t relays_per_client = 0;
  std::size_t probe_set = 0;
  double interval_s = 0.0;
  double access_inbound_mult = 0.0;  // 0 = site profile's access link
};

// fleet_paper: the paper's cadence and race (3 candidates, 2 raced, one
// 4 MB transfer per client every 6 min); most events are capacity redraws
// on idle links. fleet_wide: 8 candidates all raced, 9 lanes sharing an
// access link of 1.5x inbound, one transfer per 90 s; the max-min solver,
// completion timers and race layer carry the work. A cadence under 90 s
// lets the backlog grow with run length, so keep it at or above 90 s.
FleetShape shape_of(const std::string& name, bool mini) {
  FleetShape s;
  if (name == "fleet_wide") {
    s.clients = 128;
    s.transfers_per_client = 100;
    s.relays_per_client = 8;
    s.probe_set = 8;
    s.interval_s = 90.0;
    s.access_inbound_mult = 1.5;
  } else {
    s.clients = 192;
    s.transfers_per_client = 100;
    s.relays_per_client = 3;
    s.probe_set = 2;
    s.interval_s = 360.0;
  }
  if (mini) {
    s.clients = 16;
    s.transfers_per_client = 25;
  }
  return s;
}

testbed::FleetSpec spec_of(const FleetShape& shape, std::uint64_t seed) {
  testbed::FleetSpec spec;
  spec.seed = seed;
  spec.clients = shape.clients;
  spec.relay_pool = 256;
  spec.relays_per_client = shape.relays_per_client;
  spec.probe_set = shape.probe_set;
  spec.transfers_per_client = shape.transfers_per_client;
  spec.interval = shape.interval_s;
  spec.clients_per_shard = 4;
  spec.knobs.access_inbound_mult = shape.access_inbound_mult;
  return spec;
}

struct Round {
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::uint64_t allocations = 0;
  testbed::ShardRunResult run;
  std::vector<std::uint64_t> shard_digests;  // by shard index
  std::uint64_t records_indirect = 0;
  double merge_cpu_s = 0.0;
};

// Reference events run after each shard of an untraced round: the host's
// speed sampled all through the round, at ~5 % of its CPU.
constexpr int kReferenceEventsPerShard = 4000;

class FleetBench {
 public:
  FleetBench(const FleetShape& shape, const Options& opt, TraceSink* sink,
             Outcome& out)
      : spec_(spec_of(shape, opt.seed)), opt_(opt), sink_(sink), out_(out) {
    const double t0 = thread_cpu_s();
    const double s0 = sink_ ? sink_->now_us() : 0.0;
    fleet_ = std::make_unique<testbed::SyntheticFleet>(spec_);
    if (sink_) sink_->span("fleet_build", "testbed", 0, s0);
    const double t1 = thread_cpu_s();
    const double s1 = sink_ ? sink_->now_us() : 0.0;
    plan_ = testbed::plan_fleet_shards(spec_, *fleet_);
    if (sink_) sink_->span("plan", "testbed", 0, s1);
    const double t2 = thread_cpu_s();
    build_ms_ = 1e3 * (t1 - t0);
    plan_ms_ = 1e3 * (t2 - t1);
  }

  std::size_t transfers() const {
    return spec_.clients * spec_.transfers_per_client;
  }
  double build_ms() const { return build_ms_; }
  double plan_ms() const { return plan_ms_; }
  std::size_t shard_count() const { return plan_.size(); }

  /// One whole round: the full plan through run_sharded on one thread.
  /// The reducer checks every record before dropping it.
  Round round(bool traced, bool corrupt_this_round, RateLog* reference) {
    Round r;
    double reference_cpu = 0.0;
    std::uint64_t reference_allocations = 0;
    r.shard_digests.assign(plan_.size(), 0);
    std::vector<testbed::ShardSpec> shards = plan_;  // copy: not timed
    double shard_start_us = traced ? sink_->now_us() : 0.0;
    double last_reduce_cpu = 0.0;
    bool corrupted = false;
    const auto reduce = [&](testbed::ShardResult& shard) {
      if (traced) {
        sink_->span("run_shard", "testbed", 0, shard_start_us,
                    "{\"shard\":" + std::to_string(shard.shard_id) + "}");
      }
      if (corrupt_this_round && !corrupted) {
        corrupted = corrupt(shard);
      }
      check_shard(shard, r);
      shard.sessions.clear();
      shard.sessions.shrink_to_fit();
      if (reference != nullptr) {
        const std::uint64_t a = allocations();
        reference_cpu += reference->sample_reference(kReferenceEventsPerShard);
        reference_allocations += allocations() - a;
      }
      if (traced) shard_start_us = sink_->now_us();
      last_reduce_cpu = thread_cpu_s();
    };
    const std::uint64_t a0 = allocations();
    const double w0 = wall_s();
    const double c0 = process_cpu_s();
    r.run = testbed::run_sharded(std::move(shards), 1, reduce);
    const double c1 = process_cpu_s();
    r.merge_cpu_s = thread_cpu_s() - last_reduce_cpu;
    if (traced) {
      sink_->span("merge", "testbed", 0, shard_start_us);
    }
    r.wall_s = wall_s() - w0 - reference_cpu;
    r.cpu_s = c1 - c0 - reference_cpu;
    r.allocations = allocations() - a0 - reference_allocations;
    return r;
  }

  /// Re-runs `count` seeded-random shards serially through run_session and
  /// compares each shard's digest with the sharded round's. Returns the
  /// CPU milliseconds of each run_session call.
  std::vector<double> rerun_sample(std::size_t count,
                                   std::vector<std::uint64_t> digests) {
    util::Rng rng{util::child_stream(opt_.seed, 0x5a3b1e)};
    count = std::min(count, plan_.size());
    const std::vector<std::size_t> picks =
        rng.sample_without_replacement(plan_.size(), count);
    if (opt_.corrupt == Corrupt::kDigest && !picks.empty()) {
      digests[picks.front()] ^= 1;
    }
    std::vector<double> session_ms;
    for (const std::size_t i : picks) {
      testbed::ShardSummary summary;
      for (const testbed::SessionSpec& session : plan_[i].sessions) {
        const double s0 = sink_ ? sink_->now_us() : 0.0;
        const double c0 = thread_cpu_s();
        const testbed::SessionOutput output = testbed::run_session(session);
        session_ms.push_back(1e3 * (thread_cpu_s() - c0));
        if (sink_) sink_->span("run_session", "testbed", 1, s0);
        summary.absorb(output.result);
      }
      out_.check(summary.digest == digests[i],
                 "shard " + std::to_string(i) +
                     " re-run through run_session: digest differs");
    }
    return session_ms;
  }

  void check_round(const Round& r, std::uint64_t first_digest) {
    const testbed::ShardSummary& s = r.run.summary;
    const std::size_t expected = transfers();
    out_.attempted += s.transfers;
    out_.failed += s.failed;
    out_.check(s.transfers == expected,
               "completed transfers " + std::to_string(s.transfers) +
                   " != clients x transfers per client " +
                   std::to_string(expected));
    out_.check(s.ok == expected, std::to_string(expected - s.ok) +
                                     " transfers not ok");
    const std::uint64_t won_indirect =
        count_of(r.run.metrics, "sim.race.races_won_indirect");
    out_.check(won_indirect == r.records_indirect,
               "sim.race.races_won_indirect " + std::to_string(won_indirect) +
                   " != indirect records " +
                   std::to_string(r.records_indirect));
    out_.check(s.digest == first_digest,
               "fleet digest changed between rounds of the same plan");
  }

 private:
  /// Alters one output of the shard (a deliberately corrupted copy) so the
  /// matching check can be shown to fail.
  bool corrupt(testbed::ShardResult& shard) {
    for (testbed::SessionOutput& session : shard.sessions) {
      for (testbed::TransferObservation& t : session.result.transfers) {
        if (!t.ok) continue;
        if (opt_.corrupt == Corrupt::kImprovement) {
          t.improvement_steady_pct += 0.5;
          return true;
        }
        if (opt_.corrupt == Corrupt::kIndirect) {
          t.chose_indirect = !t.chose_indirect;
          return true;
        }
      }
    }
    return false;
  }

  void check_shard(const testbed::ShardResult& shard, Round& r) {
    r.shard_digests.at(shard.shard_id) = shard.summary.digest;
    for (const testbed::SessionOutput& session : shard.sessions) {
      for (const testbed::TransferObservation& t : session.result.transfers) {
        if (t.chose_indirect) ++r.records_indirect;
        if (!t.ok) continue;
        const bool rates_ok = t.direct_rate > 0.0 && t.selected_rate > 0.0;
        const double want = 100.0 * (t.selected_rate - t.direct_rate) /
                            t.direct_rate;
        const double want_steady =
            100.0 * (t.selected_steady_rate - t.direct_rate) / t.direct_rate;
        if (!rates_ok || !close(t.improvement_pct, want) ||
            !close(t.improvement_steady_pct, want_steady)) {
          out_.check(false, "improvement of a " + session.result.client +
                                " transfer differs from its two rates");
        }
      }
    }
  }

  static bool close(double got, double want) {
    return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
  }

  testbed::FleetSpec spec_;
  const Options& opt_;
  TraceSink* sink_;
  Outcome& out_;
  std::unique_ptr<testbed::SyntheticFleet> fleet_;
  std::vector<testbed::ShardSpec> plan_;
  double build_ms_ = 0.0;
  double plan_ms_ = 0.0;
};

double per(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

bool is_fleet_workload(const std::string& name) {
  return name == "fleet_paper" || name == "fleet_wide";
}

void run_fleet(const Options& opt, const std::string& shape_name, bool mini,
               TraceSink* sink, Outcome& out) {
  const FleetShape shape = shape_of(shape_name, mini);
  FleetBench bench(shape, opt, opt.trace ? sink : nullptr, out);
  if (!mini) out.set("setup_s", process_cpu_s(), "s");

  // Untraced rounds: the end-to-end rate, and the counters' source.
  RateLog sim;
  std::size_t rounds = 0;
  Round first;
  bool have_first = false;
  const double budget = mini ? 0.0 : (opt.trace ? 0.5 : 1.0) * opt.seconds;
  RoundClock clock(budget);
  do {
    const bool corrupt_now = !have_first && opt.corrupt != Corrupt::kNone;
    Round r = bench.round(false, corrupt_now, &sim);
    if (!have_first) {
      first = r;
      have_first = true;
    }
    bench.check_round(r, first.run.summary.digest);
    const double n = static_cast<double>(bench.transfers());
    sim.add(n, r.cpu_s, r.wall_s);
    ++rounds;
  } while (clock.another());

  std::vector<double> session_ms = bench.rerun_sample(
      opt.trace ? 4 : 2, first.shard_digests);

  sim.log("sim transfers/CPU-s");
  if (!mini) out.set("transfers_per_mref", sim.per_mref(), "transfers/Mref");
  if (!opt.trace) return;

  // Traced round: spans around every run_shard, the merge and the
  // run_session re-runs above; its CPU against the untraced aggregate is
  // the tracing overhead.
  const Round traced = bench.round(true, false, nullptr);
  bench.check_round(traced, first.run.summary.digest);
  const double n = static_cast<double>(bench.transfers());
  if (!mini) {
    out.set("trace.overhead_pct",
            100.0 * (traced.cpu_s * sim.per_cpu_s() / n - 1.0),
            "%");
  }

  const obs::Snapshot& m = first.run.metrics;
  const flow::FlowSimulator::Counters flow =
      flow::FlowSimulator::counters_from(m);
  const double events = static_cast<double>(count_of(m, "sim.core.events_executed"));
  out.set("sim_transfers_per_cpu_s", sim.per_cpu_s(), "transfers/CPU-s");
  out.set("ref.sim_cpu_ns_per_event", sim.reference_ns_per_event(), "ns");
  out.set("sim.wall_transfers_per_s", sim.per_wall_s(), "transfers/s");
  out.set("testbed.fleet_build_ms", bench.build_ms(), "ms");
  out.set("testbed.plan_ms", bench.plan_ms(), "ms");
  out.set("testbed.session_cpu_ms.p50", median(session_ms), "ms");
  out.set("testbed.merge_ms", 1e3 * traced.merge_cpu_s, "ms");
  out.set("sim.events_per_transfer", events / n, "count");
  out.set("sim.reschedules_per_transfer",
          static_cast<double>(count_of(m, "sim.core.events_rescheduled")) / n,
          "count");
  out.set("sim.cpu_ns_per_event",
          1e9 * sim.cpu_s() / (events * static_cast<double>(rounds)), "ns");
  out.set("flow.reallocations_per_transfer",
          static_cast<double>(flow.reallocations) / n, "count");
  out.set("flow.flows_touched_per_reallocation",
          per(static_cast<double>(flow.flows_touched),
              static_cast<double>(flow.reallocations)),
          "count");
  out.set("flow.maxmin_rounds_per_reallocation",
          per(static_cast<double>(flow.maxmin_rounds),
              static_cast<double>(flow.reallocations)),
          "count");
  out.set("flow.timer_rearms_per_transfer",
          static_cast<double>(flow.timer_rearms) / n, "count");
  out.set("flow.skipped_events_per_transfer",
          static_cast<double>(flow.skipped_events) / n, "count");
  out.set("overlay.engine_transfers_per_transfer",
          static_cast<double>(count_of(m, "sim.engine.transfers_started")) / n,
          "count");
  out.set("alloc.per_transfer",
          static_cast<double>(first.allocations) / n, "count");
  std::fprintf(stderr,
               "fleet %s: %zu transfers/round, %zu shards, %zu rounds, "
               "digest %016llx, %.1f%% indirect\n",
               shape_name.c_str(), bench.transfers(), bench.shard_count(),
               rounds,
               static_cast<unsigned long long>(first.run.summary.digest),
               100.0 * static_cast<double>(first.run.summary.indirect) / n);
}

void run_sweep(const Options& opt, const std::string& shape_name) {
  const FleetShape shape = shape_of(shape_name, false);
  const testbed::FleetSpec spec = spec_of(shape, opt.seed);
  const testbed::SyntheticFleet fleet(spec);
  const auto shed = [](testbed::ShardResult& shard) {
    shard.sessions.clear();
  };
  double base_wall = 0.0;
  for (const unsigned threads : {1u, 2u, 4u}) {
    std::vector<testbed::ShardSpec> shards =
        testbed::plan_fleet_shards(spec, fleet);
    const double c0 = process_cpu_s();
    const testbed::ShardRunResult run =
        testbed::run_sharded(std::move(shards), threads, shed);
    const double cpu = process_cpu_s() - c0;
    if (threads == 1) base_wall = run.wall_seconds;
    const double n = static_cast<double>(run.summary.transfers);
    std::printf(
        "%s threads=%u wall %.3f s cpu %.3f s  %.0f transfers/s wall  "
        "%.0f transfers/CPU-s  efficiency %.2f  digest %016llx\n",
        shape_name.c_str(), threads, run.wall_seconds, cpu,
        n / run.wall_seconds, n / cpu,
        base_wall / (threads * run.wall_seconds),
        static_cast<unsigned long long>(run.summary.digest));
  }
}

}  // namespace perfbench
