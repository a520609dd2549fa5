// The benchmark's four workloads, two per stack.
//
// Each workload has a *main part* that feeds the end-to-end metrics
// (untraced, one thread). A traced run additionally measures every layer
// of both stacks, so it runs the main part traced and a small fixed
// complement of the other stack's parts; see README.md.
#pragma once

#include <string>

#include "measure.hpp"

namespace perfbench {

bool is_fleet_workload(const std::string& name);
bool is_rt_workload(const std::string& name);

/// Simulated fleet (`fleet_paper`, `fleet_wide`). `mini` selects the small
/// paper-shaped fleet a traced rt run uses as its sim complement.
void run_fleet(const Options& opt, const std::string& shape, bool mini,
               TraceSink* sink, Outcome& out);

/// Real relay bulk forwarding (`relay_bulk`).
void run_bulk(const Options& opt, bool mini, TraceSink* sink, Outcome& out);

/// Real probe-race churn (`race_churn`).
void run_churn(const Options& opt, bool mini, TraceSink* sink, Outcome& out);

/// 1/2/4-thread run_sharded sweep of a fleet shape (reference figures).
void run_sweep(const Options& opt, const std::string& shape);

}  // namespace perfbench
