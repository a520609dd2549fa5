// perfbench: the indiroute benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--corrupt <kind>] [--sweep]
//
// Runs one workload and prints, as its last stdout line, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with every metric the run measured. perfbench/run.py selects the
// metrics BENCHMARK.json declares for the mode.
//
// --trace 1 also measures every layer of both stacks (the workload's own
// part traced, a small complement of the other stack's parts untraced and
// traced) and writes <out-dir>/<workload>_trace.json (Chrome trace_event
// format) and <out-dir>/<workload>_layers.json.
//
// --corrupt <kind> alters one output of the run before the checks read it
// (improvement, indirect, digest, bytes, body, verdict); the run must then
// report "correct": false. --sweep prints a 1/2/4-thread run_sharded
// sweep of a fleet workload instead of measuring it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

bool parse_corrupt(const std::string& s, Corrupt& c) {
  static const std::pair<const char*, Corrupt> kinds[] = {
      {"none", Corrupt::kNone},         {"improvement", Corrupt::kImprovement},
      {"indirect", Corrupt::kIndirect}, {"digest", Corrupt::kDigest},
      {"bytes", Corrupt::kBytes},       {"body", Corrupt::kBody},
      {"verdict", Corrupt::kVerdict}};
  for (const auto& [name, kind] : kinds) {
    if (s == name) {
      c = kind;
      return true;
    }
  }
  return false;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload fleet_paper|fleet_wide|relay_bulk|"
               "race_churn --seed N --seconds S --trace 0|1 [--out-dir DIR] "
               "[--corrupt KIND] [--sweep]\n",
               argv0);
  return 2;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

std::string result_json(const Outcome& out) {
  std::string j = "{\"correct\": ";
  j += out.failures.empty() ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(out.attempted);
  j += ", \"failed\": " + std::to_string(out.failed);
  j += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, metric] : out.metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", metric.value);
    j += first ? "" : ", ";
    j += json_string(name) + ": {\"value\": " + buf +
         ", \"unit\": " + json_string(metric.unit) + "}";
    first = false;
  }
  return j + "}}";
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  if (!f) std::fprintf(stderr, "cannot write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool sweep = false;
  bool trace_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--sweep") {
      sweep = true;
    } else if (!has_value) {
      return usage(argv[0]);
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(argv[++i], "1") == 0;
      trace_set = true;
    } else if (arg == "--out-dir") {
      opt.out_dir = argv[++i];
    } else if (arg == "--corrupt") {
      if (!parse_corrupt(argv[++i], opt.corrupt)) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  const bool fleet = is_fleet_workload(opt.workload);
  if (!fleet && !is_rt_workload(opt.workload)) return usage(argv[0]);
  if (opt.seconds <= 0.0 || (!trace_set && !sweep)) return usage(argv[0]);

  try {
    if (sweep) {
      if (!fleet) return usage(argv[0]);
      run_sweep(opt, opt.workload);
      return 0;
    }
    TraceSink sink;
    Outcome out;
    TraceSink* traced = opt.trace ? &sink : nullptr;
    // The workload's own part first: its set-up is the cold one setup_s
    // reports. A traced run then covers the other stack's layers with a
    // small fixed complement.
    if (fleet) {
      run_fleet(opt, opt.workload, false, traced, out);
    } else if (opt.workload == "relay_bulk") {
      run_bulk(opt, false, traced, out);
    } else {
      run_churn(opt, false, traced, out);
    }
    // race_churn reads its own, after a fixed number of races.
    if (out.metrics.count("peak_rss_mb") == 0) {
      out.set("peak_rss_mb", peak_rss_mb(), "MB");
    }
    if (opt.trace) {
      if (fleet) {
        run_bulk(opt, true, traced, out);
        run_churn(opt, true, traced, out);
      } else {
        run_fleet(opt, "fleet_paper", true, traced, out);
        if (opt.workload == "relay_bulk") {
          run_churn(opt, true, traced, out);
        } else {
          run_bulk(opt, true, traced, out);
        }
      }
      std::filesystem::create_directories(opt.out_dir);
      const std::string base = opt.out_dir + "/" + opt.workload;
      write_file(base + "_trace.json", sink.tracer.to_chrome_json());
      write_file(base + "_layers.json", result_json(out) + "\n");
      std::fprintf(stderr, "wrote %s_trace.json (%zu spans), %s_layers.json\n",
                   base.c_str(), sink.tracer.size(), base.c_str());
    }
    std::printf("%s\n", result_json(out).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
