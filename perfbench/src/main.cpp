// perfbench: runs one workload of the gpuksel benchmark and writes one JSON
// result document (metrics, correctness verdict, config fingerprint).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <result.json>] [--spans <trace.json>] [--commit <id>]
//
// perfbench/run.py builds this binary and is the benchmark's entry point.
#include <sched.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "simt/lane_vec.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string spans;
  std::string commit = "unknown";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--out") {
      a.out = value;
    } else if (key == "--spans") {
      a.spans = value;
    } else if (key == "--commit") {
      a.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("flags come in pairs");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

unsigned host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

/// Every per-layer metric with its unit.  A traced run prints all of them;
/// those a workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_table() {
  static const auto table = [] {
    std::vector<std::pair<std::string, std::string>> t{
        {"serve.scheduler.queue_wait_ms_p50", "ms"},
        {"serve.scheduler.queue_wait_ms_p99", "ms"},
        {"serve.scheduler.service_ms_p50", "ms"},
        {"serve.scheduler.backpressure_waits", "count"},
        {"serve.scheduler.max_pending", "count"},
        {"serve.sharded.search_ms_p50", "ms"},
        {"serve.sharded.host_overhead_ms_p50", "ms"},
        {"serve.merge_share", "ratio"},
        {"serve.shard_imbalance", "ratio"},
        {"knn.ivf.scan_fraction", "ratio"},
        {"knn.ivf.train_s", "s"},
        {"knn.mutable.mutate_us_p50", "us"},
        {"knn.mutable.mutate_us_p99", "us"},
        {"knn.mutable.compact_ms_p50", "ms"},
        {"knn.mutable.compactions", "count"},
        {"knn.mutable.compactions_aborted", "count"},
        {"knn.mutable.dead_at_search_mean", "rows"},
        {"knn.mutable.delta_rows_at_search_mean", "rows"},
        {"knn.mutable.delta_bytes_per_mutation", "B"},
    };
    for (const std::string& k : listed_kernels()) {
      t.emplace_back("core." + k + ".launches", "count");
      t.emplace_back("core." + k + ".modeled_ms", "ms");
      t.emplace_back("core." + k + ".wall_ms", "ms");
    }
    for (const char* name :
         {"simt.warp_instr_per_query", "simt.global_tx_per_query",
          "simt.shared_conflict_replays_per_query"}) {
      t.emplace_back(name, "count");
    }
    t.emplace_back("simt.simt_efficiency", "ratio");
    t.emplace_back("simt.host_ns_per_warp_instr", "ns");
    t.emplace_back("simt.serial_launch_share", "ratio");
    t.emplace_back("simt.h2d_bytes_per_query", "B");
    t.emplace_back("simt.d2h_bytes_per_query", "B");
    t.emplace_back("simt.pool.reuse_ratio", "ratio");
    t.emplace_back("simt.pool.bytes_requested", "B");
    t.emplace_back("bench.gen_lag_ms_p99", "ms");
    t.emplace_back("bench.trace_overhead", "ratio");
    t.emplace_back("trace.share.scheduler", "ratio");
    t.emplace_back("trace.share.host_overhead", "ratio");
    t.emplace_back("trace.share.kernel_path", "ratio");
    return t;
  }();
  return table;
}

std::string quoted(const std::string& s) {
  std::ostringstream os;
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << ' ';
    } else {
      os << c;
    }
  }
  os << '"';
  return os.str();
}

void write_metrics(std::ostream& os, const MetricMap& m) {
  os << "{";
  const char* sep = "";
  for (const auto& [name, metric] : m) {
    os << sep << "\n    " << quoted(name) << ": {\"value\": " << metric.value
       << ", \"unit\": " << quoted(metric.unit) << "}";
    sep = ",";
  }
  os << (m.empty() ? "}" : "\n  }");
}

void write_strings(std::ostream& os, const std::vector<std::string>& xs) {
  os << "[";
  const char* sep = "";
  for (const std::string& x : xs) {
    os << sep << quoted(x);
    sep = ", ";
  }
  os << "]";
}

void write_result(std::ostream& os, const Result& r) {
  os << std::setprecision(17);
  os << "{\n  \"schema\": \"gpuksel.perfbench.v1\",\n  \"workload\": "
     << quoted(r.workload) << ",\n  \"fingerprint\": {";
  const char* sep = "";
  for (const auto& [key, value] : r.fingerprint) {
    os << sep << "\n    " << quoted(key) << ": " << quoted(value);
    sep = ",";
  }
  std::ostringstream digest;
  digest << std::hex << std::setw(16) << std::setfill('0') << r.digest;
  os << "\n  },\n  \"correct\": " << (r.failures.empty() ? "true" : "false")
     << ",\n  \"attempted\": " << r.attempted << ",\n  \"failed\": " << r.failed
     << ",\n  \"digest\": " << quoted(digest.str()) << ",\n  \"failures\": ";
  write_strings(os, r.failures);
  os << ",\n  \"checks\": ";
  write_strings(os, r.checks_passed);
  os << ",\n  \"deterministic\": ";
  write_strings(os, r.deterministic);
  os << ",\n  \"end_to_end\": ";
  write_metrics(os, r.end_to_end);
  os << ",\n  \"per_layer\": ";
  write_metrics(os, r.per_layer);
  os << ",\n  \"extra\": ";
  write_metrics(os, r.extra);
  os << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  RunConfig cfg;
  cfg.seed = args.seed;
  cfg.seconds = args.seconds;
  cfg.trace = args.trace;
  cfg.nproc = host_cores();
  SpanLog spans;
  cfg.spans = &spans;

  Result r;
  r.workload = args.workload;
  r.note("workload", args.workload);
  r.note("seed", std::to_string(args.seed));
  r.note("seconds", args.seconds);
  r.note("nproc", cfg.nproc);
  r.note("lane_tier", gpuksel::simt::lanevec::backend_name());
  r.note("build_type", PERFBENCH_BUILD_TYPE);
  r.note("compiler", __VERSION__);
  r.note("git_commit", args.commit);
  try {
    if (args.workload == "flat_open") {
      run_flat_open(cfg, r);
    } else if (args.workload == "ivf_batch") {
      run_ivf_batch(cfg, r);
    } else if (args.workload == "mutable_mixed") {
      run_mutable_mixed(cfg, r);
    } else if (args.workload == "paper_select") {
      run_paper_select(cfg, r);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 e.what());
    return 3;
  }
  r.set(r.end_to_end, "peak_rss_mb", peak_rss_mb(), "MiB");
  r.set(r.extra, "failed_frac",
        r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 0.0,
        "ratio");
  if (args.trace) {
    for (const auto& [name, unit] : per_layer_table()) {
      if (!r.per_layer.contains(name)) r.set(r.per_layer, name, 0.0, unit);
    }
  }

  if (!args.out.empty()) {
    std::ofstream out(args.out);
    write_result(out, r);
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.out.c_str());
      return 4;
    }
  }
  if (args.trace && !args.spans.empty()) {
    std::ofstream out(args.spans);
    spans.write_chrome_trace(out);
  }
  write_result(std::cout, r);
  return 0;
}
