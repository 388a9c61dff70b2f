// Traced-run bookkeeping: spans recorded by the benchmark around its calls
// into each layer, kept in memory and written out at the end, and the
// per-layer self-time and per-kernel totals derived from them.
//
// Span kinds (all spans of one request share its request id):
//   request  submit to future ready (Scheduler workloads) or one direct call
//   engine   ShardedKnn::search (or hp_select) in a direct replay of the same
//            request; placed at the end of its request span
//   launch   one per profiler KernelRecord, carrying wall and modeled
//            seconds.  The profiler records durations, not start times, so
//            launches are laid back to back per device from the engine
//            span's start, and the merge device's launches after the longest
//            shard chain: the shards run concurrently, the merge after them.
//   mutation one mutation call, tagged "compaction" when one adopted
//
// A span's self time is its duration minus the part of it its children
// cover.  Request self time is the scheduler's share of latency, engine self
// time the sharded layer's host overhead, and launch cover the kernel
// critical path; the three partition the requests' latency exactly.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "simt/profiler.hpp"

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t rid = 0;     ///< request id shared by a request's spans
  std::string name;
  std::string tag;  ///< launch: kernel name; mutation: "compaction" or ""
  double start = 0.0;  ///< seconds since the log's epoch
  double end = 0.0;
  double modeled = 0.0;  ///< launch spans: modeled seconds
};

class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  [[nodiscard]] double at(Clock::time_point t) const {
    return seconds_between(epoch_, t);
  }
  std::uint64_t add(std::uint64_t rid, std::string name, double start,
                    double end, std::uint64_t parent = 0, std::string tag = {},
                    double modeled = 0.0);
  /// Chrome trace_event JSON (chrome://tracing, Perfetto); ts/dur in µs.
  void write_chrome_trace(std::ostream& os) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Totals of one kernel across the traced requests.
struct KernelTotals {
  std::uint64_t launches = 0;
  std::uint64_t serial_launches = 0;  ///< KernelRecord::worker_threads == 1
  double wall_seconds = 0.0;
  double modeled_seconds = 0.0;
  gpuksel::simt::KernelMetrics metrics;
};

/// Folds traced requests into spans, layer self times and kernel totals.
class TraceAccount {
 public:
  explicit TraceAccount(SpanLog& log) : log_(log) {}

  /// One request: its latency interval [r0, r1] (log seconds), the replayed
  /// engine wall seconds, and the profiler records of that replay.  Record
  /// kernel names may carry a "<device>/" prefix (drain_profiles); "merge/"
  /// launches follow the slowest shard chain.
  void add_request(std::uint64_t rid, double r0, double r1,
                   double engine_seconds, std::uint32_t queries,
                   const std::vector<gpuksel::simt::KernelRecord>& records);

  /// Writes the per-layer metrics the trace supports into r.per_layer:
  /// layer shares, sharded search and host-overhead medians (when
  /// `sharded`), per-kernel launches / modeled / wall per request, and the
  /// simt aggregates.
  void report(Result& r, bool sharded) const;

 private:
  SpanLog& log_;
  std::map<std::string, KernelTotals> kernels_;  ///< by bare kernel name
  std::uint64_t requests_ = 0;
  std::uint64_t queries_ = 0;
  double latency_total_ = 0.0;
  double request_self_ = 0.0;
  double engine_self_ = 0.0;
  double kernel_cover_ = 0.0;
  std::vector<double> engine_ms_;
  std::vector<double> host_overhead_ms_;
};

/// The kernels the per-layer table always lists (0 where a workload does not
/// launch them), keyed by the launch names in src/.
inline const std::vector<std::string>& listed_kernels() {
  static const std::vector<std::string> names{
      "batch_tile_score", "batch_reduce", "shard_merge", "delta_merge",
      "coarse_quantize",  "list_scan",    "ivf_reduce",  "ivf_train",
      "hp_build",         "hp_topdown"};
  return names;
}

}  // namespace perfbench
