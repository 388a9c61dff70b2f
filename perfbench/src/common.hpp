// Shared pieces of the benchmark binary: the result record every workload
// fills, statistics, the answer digest, the host-thread budget guard and the
// identity checks the library promises.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/neighbor.hpp"
#include "knn/dataset.hpp"
#include "serve/scheduler.hpp"
#include "serve/sharded_knn.hpp"
#include "simt/device.hpp"
#include "util/stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Answers = std::vector<std::vector<gpuksel::Neighbor>>;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

class SpanLog;

/// What one workload run was asked to do.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned nproc = 1;
  SpanLog* spans = nullptr;  ///< set on traced runs
};

/// Everything a run reports.  Metric names carry their clock: wall_* is host
/// time, modeled_* is the C2075 cost model over the SIMT counters.
struct Result {
  std::string workload;
  std::vector<std::pair<std::string, std::string>> fingerprint;
  MetricMap end_to_end;  ///< untraced user-visible metrics
  MetricMap per_layer;   ///< filled on traced runs only
  MetricMap extra;       ///< workload-specific figures and sample counts
  /// Metric names whose values repeat exactly for a given seed.
  std::vector<std::string> deterministic;
  std::vector<std::string> checks_passed;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;  ///< FNV-1a over every checked answer

  void check(bool ok, const std::string& what);
  void set(MetricMap& map, const std::string& name, double value,
           const std::string& unit, bool exact = false);
  void note(const std::string& key, const std::string& value) {
    fingerprint.emplace_back(key, value);
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  void note(const std::string& key, T value) {
    fingerprint.emplace_back(key, std::to_string(value));
  }
};

using gpuksel::percentile;

/// Closed-loop throughput robust to transient host contention: the samples
/// (seconds each, `items` work items each) are cut into ten consecutive
/// segments and the median segment rate is returned.
[[nodiscard]] double median_rate(const std::vector<double>& seconds,
                                 double items);

/// Folds an answer set into a running FNV-1a digest (dist bits + indices).
void digest_answers(std::uint64_t& h, const Answers& answers);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// One entry of a workload's host-thread budget: `count` compute threads
/// busy at once in the named phase.
struct ThreadUse {
  std::string phase;
  unsigned count = 0;
};
/// Refuses (throws) when any phase uses more host compute threads than
/// `nproc`; records the plan in the fingerprint.
void guard_threads(Result& r, const std::vector<ThreadUse>& plan,
                   unsigned nproc);

/// Asserts the library's exact-partition identities: scheduler admission and
/// outcome partition (when given), per-shard useful + wasted == device
/// cumulative, and every device pool's request partition.
void check_identities(Result& r, gpuksel::serve::ShardedKnn& engine,
                      const gpuksel::serve::SchedulerCounters* sched);
void check_pool(Result& r, const std::string& device,
                const gpuksel::simt::PoolStats& p);

/// Recall bookkeeping: counts how many of `want`'s neighbor ids appear in
/// `got`, query by query.
struct Recall {
  double hits = 0.0;
  double slots = 0.0;
  void add(const Answers& got, const Answers& want);
  [[nodiscard]] double value() const {
    return slots > 0.0 ? hits / slots : 0.0;
  }
};

/// Runs `prepare` (untimed: drop the previous engine, copy its inputs) then
/// `build` (timed: construct an engine and serve its first request) `count`
/// times; returns the median wall seconds of `build`.
[[nodiscard]] double median_setup(unsigned count,
                                  const std::function<void()>& prepare,
                                  const std::function<void()>& build);

/// `count` batches of `rows` uniform queries of dimension `dim`, one seeded
/// stream per batch.
[[nodiscard]] std::vector<gpuksel::knn::Dataset> uniform_batches(
    std::uint32_t count, std::uint32_t rows, std::uint32_t dim,
    std::uint64_t seed);

/// Mixes a workload-specific salt into the run seed, so every input stream
/// of a workload is distinct yet fixed by the seed.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
