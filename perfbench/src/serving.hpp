// Drivers shared by the workloads that serve through ShardedKnn: the
// Scheduler's open and closed loops, the direct replay the traced run uses,
// and the metrics every serving workload reports.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common.hpp"
#include "knn/dataset.hpp"
#include "serve/scheduler.hpp"
#include "trace.hpp"

namespace perfbench {

/// One served request of the untraced pass.
struct Served {
  Clock::time_point due;   ///< when it was due to be sent (closed loop: sent)
  Clock::time_point done;  ///< when its future was ready
  std::uint32_t queries = 0;
  bool ok = false;
  double modeled = 0.0;  ///< ShardedResult::modeled_seconds
  double merge = 0.0;    ///< ShardedResult::merge_seconds
  double imbalance = 0.0;  ///< max / mean per-shard modeled seconds
};

/// Called with each request's index and answer (collector thread for the
/// open loop), for the correctness gate and the digest.
using OnAnswer =
    std::function<void(std::size_t, const gpuksel::serve::ShardedResult&)>;

struct LoopStats {
  std::vector<double> gen_lag_ms;  ///< open loop: send time - due time
  std::size_t max_pending = 0;     ///< largest queue depth seen at a send
};

/// Open loop: request i (queries pool[i % pool.size()]) is sent at
/// start + due_s[i] whatever the backlog; futures are collected in FIFO order.
[[nodiscard]] std::vector<Served> open_loop(
    gpuksel::serve::Scheduler& sched,
    const std::vector<gpuksel::knn::Dataset>& pool, std::uint32_t k,
    const std::vector<double>& due_s, const OnAnswer& on_answer,
    LoopStats& stats);

/// Closed loop, one client: sends the next request when the previous one is
/// ready, until `seconds` have passed and at least `min_requests` were sent.
[[nodiscard]] std::vector<Served> closed_loop(
    gpuksel::serve::Scheduler& sched,
    const std::vector<gpuksel::knn::Dataset>& pool, std::uint32_t k,
    double seconds, std::size_t min_requests, const OnAnswer& on_answer);

/// Fills a Served record's modeled fields from an engine answer.
void fill_modeled(Served& s, const gpuksel::serve::ShardedResult& res);

/// Wall seconds of a direct ShardedKnn::search replay of requests
/// [0, count) — untraced when `account` is null; traced otherwise, with
/// profilers attached and each request's records folded into `account`
/// against its pass-1 latency interval `served[i]`.
double replay(gpuksel::serve::ShardedKnn& engine,
              const std::vector<gpuksel::knn::Dataset>& pool, std::uint32_t k,
              std::size_t count, const std::vector<Served>& served,
              TraceAccount* account, const SpanLog* log);

/// End-to-end metrics of a served sequence: wall latency and throughput over
/// every request, modeled throughput and tail over the first `exact` ones
/// (a prefix that depends on the seed alone).  A closed loop reports the
/// median segment rate (median_rate), an open loop served queries over the
/// span from the first due time to the last answer.
void report_served(Result& r, const std::vector<Served>& served,
                   std::size_t exact, bool closed);

/// modeled_qps and modeled_p99_us over the first `exact` requests; counts
/// every request as attempted and those not ok as failed.
void report_modeled(Result& r, const std::vector<Served>& served,
                    std::size_t exact);

/// Scheduler-layer metrics by the FIFO identity start_i = max(due_i,
/// done_{i-1}): queue wait and service time, plus the scheduler's counters.
void report_scheduler(Result& r, const std::vector<Served>& served,
                      const gpuksel::serve::SchedulerCounters& counters,
                      const LoopStats& stats);

/// Sharded-layer modeled shares over the first `exact` requests.
void report_sharded(Result& r, const std::vector<Served>& served,
                    std::size_t exact);

/// Transfer and pool totals over a set of devices.
struct DeviceTotals {
  std::uint64_t h2d = 0;
  std::uint64_t d2h = 0;
  std::uint64_t pool_requested = 0;
  std::uint64_t pool_reused = 0;
  void add(const gpuksel::simt::Device& dev);
};
[[nodiscard]] DeviceTotals engine_devices(gpuksel::serve::ShardedKnn& engine);

/// simt.h2d/d2h bytes per query (from a delta of device totals) and the
/// pool reuse ratio with its base.
void report_devices(Result& r, const DeviceTotals& before,
                    const DeviceTotals& after, std::uint64_t queries,
                    const DeviceTotals& pool);

}  // namespace perfbench
