// flat_open: open-loop Poisson arrivals into the Scheduler over a flat
// four-shard engine.  The only workload with queueing; small one-warp
// requests make per-request host overhead a large share of latency.
#include <algorithm>
#include <cmath>
#include <memory>

#include "knn/knn.hpp"
#include "serving.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace gs = gpuksel::serve;
namespace gk = gpuksel::knn;

constexpr std::uint32_t kRows = 4096;
constexpr std::uint32_t kDim = 16;
constexpr std::uint32_t kShards = 4;
constexpr unsigned kThreadsPerShard = 1;
constexpr std::uint32_t kBatch = 32;  // one warp of queries
constexpr std::uint32_t kK = 16;
constexpr std::uint32_t kPool = 256;    // distinct request batches
constexpr std::uint32_t kChecked = 32;  // pool entries checked by the oracle
constexpr unsigned kSetups = 21;
/// Offered load, requests per second: with about 4 ms of service per request
/// on the reference host (4 cores, AVX-512 lane tier) the engine is busy a
/// fifth of the time.  Near capacity the queueing tail swung p90 latency by
/// 40% between seeds; at this load a 20-second run still gives 1000 samples.
constexpr double kRate = 50.0;

}  // namespace

void run_flat_open(const RunConfig& cfg, Result& r) {
  guard_threads(r,
                {{"shard_fanout", kShards * kThreadsPerShard},
                 {"merge", kThreadsPerShard}},
                cfg.nproc);
  r.note("params", "rows=" + std::to_string(kRows) +
                       ";dim=16;shards=4;threads_per_device=1;batch=32;"
                       "k=16;pool=256;rate_per_s=" + std::to_string(kRate) +
                       ";arrivals=poisson;scheduler=kBlock/16");

  const gk::Dataset refs =
      gk::make_uniform_dataset(kRows, kDim, derive_seed(cfg.seed, 1));
  const std::vector<gk::Dataset> pool =
      uniform_batches(kPool, kBatch, kDim, derive_seed(cfg.seed, 2));
  // Poisson arrivals conditioned on their count: rate x seconds arrival
  // times drawn uniformly over the run and sorted, so every seed offers the
  // same load and only the arrival pattern varies.
  std::vector<double> due(
      static_cast<std::size_t>(std::max(1.0, std::round(kRate * cfg.seconds))));
  {
    gpuksel::Rng rng(derive_seed(cfg.seed, 3));
    for (double& t : due) t = rng.uniform_double() * cfg.seconds;
    std::sort(due.begin(), due.end());
  }
  // Exact host oracle over a fixed subset of the request pool.
  std::vector<Answers> expected(kPool);
  {
    const gk::BruteForceKnn oracle(refs);
    for (std::uint32_t j = 0; j < kPool; j += kPool / kChecked) {
      expected[j] = oracle.search(pool[j], kK).neighbors;
    }
  }

  gs::ShardedKnnOptions opts;
  opts.num_shards = kShards;
  opts.index_type = gs::IndexType::kFlat;
  opts.worker_threads = kThreadsPerShard;
  std::unique_ptr<gs::ShardedKnn> engine_ptr;
  gk::Dataset copy;
  const double setup = median_setup(
      kSetups,
      [&] {
        engine_ptr.reset();
        copy = refs;
      },
      [&] {
        engine_ptr = std::make_unique<gs::ShardedKnn>(std::move(copy), opts);
        (void)engine_ptr->search(pool[0], kK);
      });
  gs::ShardedKnn& engine = *engine_ptr;
  r.set(r.end_to_end, "setup_s", setup, "s");

  std::uint64_t mismatches = 0;
  std::uint64_t checked = 0;
  Recall recall;
  const OnAnswer on_answer = [&](std::size_t i,
                                 const gs::ShardedResult& res) {
    digest_answers(r.digest, res.neighbors);
    const Answers& want = expected[i % kPool];
    if (!want.empty()) {
      checked += 1;
      mismatches += res.neighbors == want ? 0 : 1;
      recall.add(res.neighbors, want);
    }
  };
  LoopStats loop;
  std::vector<Served> served;
  gs::SchedulerCounters counters;
  {
    gs::Scheduler sched(engine);
    served = open_loop(sched, pool, kK, due, on_answer, loop);
    sched.shutdown();
    counters = sched.counters();
  }
  r.check(checked > 0 && mismatches == 0,
          "flat_open: " + std::to_string(checked) +
              " sampled answers match the host oracle byte for byte (" +
              std::to_string(mismatches) + " differ)");
  check_identities(r, engine, &counters);
  report_served(r, served, served.size(), false);
  r.set(r.end_to_end, "recall_at_k", recall.value(), "ratio", true);
  r.set(r.extra, "offered_rate_per_s", kRate, "1/s", true);

  if (!cfg.trace) return;
  report_scheduler(r, served, counters, loop);
  report_sharded(r, served, served.size());
  const double untraced =
      replay(engine, pool, kK, served.size(), served, nullptr, nullptr);
  const DeviceTotals before = engine_devices(engine);
  TraceAccount account(*cfg.spans);
  const double traced =
      replay(engine, pool, kK, served.size(), served, &account, cfg.spans);
  const DeviceTotals after = engine_devices(engine);
  account.report(r, true);
  report_devices(r, before, after, std::uint64_t{kBatch} * served.size(),
                 after);
  r.set(r.per_layer, "bench.trace_overhead",
        traced > 0.0 ? untraced / traced : 0.0, "ratio");
}

}  // namespace perfbench
