// ivf_batch: one closed-loop client sending held-out 256-query batches
// through the Scheduler to a two-shard IVF engine (fig13's clustered set).
// The pruned scan does most of the work and k-means training dominates
// set-up; recall is the quality metric.
#include <algorithm>
#include <memory>
#include <utility>

#include "knn/distance.hpp"
#include "knn/ivf.hpp"
#include "knn/knn.hpp"
#include "serving.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace gs = gpuksel::serve;
namespace gk = gpuksel::knn;

constexpr std::uint32_t kRows = 100000;
constexpr std::uint32_t kDim = 8;
constexpr std::uint32_t kClusters = 64;
constexpr float kSigma = 0.25f;
constexpr std::uint32_t kShards = 2;
constexpr unsigned kThreadsPerShard = 2;
constexpr std::uint32_t kNlist = 64;
constexpr std::uint32_t kNprobe = 8;
constexpr std::uint32_t kBatch = 256;
constexpr std::uint32_t kK = 10;
constexpr std::uint32_t kPool = 16;    // held-out batches; one pass is exact
constexpr std::uint32_t kChecked = 4;  // batches checked against the oracles
constexpr unsigned kSetups = 11;

/// Mean rows a query's probed lists hold, over every shard's list ranges,
/// divided by the reference rows.  Probe order mirrors coarse_quantize:
/// ascending (centroid distance, list id).
double scan_fraction(gs::ShardedKnn& engine,
                     const std::vector<gk::Dataset>& pool) {
  const gk::IvfIndex& global = engine.shard(0).ivf_engine()->index();
  std::vector<std::pair<float, std::uint32_t>> order(global.nlist);
  double scanned = 0.0;
  double queries = 0.0;
  for (const gk::Dataset& batch : pool) {
    for (std::uint32_t q = 0; q < batch.count; ++q) {
      for (std::uint32_t l = 0; l < global.nlist; ++l) {
        order[l] = {gk::squared_euclidean(
                        batch.row(q),
                        global.centroids.data() + std::size_t{l} * global.dim,
                        global.dim),
                    l};
      }
      std::sort(order.begin(), order.end());
      for (std::uint32_t j = 0; j < engine.ivf_nprobe(); ++j) {
        const std::uint32_t l = order[j].second;
        for (std::uint32_t s = 0; s < engine.num_shards(); ++s) {
          const gk::IvfIndex& idx = engine.shard(s).ivf_engine()->index();
          scanned += idx.list_begin[l + 1] - idx.list_begin[l];
        }
      }
      queries += 1.0;
    }
  }
  return queries > 0.0 ? scanned / queries / engine.size() : 0.0;
}

}  // namespace

void run_ivf_batch(const RunConfig& cfg, Result& r) {
  guard_threads(r,
                {{"shard_fanout", kShards * kThreadsPerShard},
                 {"merge_and_training", kThreadsPerShard}},
                cfg.nproc);
  r.note("params",
         "rows=100000;dim=8;clusters=64;sigma=0.25;shards=2;"
         "threads_per_device=2;nlist=64;nprobe=8;batch=256;k=10;pool=16;"
         "loop=closed/1");

  // One clustered draw split into references and held-out queries.
  const gk::LabelledDataset data = gk::make_gaussian_clusters(
      kRows + kPool * kBatch, kDim, kClusters, kSigma,
      derive_seed(cfg.seed, 1));
  gk::Dataset refs;
  refs.count = kRows;
  refs.dim = kDim;
  refs.values.assign(data.points.values.begin(),
                     data.points.values.begin() + std::size_t{kRows} * kDim);
  std::vector<gk::Dataset> pool(kPool);
  for (std::uint32_t b = 0; b < kPool; ++b) {
    pool[b].count = kBatch;
    pool[b].dim = kDim;
    const auto first = data.points.values.begin() +
                       (std::size_t{kRows} + std::size_t{b} * kBatch) * kDim;
    pool[b].values.assign(first, first + std::size_t{kBatch} * kDim);
  }

  gs::ShardedKnnOptions opts;
  opts.num_shards = kShards;
  opts.index_type = gs::IndexType::kIvf;
  opts.ivf.nlist = kNlist;
  opts.ivf.nprobe = kNprobe;
  opts.worker_threads = kThreadsPerShard;

  // Oracles: the exact host answer (recall) and the single-device IVF index
  // the sharded answer must equal byte for byte.
  std::vector<Answers> exact(kChecked);
  std::vector<Answers> single(kChecked);
  double train_s = 0.0;
  {
    const gk::BruteForceKnn oracle(refs);
    gk::IvfOptions iopts;
    iopts.params = opts.ivf;
    gk::IvfKnn reference(refs, iopts);
    gpuksel::simt::Device dev;
    dev.set_worker_threads(kThreadsPerShard);
    const Clock::time_point t0 = Clock::now();
    reference.train(dev);
    train_s = seconds_between(t0, Clock::now());
    for (std::uint32_t b = 0; b < kChecked; ++b) {
      exact[b] = oracle.search(pool[b], kK).neighbors;
      single[b] = reference.search_host(pool[b], kK).neighbors;
    }
  }

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

  Recall recall;
  std::uint64_t mismatches = 0;
  const OnAnswer on_answer = [&](std::size_t i, const gs::ShardedResult& res) {
    if (i >= kPool) return;
    digest_answers(r.digest, res.neighbors);
    if (i >= kChecked) return;
    mismatches += res.neighbors == single[i] ? 0 : 1;
    recall.add(res.neighbors, exact[i]);
  };
  std::vector<Served> served;
  gs::SchedulerCounters counters;
  LoopStats loop;
  {
    gs::Scheduler sched(engine);
    served = closed_loop(sched, pool, kK, cfg.seconds, kPool, on_answer);
    sched.shutdown();
    counters = sched.counters();
  }
  r.check(recall.slots > 0.0 && mismatches == 0,
          "ivf_batch: sampled sharded answers equal the single-device IVF "
          "index byte for byte (" + std::to_string(mismatches) + " differ)");
  check_identities(r, engine, &counters);
  report_served(r, served, kPool, true);
  r.set(r.end_to_end, "recall_at_k", recall.value(), "ratio", true);

  if (!cfg.trace) return;
  report_scheduler(r, served, counters, loop);
  report_sharded(r, served, kPool);
  r.set(r.per_layer, "knn.ivf.scan_fraction", scan_fraction(engine, pool),
        "ratio", true);
  r.set(r.per_layer, "knn.ivf.train_s", train_s, "s");
  const double untraced =
      replay(engine, pool, kK, kPool, served, nullptr, nullptr);
  const DeviceTotals before = engine_devices(engine);
  TraceAccount account(*cfg.spans);
  const double traced =
      replay(engine, pool, kK, kPool, served, &account, cfg.spans);
  const DeviceTotals after = engine_devices(engine);
  account.report(r, true);
  report_devices(r, before, after, std::uint64_t{kBatch} * kPool, after);
  r.set(r.per_layer, "bench.trace_overhead",
        traced > 0.0 ? untraced / traced : 0.0, "ratio");
}

}  // namespace perfbench
