// mutable_mixed: one closed-loop client driving a two-shard mutable engine
// directly (the Scheduler has no mutation API).  Each cycle is fig14's mix
// of 64 mutations (48 inserts, 8 replaces, 8 removes) followed by one
// 64-query search; searches slow down as tombstones build up until a
// compaction resets them.
//
// The run is a fixed number of cycles sized from --seconds, not a time
// limit: the live set grows every cycle, so a time-limited run would search
// a larger set on a faster build and hide part of its gain (or of a
// regression).  Fixed work also makes every modeled and counted figure
// depend on the seed alone.
#include <cmath>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "knn/knn.hpp"
#include "serving.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace gs = gpuksel::serve;
namespace gk = gpuksel::knn;

constexpr std::uint32_t kRows = 4096;
constexpr std::uint32_t kDim = 8;
constexpr std::uint32_t kShards = 2;
constexpr unsigned kThreadsPerShard = 2;
constexpr std::uint32_t kInserts = 48;
constexpr std::uint32_t kReplaces = 8;
constexpr std::uint32_t kRemoves = 8;
constexpr std::uint32_t kBatch = 64;
constexpr std::uint32_t kK = 10;
constexpr std::uint32_t kPool = 32;        // distinct query batches
constexpr std::uint32_t kCheckEvery = 4;   // oracle-checked cycles
constexpr unsigned kSetups = 15;
/// Cycles per requested second: about 0.6 s of timed work per requested
/// second on the reference host (4 cores, AVX-512 lane tier), so a run with
/// its set-up and oracle work ends near its requested length.
constexpr double kCyclesPerSecond = 6.0;

enum class OpKind { kInsert, kReplace, kRemove };

struct Op {
  OpKind kind = OpKind::kInsert;
  std::uint32_t id = 0;  ///< insert: the id the engine must mint
  std::vector<float> row;
};

/// The whole mutation schedule plus the oracle answers of the checked
/// cycles, generated before anything is timed.  The bench mirrors the live
/// rows by global id; the engine mints insert ids sequentially from the
/// initial row count.
struct Schedule {
  std::vector<std::vector<Op>> cycles;
  std::vector<Answers> expected;  ///< empty for unchecked cycles
};

Schedule make_schedule(const gk::Dataset& initial,
                       const std::vector<gk::Dataset>& pool,
                       std::uint32_t cycles, std::uint64_t seed) {
  gpuksel::Rng rng(seed);
  std::map<std::uint32_t, std::vector<float>> live;
  std::vector<std::uint32_t> ids;
  std::unordered_map<std::uint32_t, std::size_t> pos;
  for (std::uint32_t i = 0; i < initial.count; ++i) {
    live[i].assign(initial.row(i), initial.row(i) + kDim);
    pos[i] = ids.size();
    ids.push_back(i);
  }
  std::uint32_t next_id = initial.count;
  const auto random_row = [&rng] {
    std::vector<float> row(kDim);
    for (float& x : row) x = rng.uniform_float();
    return row;
  };
  Schedule s;
  s.cycles.resize(cycles);
  s.expected.resize(cycles);
  for (std::uint32_t c = 0; c < cycles; ++c) {
    std::vector<OpKind> kinds;
    kinds.insert(kinds.end(), kInserts, OpKind::kInsert);
    kinds.insert(kinds.end(), kReplaces, OpKind::kReplace);
    kinds.insert(kinds.end(), kRemoves, OpKind::kRemove);
    for (std::size_t i = kinds.size(); i > 1; --i) {
      std::swap(kinds[i - 1], kinds[rng.uniform_below(i)]);
    }
    for (const OpKind kind : kinds) {
      Op op;
      op.kind = kind;
      if (kind == OpKind::kInsert) {
        op.id = next_id++;
        op.row = random_row();
        live[op.id] = op.row;
        pos[op.id] = ids.size();
        ids.push_back(op.id);
      } else {
        op.id = ids[rng.uniform_below(ids.size())];
        if (kind == OpKind::kReplace) {
          op.row = random_row();
          live[op.id] = op.row;
        } else {
          live.erase(op.id);
          const std::size_t at = pos[op.id];
          ids[at] = ids.back();
          pos[ids[at]] = at;
          ids.pop_back();
          pos.erase(op.id);
        }
      }
      s.cycles[c].push_back(std::move(op));
    }
    if (c % kCheckEvery == 0) {
      // Exact answer over the live rows in ascending id order, so a tie in
      // distance orders by id like the engine's (dist, global id) merge.
      gk::Dataset rows;
      rows.dim = kDim;
      rows.count = static_cast<std::uint32_t>(live.size());
      std::vector<std::uint32_t> row_id;
      for (const auto& [id, row] : live) {
        rows.values.insert(rows.values.end(), row.begin(), row.end());
        row_id.push_back(id);
      }
      Answers want = gk::BruteForceKnn(std::move(rows))
                         .search(pool[c % kPool], kK)
                         .neighbors;
      for (auto& list : want) {
        for (gpuksel::Neighbor& n : list) n.index = row_id[n.index];
      }
      s.expected[c] = std::move(want);
    }
  }
  return s;
}

std::unique_ptr<gs::ShardedKnn> build(gk::Dataset initial,
                                      const gk::Dataset& warm) {
  gs::ShardedKnnOptions opts;
  opts.num_shards = kShards;
  opts.index_type = gs::IndexType::kMutable;
  opts.worker_threads = kThreadsPerShard;
  auto engine = std::make_unique<gs::ShardedKnn>(std::move(initial), opts);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    engine->shard(s).mutable_engine()->compaction_device().set_worker_threads(
        kThreadsPerShard);
  }
  (void)engine->search(warm, kK);
  return engine;
}

struct ShardSums {
  std::uint64_t compactions = 0;
  std::uint64_t aborted = 0;
  std::uint64_t dead = 0;
  std::uint64_t delta = 0;
  std::uint64_t delta_bytes = 0;
};

ShardSums sums(gs::ShardedKnn& engine) {
  ShardSums t;
  for (std::uint32_t s = 0; s < engine.num_shards(); ++s) {
    const gk::MutableStats ms = engine.shard(s).mutable_engine()->stats();
    t.compactions += ms.compactions;
    t.aborted += ms.compactions_aborted;
    t.dead += ms.tombstones;
    t.delta += ms.delta_rows;
    t.delta_bytes += ms.delta_bytes_uploaded;
  }
  return t;
}

/// One pass over the schedule.  Mutation and search walls are timed per
/// call; bookkeeping and oracle comparisons sit outside the timed calls.
struct Pass {
  std::vector<Served> served;  ///< modeled fields of each search
  std::vector<double> cycle_s;  ///< mutations + search wall per cycle
  std::vector<double> search_ms;
  std::vector<double> mutate_us;   ///< calls that did not compact
  std::vector<double> compact_ms;  ///< calls during which a compaction adopted
  double mutation_seconds = 0.0;
  double search_seconds = 0.0;
  double dead_at_search = 0.0;
  double delta_at_search = 0.0;
  std::uint64_t mutations = 0;
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t mint_mismatches = 0;
  Recall recall;
};

Pass run_pass(gs::ShardedKnn& engine, const Schedule& schedule,
              const std::vector<gk::Dataset>& pool, std::uint64_t* digest,
              TraceAccount* account, SpanLog* log) {
  Pass p;
  gpuksel::simt::Profiler sink;
  if (account != nullptr) engine.attach_profilers();
  for (std::uint32_t c = 0; c < schedule.cycles.size(); ++c) {
    const double mutated_before = p.mutation_seconds;
    for (const Op& op : schedule.cycles[c]) {
      const std::uint64_t before = sums(engine).compactions;
      const Clock::time_point t0 = Clock::now();
      bool ok = true;
      switch (op.kind) {
        case OpKind::kInsert:
          ok = engine.insert(op.row) == op.id;
          break;
        case OpKind::kReplace:
          engine.upsert(op.id, op.row);
          break;
        case OpKind::kRemove:
          ok = engine.remove(op.id);
          break;
      }
      const Clock::time_point t1 = Clock::now();
      const double wall = seconds_between(t0, t1);
      const bool compacted = sums(engine).compactions > before;
      p.mint_mismatches += ok ? 0 : 1;
      p.mutation_seconds += wall;
      p.mutations += 1;
      (compacted ? p.compact_ms : p.mutate_us)
          .push_back(wall * (compacted ? 1e3 : 1e6));
      if (log != nullptr) {
        log->add(c, "mutation", log->at(t0), log->at(t1), 0,
                 compacted ? "compaction" : "");
      }
    }
    const ShardSums state = sums(engine);
    p.dead_at_search += static_cast<double>(state.dead);
    p.delta_at_search += static_cast<double>(state.delta);
    const gk::Dataset& queries = pool[c % kPool];
    const Clock::time_point t0 = Clock::now();
    const gs::ShardedResult res = engine.search(queries, kK);
    const Clock::time_point t1 = Clock::now();
    const double wall = seconds_between(t0, t1);
    p.search_seconds += wall;
    p.search_ms.push_back(wall * 1e3);
    p.cycle_s.push_back(p.mutation_seconds - mutated_before + wall);
    Served s;
    s.queries = queries.count;
    s.ok = !res.degraded;
    fill_modeled(s, res);
    p.served.push_back(s);
    if (digest != nullptr) digest_answers(*digest, res.neighbors);
    if (account != nullptr) {
      engine.drain_profiles(sink);
      account->add_request(c, log->at(t0), log->at(t1), wall, queries.count,
                           sink.records());
      sink.clear();
    }
    const Answers& want = schedule.expected[c];
    if (!want.empty()) {
      p.checked += 1;
      p.mismatches += res.neighbors == want ? 0 : 1;
      p.recall.add(res.neighbors, want);
    }
  }
  return p;
}

}  // namespace

void run_mutable_mixed(const RunConfig& cfg, Result& r) {
  guard_threads(r,
                {{"shard_fanout", kShards * kThreadsPerShard},
                 {"merge", kThreadsPerShard},
                 {"compaction", kThreadsPerShard}},
                cfg.nproc);
  const auto cycles = static_cast<std::uint32_t>(
      std::max(1.0, std::ceil(cfg.seconds * kCyclesPerSecond)));
  r.note("params",
         "rows=4096;dim=8;shards=2;threads_per_device=2;mix=48i/8r/8d;"
         "batch=64;k=10;pool=32;cycles=" + std::to_string(cycles) +
             ";compaction=default");

  const gk::Dataset initial =
      gk::make_uniform_dataset(kRows, kDim, derive_seed(cfg.seed, 1));
  const std::vector<gk::Dataset> pool =
      uniform_batches(kPool, kBatch, kDim, derive_seed(cfg.seed, 2));
  const Schedule schedule =
      make_schedule(initial, pool, cycles, derive_seed(cfg.seed, 3));

  std::unique_ptr<gs::ShardedKnn> engine_ptr;
  gk::Dataset copy;
  const double setup = median_setup(
      kSetups,
      [&] {
        engine_ptr.reset();
        copy = initial;
      },
      [&] { engine_ptr = build(std::move(copy), pool[0]); });
  gs::ShardedKnn& engine = *engine_ptr;
  r.set(r.end_to_end, "setup_s", setup, "s");

  const Pass p = run_pass(engine, schedule, pool, &r.digest, nullptr, nullptr);
  r.check(p.checked > 0 && p.mismatches == 0,
          "mutable_mixed: " + std::to_string(p.checked) +
              " checked searches match the host oracle over the live rows "
              "byte for byte (" + std::to_string(p.mismatches) + " differ)");
  r.check(p.mint_mismatches == 0,
          "mutable_mixed: every insert minted the predicted id and every "
          "remove found its row");
  check_identities(r, engine, nullptr);

  const double timed = p.mutation_seconds + p.search_seconds;
  auto& e = r.end_to_end;
  r.set(e, "wall_qps", median_rate(p.cycle_s, kBatch), "queries/s");
  r.set(e, "wall_p50_ms", percentile(p.search_ms, 50), "ms");
  r.set(e, "wall_p90_ms", percentile(p.search_ms, 90), "ms");
  r.set(r.extra, "wall_p99_ms", percentile(p.search_ms, 99), "ms");
  report_modeled(r, p.served, p.served.size());
  r.set(e, "recall_at_k", p.recall.value(), "ratio", true);
  r.set(r.extra, "mutations_per_s",
        p.mutation_seconds > 0.0 ? p.mutations / p.mutation_seconds : 0.0,
        "ops/s");
  r.set(r.extra, "cycles", cycles, "count", true);
  r.set(r.extra, "requests", static_cast<double>(p.served.size()), "count",
        true);
  r.attempted += p.mutations;
  r.failed += p.mint_mismatches;

  if (!cfg.trace) return;
  const ShardSums end = sums(engine);
  auto& m = r.per_layer;
  r.set(m, "knn.mutable.mutate_us_p50", percentile(p.mutate_us, 50), "us");
  r.set(m, "knn.mutable.mutate_us_p99", percentile(p.mutate_us, 99), "us");
  r.set(m, "knn.mutable.compact_ms_p50", percentile(p.compact_ms, 50), "ms");
  r.set(m, "knn.mutable.compactions", static_cast<double>(end.compactions),
        "count", true);
  r.set(m, "knn.mutable.compactions_aborted", static_cast<double>(end.aborted),
        "count", true);
  r.set(m, "knn.mutable.dead_at_search_mean",
        p.dead_at_search / p.served.size(), "rows", true);
  r.set(m, "knn.mutable.delta_rows_at_search_mean",
        p.delta_at_search / p.served.size(), "rows", true);
  r.set(m, "knn.mutable.delta_bytes_per_mutation",
        static_cast<double>(end.delta_bytes) / p.mutations, "B", true);
  const DeviceTotals pool_totals = engine_devices(engine);

  // The traced pass repeats the schedule on a fresh engine.
  engine_ptr.reset();
  auto traced_engine = build(initial, pool[0]);
  const DeviceTotals before = engine_devices(*traced_engine);
  TraceAccount account(*cfg.spans);
  const Pass t =
      run_pass(*traced_engine, schedule, pool, nullptr, &account, cfg.spans);
  const DeviceTotals after = engine_devices(*traced_engine);
  account.report(r, true);
  report_sharded(r, p.served, p.served.size());
  report_devices(r, before, after, std::uint64_t{kBatch} * t.served.size(),
                 pool_totals);
  const double traced = t.mutation_seconds + t.search_seconds;
  r.set(m, "bench.trace_overhead", traced > 0.0 ? timed / traced : 0.0,
        "ratio");
}

}  // namespace perfbench
