#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  if (ok) {
    checks_passed.push_back(what);
  } else {
    failures.push_back(what);
  }
}

void Result::set(MetricMap& map, const std::string& name, double value,
                 const std::string& unit, bool exact) {
  map[name] = Metric{value, unit};
  if (exact) deterministic.push_back(name);
}

double median_rate(const std::vector<double>& seconds, double items) {
  constexpr std::size_t kSegments = 10;
  const std::size_t n = seconds.size();
  std::vector<double> rates;
  for (std::size_t g = 0; g < kSegments && g < n; ++g) {
    const std::size_t lo = g * n / std::min(kSegments, n);
    const std::size_t hi = (g + 1) * n / std::min(kSegments, n);
    double t = 0.0;
    for (std::size_t i = lo; i < hi; ++i) t += seconds[i];
    if (t > 0.0) rates.push_back(static_cast<double>(hi - lo) * items / t);
  }
  return percentile(rates, 50);
}

void digest_answers(std::uint64_t& h, const Answers& answers) {
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const auto& list : answers) {
    mix(list.size());
    for (const gpuksel::Neighbor& n : list) {
      mix(std::bit_cast<std::uint32_t>(n.dist));
      mix(n.index);
    }
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void guard_threads(Result& r, const std::vector<ThreadUse>& plan,
                   unsigned nproc) {
  unsigned peak = 0;
  std::ostringstream desc;
  for (const ThreadUse& use : plan) {
    peak = std::max(peak, use.count);
    desc << use.phase << "=" << use.count << ";";
  }
  r.note("thread_plan", desc.str());
  r.note("peak_compute_threads", peak);
  if (peak > nproc) {
    throw std::runtime_error("thread budget: " + desc.str() + " needs " +
                             std::to_string(peak) +
                             " host threads but nproc is " +
                             std::to_string(nproc));
  }
}

void check_pool(Result& r, const std::string& device,
                const gpuksel::simt::PoolStats& p) {
  r.check(p.bytes_requested == p.bytes_served_from_pool +
                                   p.bytes_freshly_allocated,
          device + ": pool bytes_requested == served_from_pool + fresh");
}

void check_identities(Result& r, gpuksel::serve::ShardedKnn& engine,
                      const gpuksel::serve::SchedulerCounters* sched) {
  if (sched != nullptr) {
    const auto& c = *sched;
    r.check(c.submitted == c.admitted + c.rejected,
            "scheduler: submitted == admitted + rejected");
    r.check(c.admitted == c.served_ok + c.timed_out_at_dequeue +
                              c.timed_out_after_serve + c.failed +
                              c.shed_expired + c.pending,
            "scheduler: admitted partitions into outcomes");
  }
  for (std::uint32_t s = 0; s < engine.num_shards(); ++s) {
    const gpuksel::serve::ShardTotals& tot = engine.totals()[s];
    const std::string name = "shard" + std::to_string(s);
    r.check(tot.useful_metrics + tot.wasted_metrics ==
                engine.shard(s).device().cumulative(),
            name + ": useful + wasted == device cumulative");
    check_pool(r, name, engine.shard(s).device().pool().stats());
    if (const gpuksel::knn::MutableKnn* m = engine.shard(s).mutable_engine();
        m != nullptr) {
      const gpuksel::knn::MutableStats ms = m->stats();
      r.check(ms.delta_bytes_uploaded ==
                  4 * (ms.delta_rows_synced * engine.dim() +
                       ms.tombstone_words_synced),
              name + ": delta_bytes_uploaded identity");
      r.check(ms.base_rows + ms.delta_rows == ms.tombstones + ms.live_rows,
              name + ": base + delta == tombstones + live");
    }
  }
  check_pool(r, "merge", engine.merge_device().pool().stats());
}

void Recall::add(const Answers& got, const Answers& want) {
  for (std::size_t q = 0; q < want.size() && q < got.size(); ++q) {
    for (const gpuksel::Neighbor& w : want[q]) {
      hits += std::any_of(got[q].begin(), got[q].end(),
                          [&](const gpuksel::Neighbor& n) {
                            return n.index == w.index;
                          })
                  ? 1.0
                  : 0.0;
      slots += 1.0;
    }
  }
}

double median_setup(unsigned count, const std::function<void()>& prepare,
                    const std::function<void()>& build) {
  std::vector<double> times;
  for (unsigned i = 0; i < count; ++i) {
    prepare();
    const auto t0 = Clock::now();
    build();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  return percentile(times, 50.0);
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return gpuksel::splitmix64(state);
}

std::vector<gpuksel::knn::Dataset> uniform_batches(std::uint32_t count,
                                                   std::uint32_t rows,
                                                   std::uint32_t dim,
                                                   std::uint64_t seed) {
  std::vector<gpuksel::knn::Dataset> batches;
  for (std::uint32_t b = 0; b < count; ++b) {
    batches.push_back(
        gpuksel::knn::make_uniform_dataset(rows, dim, derive_seed(seed, b)));
  }
  return batches;
}

}  // namespace perfbench
