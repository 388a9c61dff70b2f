#include "serving.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <future>
#include <mutex>
#include <thread>

namespace perfbench {

namespace gs = gpuksel::serve;

void fill_modeled(Served& s, const gs::ShardedResult& res) {
  s.modeled = res.modeled_seconds;
  s.merge = res.merge_seconds;
  double worst = 0.0;
  double total = 0.0;
  for (const gs::ShardStats& st : res.shards) {
    worst = std::max(worst, st.modeled_seconds);
    total += st.modeled_seconds;
  }
  const double mean = res.shards.empty() ? 0.0 : total / res.shards.size();
  s.imbalance = mean > 0.0 ? worst / mean : 0.0;
}

namespace {

void finish(Served& s, gs::ServeResponse& resp, std::size_t i,
            const OnAnswer& on_answer) {
  s.done = Clock::now();
  s.ok = resp.status == gs::RequestStatus::kOk && resp.served &&
         !resp.result.degraded;
  if (s.ok) {
    fill_modeled(s, resp.result);
    on_answer(i, resp.result);
  }
}

}  // namespace

std::vector<Served> open_loop(gs::Scheduler& sched,
                              const std::vector<gpuksel::knn::Dataset>& pool,
                              std::uint32_t k, const std::vector<double>& due_s,
                              const OnAnswer& on_answer, LoopStats& stats) {
  const std::size_t n = due_s.size();
  std::vector<Served> served(n);
  std::vector<std::future<gs::ServeResponse>> futures(n);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t sent = 0;
  bool aborted = false;
  // Give the collector a moment to start before the first due time.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  for (std::size_t i = 0; i < n; ++i) {
    served[i].due = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(due_s[i]));
    served[i].queries = pool[i % pool.size()].count;
  }

  std::exception_ptr collector_error;
  std::thread collector([&] {
    try {
      for (std::size_t i = 0; i < n; ++i) {
        std::future<gs::ServeResponse> f;
        {
          std::unique_lock lock(mu);
          cv.wait(lock, [&] { return sent > i || aborted; });
          if (sent <= i) return;
          f = std::move(futures[i]);
        }
        gs::ServeResponse resp = f.get();
        finish(served[i], resp, i, on_answer);
      }
    } catch (...) {
      collector_error = std::current_exception();
    }
  });
  try {
    for (std::size_t i = 0; i < n; ++i) {
      gpuksel::knn::Dataset queries = pool[i % pool.size()];
      std::this_thread::sleep_until(served[i].due);
      stats.gen_lag_ms.push_back(
          seconds_between(served[i].due, Clock::now()) * 1e3);
      std::future<gs::ServeResponse> f = sched.submit(std::move(queries), k);
      stats.max_pending = std::max(stats.max_pending, sched.pending());
      {
        std::lock_guard lock(mu);
        futures[i] = std::move(f);
        sent = i + 1;
      }
      cv.notify_one();
    }
  } catch (...) {
    {
      std::lock_guard lock(mu);
      aborted = true;
    }
    cv.notify_one();
    collector.join();
    throw;
  }
  collector.join();
  if (collector_error != nullptr) std::rethrow_exception(collector_error);
  return served;
}

std::vector<Served> closed_loop(gs::Scheduler& sched,
                                const std::vector<gpuksel::knn::Dataset>& pool,
                                std::uint32_t k, double seconds,
                                std::size_t min_requests,
                                const OnAnswer& on_answer) {
  std::vector<Served> served;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;
       i < min_requests || seconds_between(start, Clock::now()) < seconds;
       ++i) {
    gpuksel::knn::Dataset queries = pool[i % pool.size()];
    Served s;
    s.queries = queries.count;
    s.due = Clock::now();
    gs::ServeResponse resp = sched.submit(std::move(queries), k).get();
    finish(s, resp, i, on_answer);
    served.push_back(s);
  }
  return served;
}

double replay(gs::ShardedKnn& engine,
              const std::vector<gpuksel::knn::Dataset>& pool, std::uint32_t k,
              std::size_t count, const std::vector<Served>& served,
              TraceAccount* account, const SpanLog* log) {
  gpuksel::simt::Profiler sink;
  if (account != nullptr) engine.attach_profilers();
  double total = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    const gpuksel::knn::Dataset& queries = pool[i % pool.size()];
    const Clock::time_point t0 = Clock::now();
    const gs::ShardedResult res = engine.search(queries, k);
    const double wall = seconds_between(t0, Clock::now());
    total += wall;
    if (account != nullptr) {
      engine.drain_profiles(sink);
      account->add_request(i, log->at(served[i].due), log->at(served[i].done),
                           wall, queries.count, sink.records());
      sink.clear();
    }
  }
  return total;
}

void report_served(Result& r, const std::vector<Served>& served,
                   std::size_t exact, bool closed) {
  std::vector<double> latency_ms;
  std::vector<double> latency_s;
  double queries = 0.0;
  for (const Served& s : served) {
    latency_s.push_back(seconds_between(s.due, s.done));
    latency_ms.push_back(latency_s.back() * 1e3);
    queries += s.ok ? s.queries : 0;
  }
  const double span =
      served.empty() ? 0.0
                     : seconds_between(served.front().due, served.back().done);
  const double qps = closed && !served.empty()
                         ? median_rate(latency_s, served.front().queries)
                         : (span > 0.0 ? queries / span : 0.0);
  auto& m = r.end_to_end;
  r.set(m, "wall_qps", qps, "queries/s");
  r.set(m, "wall_p50_ms", percentile(latency_ms, 50), "ms");
  r.set(m, "wall_p90_ms", percentile(latency_ms, 90), "ms");
  r.set(r.extra, "wall_p99_ms", percentile(latency_ms, 99), "ms");
  r.set(r.extra, "requests", static_cast<double>(served.size()), "count");
  report_modeled(r, served, exact);
}

void report_modeled(Result& r, const std::vector<Served>& served,
                    std::size_t exact) {
  std::vector<double> modeled_us;
  double modeled_total = 0.0;
  double exact_queries = 0.0;
  for (std::size_t i = 0; i < exact && i < served.size(); ++i) {
    modeled_us.push_back(served[i].modeled * 1e6);
    modeled_total += served[i].modeled;
    exact_queries += served[i].queries;
  }
  r.set(r.end_to_end, "modeled_qps",
        modeled_total > 0.0 ? exact_queries / modeled_total : 0.0,
        "queries/s", true);
  r.set(r.end_to_end, "modeled_p99_us", percentile(modeled_us, 99), "us", true);
  r.set(r.extra, "modeled_requests", static_cast<double>(modeled_us.size()),
        "count", true);
  r.attempted += served.size();
  for (const Served& s : served) r.failed += s.ok ? 0 : 1;
}

void report_scheduler(Result& r, const std::vector<Served>& served,
                      const gs::SchedulerCounters& counters,
                      const LoopStats& stats) {
  std::vector<double> wait_ms;
  std::vector<double> service_ms;
  Clock::time_point prev_done{};
  for (std::size_t i = 0; i < served.size(); ++i) {
    const Served& s = served[i];
    const Clock::time_point start =
        i == 0 ? s.due : std::max(s.due, prev_done);
    wait_ms.push_back(seconds_between(s.due, start) * 1e3);
    service_ms.push_back(seconds_between(start, s.done) * 1e3);
    prev_done = s.done;
  }
  auto& m = r.per_layer;
  r.set(m, "serve.scheduler.queue_wait_ms_p50", percentile(wait_ms, 50), "ms");
  r.set(m, "serve.scheduler.queue_wait_ms_p99", percentile(wait_ms, 99), "ms");
  r.set(m, "serve.scheduler.service_ms_p50", percentile(service_ms, 50), "ms");
  r.set(m, "serve.scheduler.backpressure_waits",
        static_cast<double>(counters.backpressure_waits), "count");
  r.set(m, "serve.scheduler.max_pending",
        static_cast<double>(stats.max_pending), "count");
  r.set(m, "bench.gen_lag_ms_p99", percentile(stats.gen_lag_ms, 99), "ms");
}

void report_sharded(Result& r, const std::vector<Served>& served,
                    std::size_t exact) {
  double merge = 0.0;
  double modeled = 0.0;
  double imbalance = 0.0;
  std::size_t n = 0;
  for (; n < exact && n < served.size(); ++n) {
    merge += served[n].merge;
    modeled += served[n].modeled;
    imbalance += served[n].imbalance;
  }
  auto& m = r.per_layer;
  r.set(m, "serve.merge_share", modeled > 0.0 ? merge / modeled : 0.0, "ratio",
        true);
  r.set(m, "serve.shard_imbalance", n > 0 ? imbalance / n : 0.0, "ratio",
        true);
}

void DeviceTotals::add(const gpuksel::simt::Device& dev) {
  h2d += dev.transfers().bytes_h2d;
  d2h += dev.transfers().bytes_d2h;
  pool_requested += dev.pool().stats().bytes_requested;
  pool_reused += dev.pool().stats().bytes_served_from_pool;
}

DeviceTotals engine_devices(gs::ShardedKnn& engine) {
  DeviceTotals t;
  for (std::uint32_t s = 0; s < engine.num_shards(); ++s) {
    t.add(engine.shard(s).device());
    if (auto* m = engine.shard(s).mutable_engine(); m != nullptr) {
      t.add(m->compaction_device());
    }
  }
  t.add(engine.merge_device());
  return t;
}

void report_devices(Result& r, const DeviceTotals& before,
                    const DeviceTotals& after, std::uint64_t queries,
                    const DeviceTotals& pool) {
  const double q = queries > 0 ? static_cast<double>(queries) : 1.0;
  auto& m = r.per_layer;
  r.set(m, "simt.h2d_bytes_per_query", (after.h2d - before.h2d) / q, "B",
        true);
  r.set(m, "simt.d2h_bytes_per_query", (after.d2h - before.d2h) / q, "B",
        true);
  r.set(m, "simt.pool.reuse_ratio",
        pool.pool_requested > 0
            ? static_cast<double>(pool.pool_reused) / pool.pool_requested
            : 0.0,
        "ratio");
  r.set(m, "simt.pool.bytes_requested",
        static_cast<double>(pool.pool_requested), "B");
}

}  // namespace perfbench
