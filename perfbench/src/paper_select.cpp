// paper_select: the paper's own selection kernels, offline.  Repeated
// kernels::hp_select calls with Table I's best variant (aligned merge queue
// + sorted buffer + Hierarchical Partition, G = 4) at N = 2^15, k = 2^8, over
// pre-generated uniform distance matrices of 8 warps of queries each.  No
// serving path uses these kernels, and its launches are the only ones wide
// enough for the executor's warp pool.  Like the Table I bench, the device
// runs with the sanitizer off (sanitizer checks never charge metrics).
#include <algorithm>
#include <memory>

#include "baselines/cpu_select.hpp"
#include "core/kernels/hp_kernels.hpp"
#include "serving.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace gkr = gpuksel::kernels;
namespace simt = gpuksel::simt;

constexpr std::uint32_t kN = 1u << 15;
constexpr std::uint32_t kK = 1u << 8;
constexpr std::uint32_t kWarps = 8;
constexpr std::uint32_t kQueries = kWarps * simt::kWarpSize;
constexpr std::uint32_t kGroup = 4;
constexpr unsigned kThreads = 4;
constexpr std::uint32_t kPool = 4;  // distinct matrices; one pass is exact
constexpr unsigned kSetups = 5;
/// Table I's query count: modeled_select_s scales each call to it.
constexpr double kPaperQueries = 8192.0;

gkr::SelectConfig best_variant() {
  gkr::SelectConfig cfg;
  cfg.queue = gkr::QueueKind::kMerge;
  cfg.aligned_merge = true;
  cfg.buffer = gkr::BufferMode::kFullSorted;
  return cfg;
}

/// Reference-major uniform distances: element (query q, row j) at j*Q + q.
std::vector<float> make_matrix(std::uint64_t seed) {
  gpuksel::Rng rng(seed);
  std::vector<float> m(std::size_t{kQueries} * kN);
  for (float& x : m) x = rng.uniform_float();
  return m;
}

Answers oracle(const std::vector<float>& matrix) {
  Answers out(kQueries);
  std::vector<float> list(kN);
  for (std::uint32_t q = 0; q < kQueries; ++q) {
    for (std::uint32_t j = 0; j < kN; ++j) {
      list[j] = matrix[std::size_t{j} * kQueries + q];
    }
    out[q] = gpuksel::baselines::cpu_heap_select(list, kK);
  }
  return out;
}

void configure(simt::Device& dev) {
  dev.set_worker_threads(kThreads);
  dev.sanitizer() = simt::SanitizerConfig::off();
}

}  // namespace

void run_paper_select(const RunConfig& cfg, Result& r) {
  guard_threads(r, {{"select_launch", kThreads}}, cfg.nproc);
  r.note("params",
         "n=32768;k=256;warps_per_call=8;group=4;queue=merge_aligned;"
         "buffer=full_sorted;threads=4;pool=4;sanitizer=off;loop=closed/1");

  std::vector<std::vector<float>> pool;
  std::vector<Answers> expected;
  for (std::uint32_t i = 0; i < kPool; ++i) {
    pool.push_back(make_matrix(derive_seed(cfg.seed, 10 + i)));
    expected.push_back(oracle(pool.back()));
  }
  const gkr::SelectConfig variant = best_variant();
  const auto call = [&](simt::Device& dev, std::size_t i) {
    return gkr::hp_select(dev, pool[i % kPool], kQueries, kN, kK, variant,
                          kGroup);
  };

  std::unique_ptr<simt::Device> device;
  const double setup = median_setup(
      kSetups, [&] { device.reset(); },
      [&] {
        device = std::make_unique<simt::Device>();
        configure(*device);
        (void)call(*device, 0);
      });
  simt::Device& dev = *device;
  r.set(r.end_to_end, "setup_s", setup, "s");

  const simt::CostModel cm = simt::c2075_model();
  std::vector<double> wall_ms;
  std::vector<double> modeled_us;
  double modeled = 0.0;
  double paper_scale = 0.0;
  double timed = 0.0;
  std::uint64_t mismatches = 0;
  Recall recall;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0;
       i < kPool || seconds_between(start, Clock::now()) < cfg.seconds; ++i) {
    const Clock::time_point t0 = Clock::now();
    gkr::SelectOutput out = call(dev, i);
    const double wall = seconds_between(t0, Clock::now());
    timed += wall;
    wall_ms.push_back(wall * 1e3);
    if (i < kPool) {
      const double secs =
          cm.kernel_seconds(out.build_metrics) + cm.kernel_seconds(out.metrics);
      const double scale = kPaperQueries / kQueries;
      modeled_us.push_back(secs * 1e6);
      modeled += secs;
      paper_scale += cm.kernel_seconds_scaled(out.build_metrics, scale) +
                     cm.kernel_seconds_scaled(out.metrics, scale);
      digest_answers(r.digest, out.neighbors);
      mismatches += out.neighbors == expected[i] ? 0 : 1;
      recall.add(out.neighbors, expected[i]);
    }
  }
  r.check(mismatches == 0,
          "paper_select: every pool matrix's selection matches "
          "baselines::cpu_heap_select byte for byte (" +
              std::to_string(mismatches) + " differ)");
  check_pool(r, "select_device", dev.pool().stats());

  const double calls = static_cast<double>(wall_ms.size());
  auto& e = r.end_to_end;
  std::vector<double> wall_s;
  for (const double ms : wall_ms) wall_s.push_back(ms / 1e3);
  r.set(e, "wall_qps", median_rate(wall_s, kQueries), "queries/s");
  r.set(e, "wall_p50_ms", percentile(wall_ms, 50), "ms");
  r.set(e, "wall_p90_ms", percentile(wall_ms, 90), "ms");
  r.set(r.extra, "wall_p99_ms", percentile(wall_ms, 99), "ms");
  r.set(e, "modeled_qps", kPool * kQueries / modeled, "queries/s", true);
  r.set(e, "modeled_p99_us", percentile(modeled_us, 99), "us", true);
  r.set(e, "recall_at_k", recall.value(), "ratio", true);
  r.set(r.extra, "sim_warps_per_s", calls * kWarps / timed, "warps/s");
  r.set(r.extra, "modeled_select_s", paper_scale / kPool, "s", true);
  r.set(r.extra, "requests", calls, "count");
  r.attempted += wall_ms.size();

  if (!cfg.trace) return;
  // Traced pass: the first pool pass again with a profiler attached.
  simt::Profiler profiler;
  const DeviceTotals before = [&] {
    DeviceTotals t;
    t.add(dev);
    return t;
  }();
  TraceAccount account(*cfg.spans);
  double traced = 0.0;
  dev.set_profiler(&profiler);
  for (std::size_t i = 0; i < kPool; ++i) {
    const Clock::time_point t0 = Clock::now();
    (void)call(dev, i);
    const Clock::time_point t1 = Clock::now();
    const double wall = seconds_between(t0, t1);
    traced += wall;
    account.add_request(i, cfg.spans->at(t0), cfg.spans->at(t1), wall,
                        kQueries, profiler.records());
    profiler.clear();
  }
  dev.set_profiler(nullptr);
  DeviceTotals after;
  after.add(dev);
  account.report(r, false);
  report_devices(r, before, after, std::uint64_t{kQueries} * kPool, after);
  double untraced = 0.0;
  for (std::size_t i = 0; i < kPool; ++i) untraced += wall_ms[i] / 1e3;
  r.set(r.per_layer, "bench.trace_overhead",
        traced > 0.0 ? untraced / traced : 0.0, "ratio");
}

}  // namespace perfbench
