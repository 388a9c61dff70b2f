#include "trace.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

namespace perfbench {

namespace {

/// Length of the union of `children` clipped to [lo, hi].
double covered(double lo, double hi,
               std::vector<std::pair<double, double>> children) {
  std::sort(children.begin(), children.end());
  double total = 0.0;
  double reach = lo;
  for (auto [a, b] : children) {
    a = std::max(a, reach);
    b = std::min(b, hi);
    if (b > a) {
      total += b - a;
      reach = b;
    }
  }
  return total;
}

int lane_of(const std::string& name) {
  if (name == "request") return 1;
  if (name == "engine") return 2;
  if (name == "launch") return 3;
  return 4;
}

}  // namespace

std::uint64_t SpanLog::add(std::uint64_t rid, std::string name, double start,
                           double end, std::uint64_t parent, std::string tag,
                           double modeled) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.rid = rid;
  s.name = std::move(name);
  s.tag = std::move(tag);
  s.start = start;
  s.end = end;
  s.modeled = modeled;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void SpanLog::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\": [";
  const char* sep = "\n";
  for (const Span& s : spans_) {
    os << sep << "{\"name\": \"" << (s.tag.empty() ? s.name : s.tag)
       << "\", \"cat\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1"
       << ", \"tid\": " << lane_of(s.name) << ", \"ts\": " << s.start * 1e6
       << ", \"dur\": " << (s.end - s.start) * 1e6 << ", \"args\": {\"id\": "
       << s.id << ", \"parent\": " << s.parent << ", \"rid\": " << s.rid
       << ", \"modeled_s\": " << s.modeled << "}}";
    sep = ",\n";
  }
  os << "\n]}\n";
}

void TraceAccount::add_request(
    std::uint64_t rid, double r0, double r1, double engine_seconds,
    std::uint32_t queries,
    const std::vector<gpuksel::simt::KernelRecord>& records) {
  const double e0 = std::max(r0, r1 - engine_seconds);
  const std::uint64_t request = log_.add(rid, "request", r0, r1);
  const std::uint64_t engine = log_.add(rid, "engine", e0, r1, request);

  std::map<std::string, double> chain;  // device prefix -> busy seconds
  double merge = 0.0;
  std::vector<std::pair<double, double>> launches;
  const auto place = [&](const gpuksel::simt::KernelRecord& rec,
                         const std::string& kernel, double start) {
    log_.add(rid, "launch", start, start + rec.wall_seconds, engine, kernel,
             rec.kernel_seconds);
    launches.emplace_back(start, start + rec.wall_seconds);
  };
  const auto bare = [](const std::string& name) {
    const auto slash = name.find('/');
    return slash == std::string::npos
               ? std::pair<std::string, std::string>{"", name}
               : std::pair<std::string, std::string>{name.substr(0, slash),
                                                     name.substr(slash + 1)};
  };
  for (const auto& rec : records) {
    const auto [device, kernel] = bare(rec.kernel);
    KernelTotals& k = kernels_[kernel];
    k.launches += 1;
    k.serial_launches += rec.worker_threads == 1 ? 1 : 0;
    k.wall_seconds += rec.wall_seconds;
    k.modeled_seconds += rec.kernel_seconds;
    k.metrics += rec.total;
    if (device != "merge") {
      double& busy = chain[device];
      place(rec, kernel, e0 + busy);
      busy += rec.wall_seconds;
    }
  }
  double longest = 0.0;
  for (const auto& [device, busy] : chain) longest = std::max(longest, busy);
  for (const auto& rec : records) {
    const auto [device, kernel] = bare(rec.kernel);
    if (device != "merge") continue;
    place(rec, kernel, e0 + longest + merge);
    merge += rec.wall_seconds;
  }
  const double critical_path = longest + merge;

  const double cover = covered(e0, r1, std::move(launches));
  requests_ += 1;
  queries_ += queries;
  latency_total_ += r1 - r0;
  request_self_ += e0 - r0;
  engine_self_ += (r1 - e0) - cover;
  kernel_cover_ += cover;
  engine_ms_.push_back(engine_seconds * 1e3);
  host_overhead_ms_.push_back(
      (engine_seconds - std::min(engine_seconds, critical_path)) * 1e3);
}

void TraceAccount::report(Result& r, bool sharded) const {
  auto& m = r.per_layer;
  const double total = latency_total_ > 0.0 ? latency_total_ : 1.0;
  r.set(m, "trace.share.scheduler", request_self_ / total, "ratio");
  r.set(m, "trace.share.host_overhead", engine_self_ / total, "ratio");
  r.set(m, "trace.share.kernel_path", kernel_cover_ / total, "ratio");
  r.set(m, "serve.sharded.search_ms_p50",
        sharded ? percentile(engine_ms_, 50) : 0.0, "ms");
  r.set(m, "serve.sharded.host_overhead_ms_p50",
        sharded ? percentile(host_overhead_ms_, 50) : 0.0, "ms");

  const double per_request = requests_ > 0 ? 1.0 / requests_ : 0.0;
  KernelTotals all;
  for (const auto& [name, k] : kernels_) {
    all.launches += k.launches;
    all.serial_launches += k.serial_launches;
    all.wall_seconds += k.wall_seconds;
    all.metrics += k.metrics;
  }
  for (const std::string& name : listed_kernels()) {
    const auto it = kernels_.find(name);
    const KernelTotals k = it == kernels_.end() ? KernelTotals{} : it->second;
    r.set(m, "core." + name + ".launches", k.launches * per_request, "count",
          true);
    r.set(m, "core." + name + ".modeled_ms",
          k.modeled_seconds * 1e3 * per_request, "ms", true);
    r.set(m, "core." + name + ".wall_ms", k.wall_seconds * 1e3 * per_request,
          "ms");
  }
  const double q = queries_ > 0 ? static_cast<double>(queries_) : 1.0;
  const auto& t = all.metrics;
  r.set(m, "simt.warp_instr_per_query", t.instructions / q, "count", true);
  r.set(m, "simt.simt_efficiency", t.simt_efficiency(), "ratio", true);
  r.set(m, "simt.global_tx_per_query", t.global_tx() / q, "count", true);
  r.set(m, "simt.shared_conflict_replays_per_query",
        t.shared_conflict_replays / q, "count", true);
  r.set(m, "simt.host_ns_per_warp_instr",
        t.instructions > 0 ? all.wall_seconds * 1e9 / t.instructions : 0.0,
        "ns");
  r.set(m, "simt.serial_launch_share",
        all.launches > 0
            ? static_cast<double>(all.serial_launches) / all.launches
            : 0.0,
        "ratio", true);
}

}  // namespace perfbench
