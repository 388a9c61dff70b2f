// The benchmark's workloads.  Each generates its inputs from the seed, runs
// its timed phase untraced (end-to-end metrics), and on traced runs adds the
// replay that yields the per-layer metrics.  Shapes and the reasons for them
// are listed in README.md beside this directory.
#pragma once

#include "common.hpp"

namespace perfbench {

void run_flat_open(const RunConfig& cfg, Result& r);
void run_ivf_batch(const RunConfig& cfg, Result& r);
void run_mutable_mixed(const RunConfig& cfg, Result& r);
void run_paper_select(const RunConfig& cfg, Result& r);

}  // namespace perfbench
