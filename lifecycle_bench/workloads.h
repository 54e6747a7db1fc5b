// The lifecycle benchmark's workloads: which workflow is served, at which
// simulated rates, under which container limits. Everything here is the
// benchmark's input to the program; see README.md for why each was chosen.
#ifndef LIFECYCLE_BENCH_WORKLOADS_H_
#define LIFECYCLE_BENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/core/quilt_controller.h"
#include "src/platform/platform.h"

namespace lifecycle {

// One open-loop serving phase: arrivals at `rps` for `warmup` and
// then `seconds` of simulated time, then a drain until every request has
// answered. Simulated outcomes count only the measured window after the
// warmup; host time and request checks cover the whole phase.
struct PhasePlan {
  double rps = 100.0;
  double warmup = 0.0;
  double seconds = 1.0;
};

struct Workload {
  quilt::WorkflowApp app;
  quilt::ControllerOptions controller;
  quilt::PlatformConfig platform;
  PhasePlan baseline;  // Unmerged serving.
  PhasePlan profile;   // Unmerged serving with the profiler token on.
  PhasePlan merged;    // Serving the merged deployment.
};

// Builds the named workload. `rng`, seeded from the run's seed, draws each
// function's service times within 1% of the workflow's nominal ones; the
// seed's other use is the arrival times (see PacedArrivals).
quilt::Result<Workload> MakeWorkload(const std::string& name, quilt::Rng& rng);

// A §7.5.2 random rDAG (|E| ≈ 1.2|V|, 10% async edges, random per-function
// CPU and memory) drawn from `graph_seed`, turned into a runnable workflow:
// each function computes, waits on a fake DB and makes its calls; its
// memory is the resident size of its binary.
quilt::WorkflowApp SyntheticDagApp(uint64_t graph_seed, int num_functions);

// Arrival instants (offsets from the phase start): one request per 1/rps
// slot, each moved by a seeded jitter of up to 0.4 slots. Bursts stay
// bounded, so a phase's outcome barely depends on the seed; Poisson
// arrivals make compose-review's profile bursty enough to hit the DIH
// sweep's infeasibility (see README.md).
std::vector<quilt::SimDuration> PacedArrivals(const PhasePlan& plan, quilt::Rng& rng);

}  // namespace lifecycle

#endif  // LIFECYCLE_BENCH_WORKLOADS_H_
