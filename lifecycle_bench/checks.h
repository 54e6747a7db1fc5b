// Output checks the lifecycle benchmark computes apart from the program:
// every expected value is derived from the workflow spec (the functions'
// behavior steps), the call graph's raw nodes and edges, or the benchmark's
// own request bookkeeping -- never from the partition, billing or platform
// code whose output is being checked. Each returns a non-OK status naming
// the first violation.
#ifndef LIFECYCLE_BENCH_CHECKS_H_
#define LIFECYCLE_BENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/common/sim_time.h"
#include "src/common/status.h"
#include "src/graph/call_graph.h"
#include "src/partition/problem.h"

namespace lifecycle {

// Invocations per request of each function handle, by counting the call
// paths from the workflow root in the spec.
quilt::Result<std::map<std::string, int64_t>> CallsPerRequest(const quilt::WorkflowApp& app);

// The fastest a request can possibly finish: compute at one vCPU, fake-DB
// waits, sequential calls summed and parallel calls overlapped; network,
// gateway and queueing costs counted as zero.
quilt::Result<quilt::SimDuration> CriticalPath(const quilt::WorkflowApp& app);

// Remote invocations each handle receives per request once `solution` is
// deployed: the client's call into the workflow root, plus every call that
// leaves the caller's group. Groups' own invocation counts follow from the
// spec, so a function duplicated into several groups is counted per copy.
quilt::Result<std::map<std::string, int64_t>> MergedRemoteCallsPerRequest(
    const quilt::WorkflowApp& app, const quilt::CallGraph& graph,
    const quilt::MergeSolution& solution);

// The benchmark's bookkeeping of one serving phase.
struct RequestTally {
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t in_flight = 0;
  int64_t answered_twice = 0;  // Requests whose callback ran more than once.
};

// Every offered request is counted exactly once as completed, failed or in
// flight; none failed, none is left in flight, none answered twice.
quilt::Status CheckRequestAccounting(const RequestTally& tally);

// `observed` (per-handle invocation counts of one phase) equals `requests`
// times `per_request` for every handle either map names.
quilt::Status CheckInvocationCounts(const std::map<std::string, int64_t>& per_request,
                                    int64_t requests,
                                    const std::map<std::string, int64_t>& observed);

// No latency is below the workflow's critical path.
quilt::Status CheckLatencyLowerBound(const std::vector<quilt::SimDuration>& latencies,
                                     quilt::SimDuration critical_path);

// The §4 rules: the workflow root is a group root, group roots are unique,
// every function is covered, every group is connected from its root through
// its own edges, every cut edge targets a group root, and every group fits
// the limits under cpu = c_root + Σ α_ij c_j and mem = m_root + Σ m_j +
// Σ_async (α_ij − 1) m_j over the group's internal edges (i, j).
quilt::Status CheckPlanValid(const quilt::CallGraph& graph, const quilt::MergeSolution& solution,
                             double cpu_limit, double memory_limit);

// The plan's reported cross_cost equals the sum of its cut edges' weights.
quilt::Status CheckPlanCost(const quilt::CallGraph& graph, const quilt::MergeSolution& solution);

// Both plans group the same functions under the same roots at the same cost.
quilt::Status CheckSamePlan(const quilt::CallGraph& graph_a, const quilt::MergeSolution& a,
                            const quilt::CallGraph& graph_b, const quilt::MergeSolution& b);

}  // namespace lifecycle

#endif  // LIFECYCLE_BENCH_CHECKS_H_
