#include "workloads.h"

#include <cmath>
#include <variant>

#include "src/apps/deathstarbench.h"
#include "src/common/strings.h"
#include "src/graph/random_dag.h"

namespace lifecycle {

namespace {

using quilt::CallItem;
using quilt::CallStep;
using quilt::ComputeStep;
using quilt::SleepStep;

// Settings every workload shares: one decision thread and one compile
// thread, so host timings do not depend on how many cores the machine lends.
quilt::ControllerOptions SingleThreaded() {
  quilt::ControllerOptions options;
  options.decision_threads = 1;
  options.compile_threads = 1;
  return options;
}

// The synthetic workflow's graph is fixed: decision time swings by orders
// of magnitude between random graphs, so no bound could hold if the run's
// seed drew it.
constexpr uint64_t kSyntheticGraphSeed = 7;
constexpr int kSyntheticFunctions = 28;

// How far the run's seed moves each function's service times. Below load,
// the simulator answers every request in exactly the same time; this small
// seeded draw is what makes a run's latencies its own.
constexpr double kServiceTimeSpread = 0.01;

// Scales every compute and fake-DB step of each function by its own factor
// in [1 - spread, 1 + spread].
void PerturbServiceTimes(quilt::WorkflowApp& app, double spread, quilt::Rng& rng) {
  for (quilt::AppFunctionSpec& fn : app.functions) {
    const double factor = rng.UniformDouble(1.0 - spread, 1.0 + spread);
    for (quilt::BehaviorStep& step : fn.steps) {
      if (auto* compute = std::get_if<ComputeStep>(&step)) {
        compute->cpu_ms *= factor;
      } else if (auto* sleep = std::get_if<SleepStep>(&step)) {
        sleep->latency_ms *= factor;
      }
    }
  }
}

}  // namespace

quilt::WorkflowApp SyntheticDagApp(uint64_t graph_seed, int num_functions) {
  quilt::RandomDagOptions options;
  options.num_nodes = num_functions;
  options.alpha_max = 2;
  options.cpu_min = 0.1;
  options.cpu_max = 0.6;
  options.memory_min = 8.0;
  options.memory_max = 40.0;
  quilt::Rng graph_rng(graph_seed);
  const quilt::CallGraph graph = quilt::GenerateRandomRdag(options, graph_rng);

  // Each function runs for kExecMs outside its calls; its CPU share from
  // the graph splits that into compute and fake-DB wait. Its memory is the
  // resident size of its binary (0.4 MB per MB of image), not an allocation
  // per request: the profiler labels a function with its containers' peak
  // memory, which for per-request allocations depends on how many requests
  // happened to overlap, and that noise moved GRASP's plan from seed to seed.
  constexpr double kExecMs = 2.0;
  quilt::WorkflowApp app;
  app.name = quilt::StrCat("synthetic-dag-", graph_seed, "-", num_functions);
  app.root_handle = graph.node(graph.root()).name;
  for (quilt::NodeId id = 0; id < graph.num_nodes(); ++id) {
    const quilt::FunctionNode& node = graph.node(id);
    quilt::AppFunctionSpec fn;
    fn.handle = node.name;
    fn.profiled_cpu = node.cpu;
    fn.profiled_mem = node.memory;
    fn.user_code_bytes = static_cast<int64_t>(node.memory / 0.4 * 1024 * 1024);
    fn.request_memory_mb = 0.0;
    fn.steps.push_back(ComputeStep{kExecMs * node.cpu});
    fn.steps.push_back(SleepStep{kExecMs * (1.0 - node.cpu)});
    CallStep sync_calls{{}, /*parallel=*/false};
    CallStep async_calls{{}, /*parallel=*/true};
    for (quilt::EdgeId e : graph.OutEdges(id)) {
      const quilt::CallEdge& edge = graph.edge(e);
      CallItem item{graph.node(edge.to).name, edge.alpha, false};
      (edge.type == quilt::CallType::kAsync ? async_calls : sync_calls).items.push_back(item);
    }
    if (!async_calls.items.empty()) {
      fn.steps.push_back(async_calls);
    }
    if (!sync_calls.items.empty()) {
      fn.steps.push_back(sync_calls);
    }
    app.functions.push_back(std::move(fn));
  }
  return app;
}

quilt::Result<Workload> MakeWorkload(const std::string& name, quilt::Rng& rng) {
  Workload w;
  w.controller = SingleThreaded();
  if (name == "social-overload") {
    // compose-post (sync): the baseline is offered more than it can carry,
    // so admission and pending-queue draining dominate; the merged
    // deployment carries the same rate without queueing.
    w.app = quilt::ComposePost(/*async_fanout=*/false);
    // compose-post's profiled memory is inflated by the overloaded baseline
    // by a seed-dependent amount; at 128 and 256 MB some groups sat within a
    // few MB of the limit and the plan changed between seeds. At 512 MB the
    // whole workflow fits one group on every seed.
    w.controller.container_memory_limit_mb = 512.0;
    // The overload lasts 0.75 s: draining a longer backlog made this phase's
    // host time swing most with the machine's load (README.md).
    w.baseline = {6000.0, 0.25, 0.5};
    w.profile = {1000.0, 0.0, 20.0};
    w.merged = {6000.0, 0.5, 2.5};
  } else if (name == "media-fanout") {
    // compose-review (async fan-out, 15 functions, DIH sweep): many
    // concurrent local calls per merged container and the most spans.
    w.app = quilt::ComposeReview(/*async_fanout=*/true);
    // At 128 MB the DIH sweep's plan changed between seeds.
    w.controller.container_memory_limit_mb = 256.0;
    w.baseline = {300.0, 1.0, 60.0};
    // At 500 rps the DIH sweep found no feasible grouping on some seeds
    // (see CHANGES.md, FOUND); at 300 rps it decides on every seed tried.
    w.profile = {300.0, 0.0, 40.0};
    w.merged = {12000.0, 0.5, 1.0};
  } else if (name == "synthetic-dag") {
    // A random rDAG served at a low rate under tight container memory, so
    // the decision must split it into several multi-function groups and
    // the control plane does most of the work.
    w.app = SyntheticDagApp(kSyntheticGraphSeed, kSyntheticFunctions);
    w.controller.container_cpu_limit = 4.0;
    w.controller.container_memory_limit_mb = 160.0;
    // The router admits a request only while a container stays under this
    // share of its memory limit, but Decide fills groups up to the whole
    // limit; with the default 0.8, a merged container whose binary alone
    // passes 80% never serves a request (see CHANGES.md, FOUND).
    w.platform.memory_admission_threshold = 1.0;
    w.baseline = {20.0, 5.0, 90.0};
    w.profile = {20.0, 0.0, 90.0};
    w.merged = {20.0, 5.0, 90.0};
  } else {
    return quilt::InvalidArgumentError(quilt::StrCat("unknown workload '", name, "'"));
  }
  PerturbServiceTimes(w.app, kServiceTimeSpread, rng);
  return w;
}

std::vector<quilt::SimDuration> PacedArrivals(const PhasePlan& plan, quilt::Rng& rng) {
  const int64_t count = std::llround(plan.rps * (plan.warmup + plan.seconds));
  std::vector<quilt::SimDuration> arrivals;
  arrivals.reserve(count);
  for (int64_t i = 0; i < count; ++i) {
    arrivals.push_back(quilt::Seconds((i + 0.5 + rng.UniformDouble(-0.4, 0.4)) / plan.rps));
  }
  return arrivals;
}

}  // namespace lifecycle
