// Quilt lifecycle benchmark: one process, one thread, one workload.
//
// Each round builds a fresh simulation, platform and controller and walks
// the whole lifecycle: register and serve the workflow unmerged, serve it
// again with profiling on, optimize (collect traces, build the call graph,
// decide, merge, deploy), serve the merged deployment, then roll back and
// re-optimize on the unchanged profile as the merge monitor does. Rounds
// repeat while they fit in --seconds of host time (at least three), and
// simulated outcomes must repeat exactly in every round. Every round does
// the same work in the same order, so host timings are taken piece by
// piece: each serving phase is timed in slices of simulated time and each
// optimization step on its own, and a metric is the sum over its pieces of
// a low quantile of each piece's times over rounds (see SumOfQuantiles).
//
// Host time (wall clock of this process) and simulated time (the
// simulation's virtual clock) are kept apart in every name: *_us_per_req,
// *_s and *_ms metrics of layers are host; *_goodput_rps, *_p50_ms,
// *_p99_ms and usd_* are simulated.
//
//   lifecycle_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   [--trace-out <file>]
//   lifecycle_bench --workload <name> --seed <n> --setup-only 1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
// with the end-to-end metrics when --trace is 0 and the per-layer metrics
// when it is 1. Exit code 0 means every output check passed. With
// --setup-only the process only sets up (build the inputs, construct the
// environment, register the workflow) and prints the host seconds that took
// from the start of main: one cold set-up, which run.py repeats in fresh
// processes.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "checks.h"
#include "span_log.h"
#include "src/common/strings.h"
#include "src/core/quilt_controller.h"
#include "src/tracing/span.h"
#include "workloads.h"

// --- Process-wide allocation counter (traced runs only). Counting is
// switched on once, before any thread exists.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<int64_t> g_allocs{0};

// Out of line so GCC does not mistake free() of a replaced operator new's
// malloc block for a mismatched deallocation.
[[gnu::noinline]] void ReleaseBlock(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void* operator new(std::size_t size) {
  if (void* p = ::operator new(size, std::nothrow)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { ReleaseBlock(p); }
void operator delete[](void* p) noexcept { ReleaseBlock(p); }
void operator delete(void* p, std::size_t) noexcept { ReleaseBlock(p); }
void operator delete[](void* p, std::size_t) noexcept { ReleaseBlock(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { ReleaseBlock(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { ReleaseBlock(p); }

namespace lifecycle {
namespace {

using Clock = std::chrono::steady_clock;
using quilt::SimDuration;
using quilt::SimTime;
using quilt::Status;
using quilt::StrCat;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Per-handle platform counters at one instant.
struct HandleCounters {
  int64_t completed = 0;
  int64_t cold_starts = 0;
  int64_t containers_created = 0;
  int64_t pending_peak = 0;
};
using Counters = std::map<std::string, HandleCounters>;

Counters Snapshot(const quilt::Platform& platform, const quilt::WorkflowApp& app) {
  Counters counters;
  for (const quilt::AppFunctionSpec& fn : app.functions) {
    HandleCounters& c = counters[fn.handle];
    if (const quilt::DeploymentStats* stats = platform.StatsFor(fn.handle)) {
      c = {stats->completed, stats->cold_starts, stats->containers_created, stats->pending_peak};
    }
  }
  return counters;
}

// What one serving phase produced.
struct PhaseResult {
  RequestTally tally;
  std::vector<SimDuration> latencies;  // Completed requests, simulated.
  // Requests sent in the measured window (simulated time), which follows
  // the warmup: their latencies, and when the last of them answered.
  std::vector<SimDuration> window_latencies;
  SimTime window_start = 0;
  SimTime window_last_done = 0;
  double host_s = 0.0;
  // Host time and events of each kSlice of simulated time, in order.
  std::vector<double> slice_s;
  std::vector<int64_t> slice_events;
  int64_t events = 0;
  int64_t allocs = 0;
  std::map<std::string, int64_t> invocations;  // Per handle, this phase.
  int64_t cold_starts = 0;
  int64_t containers_created = 0;
  int64_t pending_peak = 0;  // Highest pending-queue depth of any handle so far.

  // Window requests completed per simulated second, from the window's
  // start to its last answer: the offered rate while the deployment keeps
  // up, its service rate once a backlog builds.
  double GoodputRps() const {
    return window_latencies.size() / quilt::ToSeconds(window_last_done - window_start);
  }
  // Nearest-rank percentile in simulated milliseconds.
  double PercentileMs(double p) const {
    if (window_latencies.empty()) {
      return 0.0;
    }
    std::vector<SimDuration> sorted = window_latencies;
    std::sort(sorted.begin(), sorted.end());
    const size_t rank = static_cast<size_t>(std::ceil(p * sorted.size()));
    return quilt::ToMillis(sorted[std::max<size_t>(rank, 1) - 1]);
  }
};

struct Env {
  quilt::Simulation sim;
  quilt::Platform platform;
  quilt::QuiltController controller;

  explicit Env(const Workload& w)
      : platform(&sim, w.platform), controller(&sim, &platform, w.controller) {}
};

// The simulated length of one timed slice of a serving phase.
constexpr SimDuration kSlice = quilt::Milliseconds(10);

// Offers `arrivals` (offsets from now) to the workflow root as an open loop
// and runs the simulation until every request has answered.
PhaseResult Serve(Env& env, const quilt::WorkflowApp& app, const PhasePlan& plan,
                  const std::vector<SimDuration>& arrivals, SpanLog& log) {
  struct Book {
    std::vector<int> answers;  // Per request: times its callback ran.
    std::vector<SimDuration> latencies;
    std::vector<SimDuration> window_latencies;
    SimTime window_start = 0;
    SimTime window_last_done = 0;
    int64_t completed = 0;
    int64_t failed = 0;
  };
  auto book = std::make_shared<Book>();
  book->answers.assign(arrivals.size(), 0);

  PhaseResult result;
  const Counters before = Snapshot(env.platform, app);
  const int64_t events_before = env.sim.events_processed();
  const int64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  const Clock::time_point host_start = Clock::now();
  quilt::Simulation* sim = &env.sim;
  quilt::Platform* platform = &env.platform;
  const SimTime start = sim->now();
  book->window_start = start + quilt::Seconds(plan.warmup);
  // Each arrival schedules the next, so the event queue stays small.
  auto arrive = std::make_shared<std::function<void(size_t)>>();
  std::weak_ptr<std::function<void(size_t)>> weak_arrive = arrive;
  *arrive = [&, sim, platform, book, start, weak_arrive](size_t i) {
    const SimTime sent = sim->now();
    platform->Invoke(quilt::InvokeRequest{
        .caller = quilt::kClientCaller,
        .callee = app.root_handle,
        .parent = {},
        .payload = quilt::Json::MakeObject(),
        .async = false,
        .done = [sim, book, i, sent](quilt::Result<quilt::Json> response) {
          if (++book->answers[i] > 1) {
            return;
          }
          const SimTime now = sim->now();
          if (response.ok()) {
            ++book->completed;
            book->latencies.push_back(now - sent);
            if (sent >= book->window_start) {
              book->window_latencies.push_back(now - sent);
              book->window_last_done = now;
            }
          } else {
            ++book->failed;
          }
        }});
    if (i + 1 < arrivals.size()) {
      sim->ScheduleAt(start + arrivals[i + 1], [weak_arrive, i] {
        if (auto next = weak_arrive.lock()) {
          (*next)(i + 1);
        }
      });
    }
  };
  if (!arrivals.empty()) {
    sim->ScheduleAt(start + arrivals[0], [arrive] { (*arrive)(0); });
  }

  // Step the clock one kSlice at a time to the last arrival, then drain
  // until every request answered, or give up after a minute of simulated
  // time past the last arrival. Nothing runs between slices, so slicing
  // leaves the simulated outcome as one RunUntil would.
  const SimTime arrivals_end = start + (arrivals.empty() ? 0 : arrivals.back());
  const SimTime give_up = arrivals_end + quilt::Seconds(60);
  auto run_slice = [&](SimTime until) {
    const Clock::time_point slice_start = Clock::now();
    const int64_t slice_events = sim->events_processed();
    sim->RunUntil(until);
    result.slice_s.push_back(SecondsSince(slice_start));
    result.slice_events.push_back(sim->events_processed() - slice_events);
  };
  log.Wrap("Run", [&] {
    while (sim->now() < arrivals_end) {
      run_slice(std::min(sim->now() + kSlice, arrivals_end));
    }
    while (book->completed + book->failed < static_cast<int64_t>(arrivals.size()) &&
           sim->now() < give_up) {
      run_slice(sim->now() + kSlice);
    }
  });

  result.host_s = SecondsSince(host_start);
  result.events = env.sim.events_processed() - events_before;
  result.allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  result.tally.offered = static_cast<int64_t>(arrivals.size());
  result.tally.completed = book->completed;
  result.tally.failed = book->failed;
  result.tally.in_flight = result.tally.offered - book->completed - book->failed;
  for (int answers : book->answers) {
    result.tally.answered_twice += answers > 1 ? 1 : 0;
  }
  result.latencies = std::move(book->latencies);
  result.window_latencies = std::move(book->window_latencies);
  result.window_start = book->window_start;
  result.window_last_done = book->window_last_done;
  const Counters after = Snapshot(env.platform, app);
  for (const auto& [handle, c] : after) {
    const HandleCounters& b = before.at(handle);
    result.invocations[handle] = c.completed - b.completed;
    result.cold_starts += c.cold_starts - b.cold_starts;
    result.containers_created += c.containers_created - b.containers_created;
    result.pending_peak = std::max(result.pending_peak, c.pending_peak);
  }
  return result;
}

int64_t Sum(const std::map<std::string, int64_t>& counts) {
  int64_t total = 0;
  for (const auto& [handle, count] : counts) {
    total += count;
  }
  return total;
}

// The outcome of collect -> call graph -> decide -> merge -> deploy.
struct Optimized {
  quilt::CallGraph graph;
  quilt::MergeSolution solution;
  quilt::DecisionRecord decision;
  quilt::CompileServiceStats compile_before;
  quilt::CompileServiceStats compile_after;
  int merged_groups = 0;
  double host_s = 0.0;
  std::vector<double> step_s;  // Host time of each step, in call order.
};

// Runs one step of the lifecycle in a span called `name` and appends its
// host time to `steps`.
template <typename F>
auto TimedStep(SpanLog& log, std::vector<double>& steps, const char* name, F&& fn) {
  const Clock::time_point start = Clock::now();
  auto result = log.Wrap(name, std::forward<F>(fn));
  steps.push_back(SecondsSince(start));
  return result;
}

quilt::Result<Optimized> Optimize(Env& env, const std::string& root, SpanLog& log) {
  quilt::QuiltController& c = env.controller;
  Optimized out;
  std::vector<double>& steps = out.step_s;
  const Clock::time_point start = Clock::now();
  TimedStep(log, steps, "CollectTraces", [&] { return c.CollectTraces(); });
  quilt::Result<quilt::WorkflowLatencySummary> summary = TimedStep(
      log, steps, "SummarizeWorkflowLatency", [&] { return c.SummarizeWorkflowLatency(root); });
  if (!summary.ok()) {
    return summary.status();
  }
  quilt::Result<quilt::CallGraph> graph =
      TimedStep(log, steps, "BuildCallGraph", [&] { return c.BuildCallGraph(root); });
  if (!graph.ok()) {
    return graph.status();
  }
  quilt::Result<quilt::MergeSolution> solution =
      TimedStep(log, steps, "Decide", [&] { return c.Decide(*graph); });
  if (!solution.ok()) {
    return solution.status();
  }
  out.compile_before = c.compile_service()->stats();
  quilt::Result<std::vector<quilt::MergedArtifact>> artifacts =
      TimedStep(log, steps, "Merge", [&] { return c.Merge(*graph, *solution, root); });
  if (!artifacts.ok()) {
    return artifacts.status();
  }
  out.compile_after = c.compile_service()->stats();
  const Status deployed = TimedStep(log, steps, "DeployMerged", [&] {
    return c.DeployMerged(*graph, *solution, *artifacts, root);
  });
  if (!deployed.ok()) {
    return deployed;
  }
  out.host_s = SecondsSince(start);
  out.decision = c.metrics().decisions().back();
  for (const quilt::MergeGroup& group : solution->groups) {
    out.merged_groups += group.members.size() >= 2 ? 1 : 0;
  }
  out.graph = std::move(*graph);
  out.solution = std::move(*solution);
  return out;
}

constexpr int kReoptimizeRepeats = 3;

struct Inputs {
  Workload workload;
  std::vector<SimDuration> baseline;
  std::vector<SimDuration> profile;
  std::vector<SimDuration> merged;
  std::map<std::string, int64_t> calls_per_request;
  SimDuration critical_path = 0;
};

quilt::Result<Inputs> BuildInputs(const std::string& name, uint64_t seed) {
  quilt::Rng rng(seed);
  quilt::Result<Workload> workload = MakeWorkload(name, rng);
  if (!workload.ok()) {
    return workload.status();
  }
  Inputs in{std::move(*workload), {}, {}, {}, {}, 0};
  in.baseline = PacedArrivals(in.workload.baseline, rng);
  in.profile = PacedArrivals(in.workload.profile, rng);
  in.merged = PacedArrivals(in.workload.merged, rng);
  quilt::Result<std::map<std::string, int64_t>> calls = CallsPerRequest(in.workload.app);
  if (!calls.ok()) {
    return calls.status();
  }
  in.calls_per_request = std::move(*calls);
  quilt::Result<SimDuration> path = CriticalPath(in.workload.app);
  if (!path.ok()) {
    return path.status();
  }
  in.critical_path = *path;
  return in;
}

// Everything one round measured.
struct Round {
  Status check;  // First failed output check (OK when all passed).
  double setup_s = 0.0;
  PhaseResult baseline, profile, merged;
  Optimized first, second;
  double reoptimize_s = 0.0;  // Fastest of the round's re-optimizations.
  // Per re-optimization: Rollback's host time, then the steps of Optimize.
  std::vector<std::vector<double>> reoptimize_steps;
  int64_t spans = 0;
  int64_t billing_attempts = 0;
  int64_t billing_nanos = 0;
  std::map<std::string, double> layer_ms;  // Traced runs: self time per call.

  // Simulated outcomes; identical in every round of a run.
  std::vector<double> Simulated() const {
    return {baseline.GoodputRps(),       merged.GoodputRps(),
            baseline.PercentileMs(0.5),  merged.PercentileMs(0.5),
            merged.PercentileMs(0.99),   UsdPerMillion()};
  }
  double UsdPerMillion() const {
    return merged.tally.offered > 0
               ? static_cast<double>(billing_nanos) * 1e-9 / merged.tally.offered * 1e6
               : 0.0;
  }
};

// Runs the checks of one phase of unmerged serving.
Status CheckUnmergedPhase(const Inputs& in, const PhaseResult& phase, const char* label) {
  for (const Status& s :
       {CheckRequestAccounting(phase.tally),
        CheckInvocationCounts(in.calls_per_request, phase.tally.completed, phase.invocations),
        CheckLatencyLowerBound(phase.latencies, in.critical_path)}) {
    if (!s.ok()) {
      return Status(s.code(), StrCat(label, ": ", s.message()));
    }
  }
  return Status::Ok();
}

Status CheckMerged(const Inputs& in, const Round& r) {
  const quilt::ControllerOptions& limits = in.workload.controller;
  quilt::Result<std::map<std::string, int64_t>> remote =
      MergedRemoteCallsPerRequest(in.workload.app, r.first.graph, r.first.solution);
  if (!remote.ok()) {
    return remote.status();
  }
  const int64_t requests = r.merged.tally.completed;
  for (const Status& s :
       {CheckPlanValid(r.first.graph, r.first.solution, limits.container_cpu_limit,
                       limits.container_memory_limit_mb),
        CheckPlanCost(r.first.graph, r.first.solution), CheckRequestAccounting(r.merged.tally),
        CheckInvocationCounts(*remote, requests, r.merged.invocations),
        CheckLatencyLowerBound(r.merged.latencies, in.critical_path)}) {
    if (!s.ok()) {
      return Status(s.code(), StrCat("merged: ", s.message()));
    }
  }
  if (r.billing_attempts != Sum(*remote) * requests) {
    return quilt::FailedPreconditionError(
        StrCat("merged: billing counted ", r.billing_attempts, " attempts, expected ",
               Sum(*remote) * requests));
  }
  return Status::Ok();
}

Round RunRound(const Inputs& in, Clock::time_point setup_start, SpanLog& log) {
  const Workload& w = in.workload;
  const std::string& root = w.app.root_handle;
  Round r;
  const int round_span = log.Begin("round");

  int span = log.Begin("setup");
  Env env(w);
  r.check = log.Wrap("RegisterWorkflow", [&] { return env.controller.RegisterWorkflow(w.app); });
  r.setup_s = SecondsSince(setup_start);
  log.End(span);
  if (!r.check.ok()) {
    log.End(round_span);
    return r;
  }

  span = log.Begin("serve.baseline");
  r.baseline = Serve(env, w.app, w.baseline, in.baseline, log);
  log.End(span);

  span = log.Begin("serve.profile");
  env.controller.StartProfiling();
  r.profile = Serve(env, w.app, w.profile, in.profile, log);
  env.controller.StopProfiling();
  r.spans = static_cast<int64_t>(env.controller.span_store()->size());
  log.End(span);

  span = log.Begin("optimize");
  quilt::Result<Optimized> first = Optimize(env, root, log);
  log.End(span);
  if (!first.ok()) {
    r.check = Status(first.status().code(), StrCat("optimize: ", first.status().message()));
    log.End(round_span);
    return r;
  }
  r.first = std::move(*first);
  if (log.enabled()) {
    r.layer_ms["tracing.collect_ms"] =
        log.LastSelfMs("CollectTraces") + log.LastSelfMs("SummarizeWorkflowLatency");
    r.layer_ms["tracing.callgraph_ms"] = log.LastSelfMs("BuildCallGraph");
    r.layer_ms["decide.ms"] = log.LastSelfMs("Decide");
    r.layer_ms["compile.ms"] = log.LastSelfMs("Merge");
    r.layer_ms["deploy.ms"] = log.LastSelfMs("DeployMerged");
    r.layer_ms["setup.register_ms"] = log.LastSelfMs("RegisterWorkflow");
  }

  span = log.Begin("serve.merged");
  const quilt::QuiltController::CostReport bill_before =
      log.Wrap("CollectCostReport", [&] { return env.controller.CollectCostReport(); });
  r.merged = Serve(env, w.app, w.merged, in.merged, log);
  const quilt::QuiltController::CostReport bill_after =
      log.Wrap("CollectCostReport", [&] { return env.controller.CollectCostReport(); });
  r.billing_attempts = bill_after.invocation_attempts - bill_before.invocation_attempts;
  r.billing_nanos = bill_after.invocation_nanos - bill_before.invocation_nanos;
  log.End(span);
  if (log.enabled()) {
    r.layer_ms["billing.report_ms"] = log.LastSelfMs("CollectCostReport");
  }

  // Re-optimizing is short and leaves the state as it found it, so it is
  // timed kReoptimizeRepeats times per round.
  for (int repeat = 0; repeat < kReoptimizeRepeats; ++repeat) {
    span = log.Begin("reoptimize");
    const Clock::time_point reoptimize_start = Clock::now();
    std::vector<double> steps;
    const Status rolled_back =
        TimedStep(log, steps, "Rollback", [&] { return env.controller.Rollback(root); });
    quilt::Result<Optimized> second =
        rolled_back.ok() ? Optimize(env, root, log) : quilt::Result<Optimized>(rolled_back);
    const double seconds = SecondsSince(reoptimize_start);
    r.reoptimize_s = repeat == 0 ? seconds : std::min(r.reoptimize_s, seconds);
    log.End(span);
      if (!second.ok()) {
      r.check =
          Status(second.status().code(), StrCat("re-optimize: ", second.status().message()));
      log.End(round_span);
      return r;
    }
    steps.insert(steps.end(), second->step_s.begin(), second->step_s.end());
    r.reoptimize_steps.push_back(std::move(steps));
    r.second = std::move(*second);
    if (r.check = CheckSamePlan(r.first.graph, r.first.solution, r.second.graph,
                                r.second.solution);
        !r.check.ok()) {
      log.End(round_span);
      return r;
    }
  }
  log.End(round_span);
  if (log.enabled()) {
    r.layer_ms["rollback.ms"] = log.LastSelfMs("Rollback");
    r.layer_ms["redecide.ms"] = log.LastSelfMs("Decide");
    r.layer_ms["compile.recompile_ms"] = log.LastSelfMs("Merge");
  }

  for (const Status& s : {CheckUnmergedPhase(in, r.baseline, "baseline"),
                          CheckUnmergedPhase(in, r.profile, "profile"), CheckMerged(in, r)}) {
    if (!s.ok()) {
      r.check = s;
      break;
    }
  }
  return r;
}

// The `q` quantile of `values`, interpolated linearly between the two
// nearest ranks.
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(rank);
  if (below + 1 >= values.size()) {
    return values.back();
  }
  const double above_share = rank - static_cast<double>(below);
  return values[below] * (1.0 - above_share) + values[below + 1] * above_share;
}

// The quantile of a piece's host times over rounds that host metrics take
// (see SumOfQuantiles).
constexpr double kPieceQuantile = 0.15;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// `samples` each time the same pieces of work in the same order (the
// slices of one serving phase, or the steps of one optimization, in every
// round). Returns the sum over pieces of each piece's kPieceQuantile time
// over rounds. Other tenants of the machine slow it in bursts of seconds to
// minutes and never speed a piece up, so a low quantile of the rounds'
// times measures the piece's own cost: a slow stretch inflates only the
// pieces it overlapped, in the rounds it overlapped, and a run that spends
// most of its rounds in one still meets enough quiet moments. Not the
// minimum: some pieces run far faster in a rare round (CollectTraces now
// and then in 60% of its usual time), and whether a run met such a round
// would set a minimum.
double SumOfQuantiles(const std::vector<const std::vector<double>*>& samples) {
  double total = 0.0;
  std::vector<double> piece(samples.size());
  for (size_t i = 0; i < samples.front()->size(); ++i) {
    for (size_t k = 0; k < samples.size(); ++k) {
      piece[k] = (*samples[k])[i];
    }
    total += Quantile(piece, kPieceQuantile);
  }
  return total;
}

// Host seconds of one phase over all rounds, taken slice by slice.
double PhaseSeconds(const std::vector<Round>& rounds, const PhaseResult Round::*phase) {
  std::vector<const std::vector<double>*> samples;
  for (const Round& r : rounds) {
    samples.push_back(&(r.*phase).slice_s);
  }
  return SumOfQuantiles(samples);
}

double OptimizeSeconds(const std::vector<Round>& rounds) {
  std::vector<const std::vector<double>*> samples;
  for (const Round& r : rounds) {
    samples.push_back(&r.first.step_s);
  }
  return SumOfQuantiles(samples);
}

double ReoptimizeSeconds(const std::vector<Round>& rounds) {
  std::vector<const std::vector<double>*> samples;
  for (const Round& r : rounds) {
    for (const std::vector<double>& steps : r.reoptimize_steps) {
      samples.push_back(&steps);
    }
  }
  return SumOfQuantiles(samples);
}

// Whether round `r` stepped through the same slices with the same events,
// and the same optimization steps, as round `first`: SumOfQuantiles relies on it.
bool SameWork(const Round& first, const Round& r) {
  for (const PhaseResult Round::*phase : {&Round::baseline, &Round::profile, &Round::merged}) {
    if ((r.*phase).slice_events != (first.*phase).slice_events) {
      return false;
    }
  }
  return r.first.step_s.size() == first.first.step_s.size() &&
         r.reoptimize_steps.size() == first.reoptimize_steps.size();
}

double UsPerReq(const PhaseResult& p) { return p.host_s * 1e6 / std::max<int64_t>(1, p.tally.offered); }
double PerReq(int64_t count, const PhaseResult& p) {
  return static_cast<double>(count) / std::max<int64_t>(1, p.tally.offered);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux.
}

std::vector<Metric> EndToEnd(const std::vector<Round>& rounds) {
  const Round& r = rounds.front();
  auto us_per_req = [&](const PhaseResult Round::*phase) {
    return PhaseSeconds(rounds, phase) * 1e6 / std::max<int64_t>(1, (r.*phase).tally.offered);
  };
  return {
      {"setup_s", r.setup_s, "s"},
      {"baseline_us_per_req", us_per_req(&Round::baseline), "us"},
      {"profile_us_per_req", us_per_req(&Round::profile), "us"},
      {"merged_us_per_req", us_per_req(&Round::merged), "us"},
      {"optimize_s", OptimizeSeconds(rounds), "s"},
      {"reoptimize_s", ReoptimizeSeconds(rounds), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"baseline_goodput_rps", r.baseline.GoodputRps(), "req/s"},
      {"merged_goodput_rps", r.merged.GoodputRps(), "req/s"},
      {"baseline_p50_ms", r.baseline.PercentileMs(0.5), "ms"},
      {"merged_p50_ms", r.merged.PercentileMs(0.5), "ms"},
      {"merged_p99_ms", r.merged.PercentileMs(0.99), "ms"},
      {"usd_per_million_req", r.UsdPerMillion(), "USD"},
  };
}

std::vector<Metric> PerLayer(const std::vector<Round>& rounds) {
  const Round& r = rounds.front();
  std::vector<Metric> m;
  const std::pair<const char*, const PhaseResult Round::*> phases[] = {
      {"baseline", &Round::baseline}, {"profile", &Round::profile}, {"merged", &Round::merged}};
  for (const auto& [label, phase] : phases) {
    const PhaseResult& p = r.*phase;
    m.push_back({StrCat("sim.events_per_req.", label), PerReq(p.events, p), "count"});
    m.push_back({StrCat("sim.ns_per_event.", label),
                 PhaseSeconds(rounds, phase) * 1e9 / std::max<int64_t>(1, p.events), "ns"});
    m.push_back({StrCat("alloc.per_req.", label), PerReq(p.allocs, p), "count"});
  }
  m.push_back({"platform.pending_peak.baseline", static_cast<double>(r.baseline.pending_peak), "count"});
  m.push_back({"platform.remote_calls_per_req.baseline", PerReq(Sum(r.baseline.invocations), r.baseline), "count"});
  m.push_back({"platform.remote_calls_per_req.merged", PerReq(Sum(r.merged.invocations), r.merged), "count"});
  m.push_back({"platform.cold_starts.baseline", static_cast<double>(r.baseline.cold_starts), "count"});
  m.push_back({"platform.cold_starts.merged", static_cast<double>(r.merged.cold_starts), "count"});
  m.push_back({"platform.containers_created.baseline", static_cast<double>(r.baseline.containers_created), "count"});
  m.push_back({"platform.containers_created.merged", static_cast<double>(r.merged.containers_created), "count"});
  m.push_back({"tracing.spans", static_cast<double>(r.spans), "count"});
  m.push_back({"decide.ilp_solves", static_cast<double>(r.first.decision.ilp_solves), "count"});
  m.push_back({"decide.ilp_cache_hits", static_cast<double>(r.first.decision.ilp_cache_hits), "count"});
  m.push_back({"redecide.ilp_solves", static_cast<double>(r.second.decision.ilp_solves), "count"});
  m.push_back({"redecide.cache_hit_ratio",
               r.second.decision.ilp_solves > 0
                   ? static_cast<double>(r.second.decision.ilp_cache_hits) / r.second.decision.ilp_solves
                   : 0.0,
               "ratio"});
  m.push_back({"compile.fresh_ir_compiles",
               static_cast<double>(r.first.compile_after.frontend_compiles -
                                   r.first.compile_before.frontend_compiles),
               "count"});
  m.push_back({"compile.artifact_cache_hits",
               static_cast<double>(r.second.compile_after.artifact_hits -
                                   r.second.compile_before.artifact_hits),
               "count"});
  m.push_back({"compile.merged_groups", static_cast<double>(r.first.merged_groups), "count"});
  m.push_back({"billing.attempts_per_req", PerReq(r.billing_attempts, r.merged), "count"});
  for (const auto& [name, value] : r.layer_ms) {
    std::vector<double> per_round;
    for (const Round& x : rounds) {
      per_round.push_back(x.layer_ms.at(name));
    }
    m.push_back({name, Quantile(per_round, kPieceQuantile), "ms"});
  }
  return m;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n"
               "       %s --workload <name> --seed <n> --setup-only 1\n",
               argv0, argv0);
  return 2;
}

int Main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--trace") {
      trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--setup-only") {
      setup_only = std::strcmp(value, "1") == 0;
    } else {
      return Usage(argv[0]);
    }
  }
  if (workload.empty() || argc % 2 == 0) {
    return Usage(argv[0]);
  }
  g_count_allocs.store(trace, std::memory_order_relaxed);

  quilt::Result<Inputs> inputs = BuildInputs(workload, seed);
  if (!inputs.ok()) {
    std::fprintf(stderr, "inputs: %s\n", inputs.status().ToString().c_str());
    return 1;
  }

  if (setup_only) {
    Env env(inputs->workload);
    const Status registered = env.controller.RegisterWorkflow(inputs->workload.app);
    const double setup_s = SecondsSince(process_start);
    if (!registered.ok()) {
      std::fprintf(stderr, "setup: %s\n", registered.ToString().c_str());
      return 1;
    }
    std::printf("%.9g\n", setup_s);
    return 0;
  }

  SpanLog log(trace);
  std::vector<Round> rounds;
  const Clock::time_point measure_start = Clock::now();
  Clock::time_point setup_start = process_start;
  Status check;
  double longest_round_s = 0.0;
  // At least three rounds; another one only if it still ends within
  // --seconds, judged by the longest round so far.
  do {
    rounds.push_back(RunRound(*inputs, setup_start, log));
    longest_round_s = std::max(longest_round_s, SecondsSince(setup_start));
    const Round& last = rounds.back();
    std::fprintf(stderr,
                 "round %zu: %.2f s; us/req baseline %.2f profile %.2f merged %.2f; "
                 "optimize %.4f s, reoptimize %.4f s\n",
                 rounds.size(), SecondsSince(setup_start), UsPerReq(last.baseline),
                 UsPerReq(last.profile), UsPerReq(last.merged), last.first.host_s,
                 last.reoptimize_s);
    setup_start = Clock::now();
    check = rounds.back().check;
    if (check.ok() && (rounds.back().Simulated() != rounds.front().Simulated() ||
                       !SameWork(rounds.front(), rounds.back()))) {
      check = quilt::FailedPreconditionError(
          StrCat("round ", rounds.size(), " simulated different outcomes than round 1"));
    }
  } while (check.ok() &&
           (rounds.size() < 3 || SecondsSince(measure_start) + longest_round_s <= seconds));

  int64_t attempted = 0;
  int64_t failed = 0;
  for (const Round& r : rounds) {
    for (const PhaseResult* p : {&r.baseline, &r.profile, &r.merged}) {
      attempted += p->tally.offered;
      failed += p->tally.failed;
    }
  }
  if (!check.ok()) {
    std::fprintf(stderr, "CHECK FAILED in round %zu: %s\n", rounds.size(),
                 check.ToString().c_str());
  }
  if (!trace_out.empty() && trace) {
    std::ofstream(trace_out) << log.ToChromeJson();
  }

  const std::vector<Metric> metrics = check.ok() ? (trace ? PerLayer(rounds) : EndToEnd(rounds))
                                                 : std::vector<Metric>{};
  std::printf("workload %s  seed %llu  rounds %zu  attempted %lld  failed %lld\n",
              workload.c_str(), static_cast<unsigned long long>(seed), rounds.size(),
              static_cast<long long>(attempted), static_cast<long long>(failed));
  for (const Metric& m : metrics) {
    std::printf("  %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = StrCat("{\"correct\": ", check.ok() ? "true" : "false",
                            ", \"attempted\": ", attempted, ", \"failed\": ", failed,
                            ", \"metrics\": {");
  char buffer[512];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buffer;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return check.ok() ? 0 : 1;
}

}  // namespace
}  // namespace lifecycle

int main(int argc, char** argv) { return lifecycle::Main(argc, argv); }
