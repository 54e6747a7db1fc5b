// Shows each lifecycle output check accepting a correct input and rejecting
// a deliberately corrupted one. Exits non-zero on the first surprise; the
// benchmark's run.py runs it after every build.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "checks.h"
#include "src/apps/deathstarbench.h"

namespace {

using lifecycle::RequestTally;
using quilt::CallGraph;
using quilt::MergeGroup;
using quilt::MergeSolution;
using quilt::NodeId;

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}
void Accepts(const quilt::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "FAIL: %s rejected a correct input: %s\n", what, s.ToString().c_str());
    ++failures;
  }
}
void Rejects(const quilt::Status& s, const char* what) {
  if (s.ok()) {
    std::fprintf(stderr, "FAIL: %s accepted a corrupted input\n", what);
    ++failures;
  }
}

// Every function its own group; cross cost = every edge's weight.
MergeSolution Singletons(const CallGraph& graph) {
  MergeSolution plan;
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    plan.groups.push_back({id, {id}});
  }
  for (const quilt::CallEdge& edge : graph.edges()) {
    plan.cross_cost += edge.weight;
  }
  return plan;
}

// The root with its direct callees merged in, the rest singletons.
MergeSolution RootWithChildren(const CallGraph& graph) {
  MergeSolution plan;
  MergeGroup top{graph.root(), {graph.root()}};
  std::vector<bool> in_top(graph.num_nodes(), false);
  in_top[graph.root()] = true;
  for (quilt::EdgeId e : graph.OutEdges(graph.root())) {
    top.members.push_back(graph.edge(e).to);
    in_top[graph.edge(e).to] = true;
  }
  plan.groups.push_back(top);
  for (NodeId id = 0; id < graph.num_nodes(); ++id) {
    if (!in_top[id]) {
      plan.groups.push_back({id, {id}});
    }
  }
  for (const quilt::CallEdge& edge : graph.edges()) {
    plan.cross_cost += in_top[edge.from] && in_top[edge.to] ? 0.0 : edge.weight;
  }
  return plan;
}

void TestRequestAccounting() {
  const RequestTally good{100, 100, 0, 0, 0};
  Accepts(lifecycle::CheckRequestAccounting(good), "request accounting");
  RequestTally lost = good;
  lost.completed = 99;
  Rejects(lifecycle::CheckRequestAccounting(lost), "request accounting (a request lost)");
  Rejects(lifecycle::CheckRequestAccounting({100, 99, 1, 0, 0}),
          "request accounting (a request failed)");
  Rejects(lifecycle::CheckRequestAccounting({100, 99, 0, 1, 0}),
          "request accounting (a request left in flight)");
  Rejects(lifecycle::CheckRequestAccounting({100, 100, 0, 0, 1}),
          "request accounting (a request answered twice)");
}

void TestBaselineInvocations() {
  const quilt::WorkflowApp app = quilt::ComposeReview(/*async_fanout=*/true);
  quilt::Result<std::map<std::string, int64_t>> per_request = lifecycle::CallsPerRequest(app);
  Expect(per_request.ok(), "CallsPerRequest on compose-review");
  if (!per_request.ok()) {
    return;
  }
  Expect(per_request->at("compose-review") == 1, "the root runs once per request");
  Expect(per_request->at("compose-and-upload-mr") == 3,
         "compose-and-upload runs once per calling uploader");
  std::map<std::string, int64_t> observed;
  for (const auto& [handle, count] : *per_request) {
    observed[handle] = count * 50;
  }
  Accepts(lifecycle::CheckInvocationCounts(*per_request, 50, observed), "invocation counts");
  observed["compose-and-upload-mr"] -= 1;
  Rejects(lifecycle::CheckInvocationCounts(*per_request, 50, observed),
          "invocation counts (one invocation missing)");
  observed["compose-and-upload-mr"] += 1;
  observed["stray-function"] = 1;
  Rejects(lifecycle::CheckInvocationCounts(*per_request, 50, observed),
          "invocation counts (an unexpected handle invoked)");
}

void TestLatencyLowerBound() {
  const quilt::WorkflowApp app = quilt::ComposePost(/*async_fanout=*/false);
  quilt::Result<quilt::SimDuration> path = lifecycle::CriticalPath(app);
  Expect(path.ok() && *path > 0, "CriticalPath on compose-post");
  if (!path.ok()) {
    return;
  }
  // compose-post sync: every call is sequential, so the path is the sum of
  // every function's compute and fake-DB time.
  double total_ms = 0.0;
  for (const quilt::AppFunctionSpec& fn : app.functions) {
    for (const quilt::BehaviorStep& step : fn.steps) {
      if (const auto* c = std::get_if<quilt::ComputeStep>(&step)) {
        total_ms += c->cpu_ms;
      } else if (const auto* s = std::get_if<quilt::SleepStep>(&step)) {
        total_ms += s->latency_ms;
      }
    }
  }
  Expect(std::llabs(*path - quilt::Milliseconds(total_ms)) <= 11,
         "sync critical path sums every step");
  Accepts(lifecycle::CheckLatencyLowerBound({*path, *path + 5}, *path), "latency lower bound");
  Rejects(lifecycle::CheckLatencyLowerBound({*path + 5, *path - 1}, *path),
          "latency lower bound (a request faster than possible)");
}

void TestPlanChecks() {
  const quilt::WorkflowApp app = quilt::ComposePost(/*async_fanout=*/false);
  quilt::Result<CallGraph> graph = app.ReferenceGraph();
  Expect(graph.ok(), "compose-post reference graph");
  if (!graph.ok()) {
    return;
  }
  const double cpu = 2.0;
  const double mem = 128.0;
  const MergeSolution singles = Singletons(*graph);
  const MergeSolution merged = RootWithChildren(*graph);
  Accepts(lifecycle::CheckPlanValid(*graph, singles, cpu, mem), "plan validity (singletons)");
  Accepts(lifecycle::CheckPlanValid(*graph, merged, cpu, mem), "plan validity (merged top)");
  Accepts(lifecycle::CheckPlanCost(*graph, singles), "plan cost (singletons)");
  Accepts(lifecycle::CheckPlanCost(*graph, merged), "plan cost (merged top)");

  MergeSolution bad = singles;
  bad.groups.erase(bad.groups.begin() + graph->root());
  Rejects(lifecycle::CheckPlanValid(*graph, bad, cpu, mem), "plan validity (root not a group root)");

  bad = singles;
  bad.groups.push_back(bad.groups.back());
  Rejects(lifecycle::CheckPlanValid(*graph, bad, cpu, mem), "plan validity (duplicate group root)");

  bad = merged;
  bad.groups.pop_back();
  Rejects(lifecycle::CheckPlanValid(*graph, bad, cpu, mem), "plan validity (a function uncovered)");

  // A leaf two calls below the root, added to the root's own group.
  bad = singles;
  bad.groups[graph->root()].members.push_back(graph->FindNode("social-graph"));
  Rejects(lifecycle::CheckPlanValid(*graph, bad, cpu, mem), "plan validity (disconnected group)");

  // url-shorten merged into text-service's group only, while the root's
  // group also holds text-service: its call to url-shorten is cut there and
  // lands on a function that roots no group.
  const NodeId text = graph->FindNode("text-service");
  const NodeId url = graph->FindNode("url-shorten");
  bad = singles;
  bad.groups[graph->root()].members.push_back(text);
  bad.groups[text].members.push_back(url);
  bad.groups.erase(bad.groups.begin() + url);
  Rejects(lifecycle::CheckPlanValid(*graph, bad, cpu, mem),
          "plan validity (cut edge into a non-root)");

  Rejects(lifecycle::CheckPlanValid(*graph, merged, cpu, 1.0), "plan validity (over the limits)");

  bad = merged;
  bad.cross_cost += 1.0;
  Rejects(lifecycle::CheckPlanCost(*graph, bad), "plan cost (misreported)");

  Accepts(lifecycle::CheckSamePlan(*graph, merged, *graph, merged), "same plan");
  Rejects(lifecycle::CheckSamePlan(*graph, merged, *graph, singles), "same plan (other groups)");
  Rejects(lifecycle::CheckSamePlan(*graph, merged, *graph, bad), "same plan (other cost)");

  // Remote calls: singletons invoke every function remotely as often as
  // the spec calls it; the merged top group keeps its direct calls local.
  quilt::Result<std::map<std::string, int64_t>> per_request = lifecycle::CallsPerRequest(app);
  quilt::Result<std::map<std::string, int64_t>> remote_singles =
      lifecycle::MergedRemoteCallsPerRequest(app, *graph, singles);
  quilt::Result<std::map<std::string, int64_t>> remote_merged =
      lifecycle::MergedRemoteCallsPerRequest(app, *graph, merged);
  Expect(per_request.ok() && remote_singles.ok() && remote_merged.ok(), "remote call counts");
  if (remote_singles.ok() && remote_merged.ok()) {
    Expect(*remote_singles == *per_request, "singletons call everything remotely");
    Expect(remote_merged->at("compose-post") == 1 && remote_merged->at("text-service") == 0 &&
               remote_merged->at("url-shorten") == 1 && remote_merged->at("social-graph") == 1,
           "the merged top group keeps its direct calls local");
    std::map<std::string, int64_t> observed = *remote_merged;
    Accepts(lifecycle::CheckInvocationCounts(*remote_merged, 1, observed), "merged remote calls");
    observed["text-service"] = 1;
    Rejects(lifecycle::CheckInvocationCounts(*remote_merged, 1, observed),
            "merged remote calls (a localized call went remote)");
  }
}

}  // namespace

int main() {
  TestRequestAccounting();
  TestBaselineInvocations();
  TestLatencyLowerBound();
  TestPlanChecks();
  if (failures > 0) {
    std::fprintf(stderr, "%d check test(s) failed\n", failures);
    return 1;
  }
  std::printf("checks_test: every check accepts correct input and rejects corrupted input\n");
  return 0;
}
