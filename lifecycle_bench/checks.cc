#include "checks.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <variant>

#include "src/common/strings.h"

namespace lifecycle {

namespace {

using quilt::CallGraph;
using quilt::MergeSolution;
using quilt::NodeId;
using quilt::Status;
using quilt::StrCat;
using quilt::WorkflowApp;

Status Fail(std::string message) { return quilt::FailedPreconditionError(std::move(message)); }

// Calls each function makes per invocation, callee -> count, from its steps.
using CallCounts = std::map<std::string, std::map<std::string, int64_t>>;

quilt::Result<CallCounts> SpecCalls(const WorkflowApp& app) {
  CallCounts calls;
  for (const quilt::AppFunctionSpec& fn : app.functions) {
    std::map<std::string, int64_t>& out = calls[fn.handle];
    for (const quilt::BehaviorStep& step : fn.steps) {
      const auto* call = std::get_if<quilt::CallStep>(&step);
      if (call == nullptr) {
        continue;
      }
      for (const quilt::CallItem& item : call->items) {
        if (item.data_dependent) {
          return Fail(StrCat(fn.handle, " -> ", item.callee,
                             ": a payload-dependent call count has no static path count"));
        }
        if (app.Find(item.callee) == nullptr) {
          return Fail(StrCat(fn.handle, " calls unknown function ", item.callee));
        }
        out[item.callee] += item.count;
      }
    }
  }
  return calls;
}

// Spec functions in an order where every caller precedes its callees.
quilt::Result<std::vector<std::string>> TopologicalOrder(const CallCounts& calls) {
  std::map<std::string, int> in_degree;
  for (const auto& [caller, out] : calls) {
    in_degree.try_emplace(caller, 0);
    for (const auto& [callee, count] : out) {
      ++in_degree[callee];
    }
  }
  std::vector<std::string> order;
  for (const auto& [handle, degree] : in_degree) {
    if (degree == 0) {
      order.push_back(handle);
    }
  }
  for (size_t i = 0; i < order.size(); ++i) {
    for (const auto& [callee, count] : calls.at(order[i])) {
      if (--in_degree[callee] == 0) {
        order.push_back(callee);
      }
    }
  }
  if (order.size() != in_degree.size()) {
    return Fail("the workflow's calls form a cycle");
  }
  return order;
}

// The spec's calls plus its functions in caller-before-callee order.
struct SpecGraph {
  CallCounts calls;
  std::vector<std::string> order;
};

quilt::Result<SpecGraph> BuildSpecGraph(const WorkflowApp& app) {
  quilt::Result<CallCounts> calls = SpecCalls(app);
  if (!calls.ok()) {
    return calls.status();
  }
  quilt::Result<std::vector<std::string>> order = TopologicalOrder(*calls);
  if (!order.ok()) {
    return order.status();
  }
  return SpecGraph{std::move(*calls), std::move(*order)};
}

quilt::Result<quilt::SimDuration> PathOf(const WorkflowApp& app, const std::string& handle,
                                         std::map<std::string, quilt::SimDuration>& memo) {
  if (auto it = memo.find(handle); it != memo.end()) {
    return it->second;
  }
  const quilt::AppFunctionSpec* fn = app.Find(handle);
  if (fn == nullptr) {
    return Fail(StrCat("unknown function ", handle));
  }
  quilt::SimDuration total = 0;
  for (const quilt::BehaviorStep& step : fn->steps) {
    if (const auto* compute = std::get_if<quilt::ComputeStep>(&step)) {
      total += quilt::Milliseconds(compute->cpu_ms);
    } else if (const auto* sleep = std::get_if<quilt::SleepStep>(&step)) {
      total += quilt::Milliseconds(sleep->latency_ms);
    } else if (const auto* call = std::get_if<quilt::CallStep>(&step)) {
      quilt::SimDuration slowest = 0;
      for (const quilt::CallItem& item : call->items) {
        quilt::Result<quilt::SimDuration> callee = PathOf(app, item.callee, memo);
        if (!callee.ok()) {
          return callee.status();
        }
        if (call->parallel) {
          slowest = item.count > 0 ? std::max(slowest, *callee) : slowest;
        } else {
          total += item.count * *callee;
        }
      }
      total += slowest;
    }
  }
  memo[handle] = total;
  return total;
}

std::vector<std::string> MemberNames(const CallGraph& graph, const quilt::MergeGroup& group) {
  std::vector<std::string> names;
  for (NodeId id : group.members) {
    names.push_back(graph.node(id).name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

quilt::Result<std::map<std::string, int64_t>> CallsPerRequest(const WorkflowApp& app) {
  quilt::Result<SpecGraph> spec = BuildSpecGraph(app);
  if (!spec.ok()) {
    return spec.status();
  }
  std::map<std::string, int64_t> per_request;
  for (const quilt::AppFunctionSpec& fn : app.functions) {
    per_request[fn.handle] = 0;
  }
  per_request[app.root_handle] = 1;
  for (const std::string& caller : spec->order) {
    for (const auto& [callee, count] : spec->calls.at(caller)) {
      per_request[callee] += per_request[caller] * count;
    }
  }
  return per_request;
}

quilt::Result<quilt::SimDuration> CriticalPath(const WorkflowApp& app) {
  std::map<std::string, quilt::SimDuration> memo;
  return PathOf(app, app.root_handle, memo);
}

quilt::Result<std::map<std::string, int64_t>> MergedRemoteCallsPerRequest(
    const WorkflowApp& app, const CallGraph& graph, const MergeSolution& solution) {
  quilt::Result<SpecGraph> spec = BuildSpecGraph(app);
  if (!spec.ok()) {
    return spec.status();
  }
  const std::vector<std::string>& order = spec->order;
  std::map<std::string, int> rank;
  for (size_t i = 0; i < order.size(); ++i) {
    rank[order[i]] = static_cast<int>(i);
  }
  // Groups by their root's rank: every remote call into a root comes from a
  // group whose own root precedes it, so its count is final when reached.
  std::map<int, const quilt::MergeGroup*> by_root;
  for (const quilt::MergeGroup& group : solution.groups) {
    const std::string& root = graph.node(group.root).name;
    if (!rank.count(root)) {
      return Fail(StrCat("group root ", root, " is not a function of the workflow"));
    }
    by_root[rank[root]] = &group;
  }
  std::map<std::string, int64_t> remote;
  for (const quilt::AppFunctionSpec& fn : app.functions) {
    remote[fn.handle] = 0;
  }
  remote[app.root_handle] = 1;
  for (const auto& [root_rank, group] : by_root) {
    std::set<std::string> members;
    for (NodeId id : group->members) {
      members.insert(graph.node(id).name);
    }
    // Invocations of each member inside this group's process, per request.
    std::map<std::string, int64_t> local;
    local[order[root_rank]] = remote[order[root_rank]];
    for (size_t i = root_rank; i < order.size(); ++i) {
      const std::string& caller = order[i];
      if (!members.count(caller) || local[caller] == 0) {
        continue;
      }
      for (const auto& [callee, count] : spec->calls.at(caller)) {
        (members.count(callee) ? local[callee] : remote[callee]) += local[caller] * count;
      }
    }
  }
  return remote;
}

Status CheckRequestAccounting(const RequestTally& tally) {
  if (tally.completed + tally.failed + tally.in_flight != tally.offered) {
    return Fail(StrCat("offered ", tally.offered, " != completed ", tally.completed,
                       " + failed ", tally.failed, " + in flight ", tally.in_flight));
  }
  if (tally.answered_twice != 0) {
    return Fail(StrCat(tally.answered_twice, " requests were answered twice"));
  }
  if (tally.failed != 0 || tally.in_flight != 0) {
    return Fail(StrCat(tally.failed, " requests failed and ", tally.in_flight,
                       " are still in flight"));
  }
  return Status::Ok();
}

Status CheckInvocationCounts(const std::map<std::string, int64_t>& per_request, int64_t requests,
                             const std::map<std::string, int64_t>& observed) {
  std::set<std::string> handles;
  for (const auto& [handle, count] : per_request) {
    handles.insert(handle);
  }
  for (const auto& [handle, count] : observed) {
    handles.insert(handle);
  }
  for (const std::string& handle : handles) {
    const auto want_it = per_request.find(handle);
    const auto got_it = observed.find(handle);
    const int64_t want = (want_it == per_request.end() ? 0 : want_it->second) * requests;
    const int64_t got = got_it == observed.end() ? 0 : got_it->second;
    if (want != got) {
      return Fail(StrCat(handle, ": ", got, " invocations, expected ", want));
    }
  }
  return Status::Ok();
}

Status CheckLatencyLowerBound(const std::vector<quilt::SimDuration>& latencies,
                              quilt::SimDuration critical_path) {
  for (quilt::SimDuration latency : latencies) {
    if (latency < critical_path) {
      return Fail(StrCat("a request took ", latency, " ns, below the critical path of ",
                         critical_path, " ns"));
    }
  }
  return Status::Ok();
}

Status CheckPlanValid(const CallGraph& graph, const MergeSolution& solution, double cpu_limit,
                      double memory_limit) {
  constexpr double kSlack = 1e-9;
  const int n = graph.num_nodes();
  std::vector<int> root_of(n, 0);  // How many groups each node roots.
  std::vector<bool> covered(n, false);
  for (const quilt::MergeGroup& group : solution.groups) {
    if (group.root < 0 || group.root >= n) {
      return Fail(StrCat("group root id ", group.root, " is out of range"));
    }
    ++root_of[group.root];
    for (NodeId id : group.members) {
      if (id < 0 || id >= n) {
        return Fail(StrCat("member id ", id, " is out of range"));
      }
      covered[id] = true;
    }
  }
  if (graph.root() < 0 || graph.root() >= n || root_of[graph.root()] == 0) {
    return Fail("the workflow root is not a group root");
  }
  for (NodeId id = 0; id < n; ++id) {
    if (root_of[id] > 1) {
      return Fail(StrCat(graph.node(id).name, " roots ", root_of[id], " groups"));
    }
    if (!covered[id]) {
      return Fail(StrCat(graph.node(id).name, " is in no group"));
    }
  }
  for (const quilt::MergeGroup& group : solution.groups) {
    std::vector<bool> in_group(n, false);
    for (NodeId id : group.members) {
      in_group[id] = true;
    }
    const std::string& root_name = graph.node(group.root).name;
    if (!in_group[group.root]) {
      return Fail(StrCat("group ", root_name, " does not contain its root"));
    }
    // Connected: every member is reachable from the root over group edges.
    std::vector<bool> reached(n, false);
    std::vector<NodeId> stack = {group.root};
    reached[group.root] = true;
    double cpu = graph.node(group.root).cpu;
    double memory = graph.node(group.root).memory;
    for (const quilt::CallEdge& edge : graph.edges()) {
      if (in_group[edge.from] && in_group[edge.to]) {
        cpu += edge.alpha * graph.node(edge.to).cpu;
        memory += graph.node(edge.to).memory;
        if (edge.type == quilt::CallType::kAsync) {
          memory += (edge.alpha - 1) * graph.node(edge.to).memory;
        }
      } else if (in_group[edge.from] && root_of[edge.to] == 0) {
        return Fail(StrCat("cut edge ", graph.node(edge.from).name, " -> ",
                           graph.node(edge.to).name, " does not target a group root"));
      }
    }
    while (!stack.empty()) {
      const NodeId at = stack.back();
      stack.pop_back();
      for (quilt::EdgeId e : graph.OutEdges(at)) {
        const NodeId to = graph.edge(e).to;
        if (in_group[to] && !reached[to]) {
          reached[to] = true;
          stack.push_back(to);
        }
      }
    }
    for (NodeId id : group.members) {
      if (!reached[id]) {
        return Fail(StrCat("group ", root_name, ": ", graph.node(id).name,
                           " is not reachable from the root"));
      }
    }
    if (cpu > cpu_limit + kSlack || memory > memory_limit + kSlack) {
      return Fail(StrCat("group ", root_name, " needs ", cpu, " vCPU and ", memory,
                         " MB, over the limits ", cpu_limit, " vCPU and ", memory_limit, " MB"));
    }
  }
  return Status::Ok();
}

Status CheckPlanCost(const CallGraph& graph, const MergeSolution& solution) {
  double cut = 0.0;
  for (const quilt::CallEdge& edge : graph.edges()) {
    const bool is_cut = std::any_of(
        solution.groups.begin(), solution.groups.end(), [&](const quilt::MergeGroup& group) {
          const auto has = [&](NodeId id) {
            return std::find(group.members.begin(), group.members.end(), id) !=
                   group.members.end();
          };
          return has(edge.from) && !has(edge.to);
        });
    cut += is_cut ? edge.weight : 0.0;
  }
  if (std::abs(cut - solution.cross_cost) > 1e-6 * std::max(1.0, std::abs(cut))) {
    return Fail(StrCat("the plan reports cross cost ", solution.cross_cost,
                       " but its cut edges weigh ", cut));
  }
  return Status::Ok();
}

Status CheckSamePlan(const CallGraph& graph_a, const MergeSolution& a, const CallGraph& graph_b,
                     const MergeSolution& b) {
  auto shape = [](const CallGraph& graph, const MergeSolution& solution) {
    std::map<std::string, std::vector<std::string>> groups;
    for (const quilt::MergeGroup& group : solution.groups) {
      groups[graph.node(group.root).name] = MemberNames(graph, group);
    }
    return groups;
  };
  if (shape(graph_a, a) != shape(graph_b, b)) {
    return Fail("re-optimizing the unchanged profile produced different groups");
  }
  if (a.cross_cost != b.cross_cost) {
    return Fail(StrCat("re-optimizing changed the plan cost from ", a.cross_cost, " to ",
                       b.cross_cost));
  }
  return Status::Ok();
}

}  // namespace lifecycle
