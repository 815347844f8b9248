#include "cmp/scan_pass.h"

#include <algorithm>
#include <utility>

namespace cmp {

namespace {

int AddSink(ScanPlan* plan, ScanSink sink) {
  plan->sinks.push_back(std::move(sink));
  return static_cast<int>(plan->sinks.size()) - 1;
}

// Flattens pending `p` (and its nested pendings) into `plan`. `chain`
// holds the count arrays of the segments enclosing `p`: every record
// routed below `p` increments them.
int AddPendingRoute(ScanPlan* plan, Pending* p,
                    const std::vector<int64_t*>& chain) {
  ScanSink buffer;
  buffer.buffer = p;
  buffer.chain = chain;
  const int index = static_cast<int>(plan->pendings.size());
  const int first = static_cast<int>(plan->segments.size());
  plan->segments.resize(first + p->segments.size());
  plan->pendings.push_back(
      {p->attr, &p->alive, AddSink(plan, std::move(buffer)), first});
  for (size_t k = 0; k < p->segments.size(); ++k) {
    Segment& seg = p->segments[k];
    std::vector<int64_t*> seg_chain = chain;
    seg_chain.push_back(seg.counts.data());
    SegmentRoute route;
    route.plan = seg.plan;
    switch (seg.plan) {
      case PlanKind::kGrow:
        route.sink = AddSink(
            plan, {seg.bundle_fresh ? &seg.bundle : nullptr, seg_chain});
        break;
      case PlanKind::kPending:
        route.sub = AddPendingRoute(plan, seg.sub.get(), seg_chain);
        break;
      case PlanKind::kExact: {
        route.split = &seg.exact_split;
        std::vector<int64_t*> left = seg_chain;
        left.push_back(seg.exact_left_counts.data());
        route.left = AddSink(plan, {&seg.exact_left, std::move(left)});
        seg_chain.push_back(seg.exact_right_counts.data());
        route.right = AddSink(plan, {&seg.exact_right, std::move(seg_chain)});
        break;
      }
    }
    plan->segments[first + k] = route;
  }
  return index;
}

}  // namespace

ScanPlan BuildScanPlan(int num_nodes, FrontierQueues& work) {
  ScanPlan plan;
  plan.nodes.assign(num_nodes, NodeRoute{});
  // Each work node's sinks are added together, so they form its slot.
  auto open_slot = [&plan](NodeId node) {
    plan.slot_node.push_back(node);
    plan.slot_begin.push_back(static_cast<int>(plan.sinks.size()));
  };
  for (FreshWork& w : work.fresh) {
    open_slot(w.node);
    plan.nodes[w.node].sink = AddSink(&plan, {&w.bundle, {}});
  }
  for (PendingWork& w : work.pending) {
    open_slot(w.node);
    plan.nodes[w.node].pending = AddPendingRoute(&plan, w.pending.get(), {});
  }
  for (CollectWork& w : work.collect) {
    open_slot(w.node);
    ScanSink sink;
    sink.collect = &w.rids;
    plan.nodes[w.node].sink = AddSink(&plan, std::move(sink));
  }
  plan.slot_begin.push_back(static_cast<int>(plan.sinks.size()));
  plan.sink_slot.resize(plan.sinks.size());
  for (size_t k = 0; k < plan.slot_node.size(); ++k) {
    std::fill(plan.sink_slot.begin() + plan.slot_begin[k],
              plan.sink_slot.begin() + plan.slot_begin[k + 1],
              static_cast<int>(k));
  }
  return plan;
}

}  // namespace cmp
