#include "rainforest/rainforest.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/class_counts.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "exact/exact.h"
#include "io/scan.h"
#include "pruning/mdl.h"
#include "tree/observer.h"

namespace cmp {

namespace {

using NodeSegment = PresortedPartition::NodeSegment;

}  // namespace

BuildResult RainForestBuilder::Build(const Dataset& train) {
  BuildResult result;
  ScanTracker tracker(&result.stats);
  Timer timer;

  const Schema& schema = train.schema();
  const int num_attrs = schema.num_attrs();
  const int64_t n = train.num_records();
  result.tree = DecisionTree(schema);
  TrainObserver* const observer = options_.base.observer;
  if (observer != nullptr) observer->OnBuildStart(name(), n);

  TreeNode root;
  root.depth = 0;
  root.class_counts = train.ClassCounts();
  root.leaf_class = Majority(root.class_counts);
  const NodeId root_id = result.tree.AddNode(std::move(root));
  if (n == 0) {
    result.stats.wall_seconds = timer.Seconds();
    if (observer != nullptr) observer->OnBuildEnd(result.stats);
    return result;
  }

  // RF-Hybrid's in-memory switch: a partition whose records fit in the
  // AVC buffer is finished without further scans. Conservatively, a
  // partition of m records needs at most m entries per attribute.
  const int64_t rf_threshold =
      std::max(options_.base.in_memory_threshold,
               options_.avc_buffer_entries / std::max(1, num_attrs));
  // The fixed buffer is allocated up front: this is RainForest's memory
  // footprint (2.5M entries * 4-byte counters * classes ~= 20 MB for two
  // classes, Figure 19).
  tracker.NotePeakMemory(options_.avc_buffer_entries * 4 *
                         schema.num_classes());

  std::vector<RecordId> rids(n);
  for (RecordId r = 0; r < n; ++r) rids[r] = r;
  ThreadPool pool(options_.base.num_threads);
  PresortedPartition partition(train, rids, &pool);

  // Nodes over the switch are split a level at a time from their
  // AVC-groups; the others are collected and finished whole.
  std::vector<NodeSegment> active;
  std::vector<NodeSegment> collect;
  (n <= rf_threshold ? collect : active).push_back({root_id, 0, n});

  int pass_index = 0;
  while (!active.empty() || !collect.empty()) {
    PassObservation po;
    po.pass = pass_index++;
    po.records_scanned = n;
    po.frontier_fresh = static_cast<int64_t>(active.size());
    po.frontier_collect = static_cast<int64_t>(collect.size());
    const int64_t bytes_before = result.stats.bytes_read;
    Timer pass_timer;

    // One scan per batch of active nodes whose AVC-groups fit the buffer
    // together (entry upper bound: records per attribute), packed
    // greedily in order. A pass with only collected nodes still scans
    // once to gather them.
    int64_t batches = 1;
    int64_t batch_entries = 0;
    for (size_t i = 0; i < active.size(); ++i) {
      const int64_t entries = (active[i].hi - active[i].lo) * num_attrs;
      if (i > 0 && batch_entries + entries > options_.avc_buffer_entries) {
        ++batches;
        batch_entries = 0;
      }
      batch_entries += entries;
    }
    for (int64_t b = 0; b < batches; ++b) tracker.ChargeScan(train);

    for (const NodeSegment& seg : collect) {
      tracker.ChargeBuffered(seg.hi - seg.lo);
      partition.Grow(seg.lo, seg.hi, seg.node, options_.base, &result.tree,
                     &tracker);
    }
    collect.clear();

    // The AVC-groups hold every distinct value, so each split is exact;
    // it is found on the node's presorted lists, which charge no sort.
    std::vector<NodeSegment> next;
    for (const NodeSegment& seg : active) {
      const TreeNode& node = result.tree.node(seg.node);
      // A node that stops stays the leaf it was appended as.
      if (StopsBeforeSearch(node.class_counts, seg.hi - seg.lo, node.depth,
                            num_attrs, options_.base)) {
        continue;
      }
      const int64_t mid = partition.SplitNode(seg.lo, seg.hi, seg.node,
                                              options_.base, &result.tree,
                                              nullptr);
      if (mid < 0) continue;
      const TreeNode& parent = result.tree.node(seg.node);
      for (const NodeSegment child : {NodeSegment{parent.left, seg.lo, mid},
                                      NodeSegment{parent.right, mid, seg.hi}}) {
        (child.hi - child.lo <= rf_threshold ? collect : next).push_back(child);
      }
    }
    active = std::move(next);

    po.scan_seconds = pass_timer.Seconds();
    po.bytes_read = result.stats.bytes_read - bytes_before;
    po.tree_nodes = result.tree.num_nodes();
    if (observer != nullptr) observer->OnPass(po);
  }

  if (options_.base.prune) PruneTreeMdl(&result.tree);
  result.stats.tree_nodes = result.tree.num_nodes();
  result.stats.tree_depth = result.tree.Depth();
  result.stats.wall_seconds = timer.Seconds();
  if (observer != nullptr) observer->OnBuildEnd(result.stats);
  return result;
}

}  // namespace cmp
