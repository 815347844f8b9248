#include "sliq/sliq.h"

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

constexpr int64_t kEntryBytes = 16;  // value + rid on disk

using NodeSegment = PresortedPartition::NodeSegment;

}  // namespace

BuildResult SliqBuilder::Build(const Dataset& train) {
  BuildResult result;
  ScanTracker tracker(&result.stats);
  Timer timer;

  const Schema& schema = train.schema();
  const int64_t n = train.num_records();
  result.tree = DecisionTree(schema);

  TreeNode root;
  root.depth = 0;
  root.class_counts = train.ClassCounts();
  root.leaf_class = Majority(root.class_counts);
  const NodeId root_id = result.tree.AddNode(std::move(root));
  TrainObserver* const observer = options_.base.observer;
  if (observer != nullptr) observer->OnBuildStart(name(), n);
  if (n == 0) {
    result.stats.wall_seconds = timer.Seconds();
    if (observer != nullptr) observer->OnBuildEnd(result.stats);
    return result;
  }

  // ---- Pre-sort phase: one scan, one sorted (value, rid) list per
  // numeric attribute. Lists are written once and only ever re-read.
  tracker.ChargeScan(train);
  std::vector<RecordId> rids(n);
  for (RecordId r = 0; r < n; ++r) rids[r] = r;
  ThreadPool pool(options_.base.num_threads);
  PresortedPartition partition(train, rids, &pool);
  int64_t list_bytes = 0;
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    if (!schema.is_numeric(a)) continue;
    tracker.ChargeSort(n);
    list_bytes += n * kEntryBytes;
  }
  tracker.ChargeWrite(list_bytes);

  // ---- The memory-resident class list: rid -> current leaf.
  const int64_t class_list_bytes = n * static_cast<int64_t>(sizeof(NodeId));
  tracker.NotePeakMemory(list_bytes + class_list_bytes);

  std::vector<NodeSegment> level = {{root_id, 0, n}};
  int pass_index = 0;
  while (!level.empty()) {
    PassObservation po;
    po.pass = pass_index++;
    po.records_scanned = n;
    po.frontier_fresh = static_cast<int64_t>(level.size());
    const int64_t bytes_before = result.stats.bytes_read;
    Timer pass_timer;

    // Sort the level's leaves: those that stop stay the leaves they were
    // appended as, small ones are collected, the rest are searched.
    std::vector<NodeSegment> collect;
    std::vector<NodeSegment> search;
    for (const NodeSegment& seg : level) {
      const TreeNode& node = result.tree.node(seg.node);
      const int64_t records = seg.hi - seg.lo;
      if (StopsBeforeSearch(node.class_counts, records, node.depth,
                            schema.num_attrs(), options_.base)) {
        continue;
      }
      if (options_.base.in_memory_threshold > 0 &&
          records <= options_.base.in_memory_threshold) {
        collect.push_back(seg);
      } else {
        search.push_back(seg);
      }
    }

    // Small partitions are gathered with one sweep of the class list
    // (in memory, no disk charge) and finished exactly.
    if (!collect.empty()) {
      tracker.ChargeRecords(n, schema);
      for (const NodeSegment& seg : collect) {
        tracker.ChargeBuffered(seg.hi - seg.lo);
        partition.Grow(seg.lo, seg.hi, seg.node, options_.base, &result.tree,
                       &tracker);
      }
    }
    if (search.empty()) {
      // The collect sweep above was still a real pass; report it before
      // the frontier drains.
      po.frontier_collect = static_cast<int64_t>(collect.size());
      po.scan_seconds = pass_timer.Seconds();
      po.bytes_read = result.stats.bytes_read - bytes_before;
      po.tree_nodes = result.tree.num_nodes();
      if (observer != nullptr) observer->OnPass(po);
      break;
    }

    // ---- One pass over every numeric attribute list evaluates all
    // searched leaves at once; the presort paid for their sorted lists.
    result.stats.dataset_scans += 1;
    for (AttrId a = 0; a < schema.num_attrs(); ++a) {
      if (schema.is_numeric(a)) tracker.ChargeRecords(n, schema);
    }
    std::vector<NodeSegment> next;
    for (const NodeSegment& seg : search) {
      const int64_t mid = partition.SplitNode(seg.lo, seg.hi, seg.node,
                                              options_.base, &result.tree,
                                              nullptr);
      if (mid < 0) continue;
      const TreeNode& parent = result.tree.node(seg.node);
      next.push_back({parent.left, seg.lo, mid});
      next.push_back({parent.right, mid, seg.hi});
    }
    // Splitting rewrites the class list in one in-memory sweep.
    if (!next.empty()) tracker.ChargeWrite(class_list_bytes);
    level = std::move(next);

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
