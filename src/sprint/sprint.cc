#include "sprint/sprint.h"

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

constexpr int64_t kEntryBytes = 20;  // 8 value + 4 class + 8 rid on disk

// Memory the (simulated) host grants SPRINT before attribute lists spill.
// It only caps the peak-memory accounting, as the paper notes SPRINT's
// swapping to disk bounds its resident set.
constexpr int64_t kMemoryCapBytes = 64ll * 1024 * 1024;

using NodeSegment = PresortedPartition::NodeSegment;

}  // namespace

BuildResult SprintBuilder::Build(const Dataset& train) {
  BuildResult result;
  ScanTracker tracker(&result.stats);
  Timer timer;

  const Schema& schema = train.schema();
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

  // --- Pre-sort phase: one scan builds an attribute list per attribute;
  // numeric lists are sorted once and the sorted order is preserved
  // forever. Every list is materialized, so it is charged as written.
  tracker.ChargeScan(train);
  std::vector<RecordId> rids(n);
  for (RecordId r = 0; r < n; ++r) rids[r] = r;
  ThreadPool pool(options_.base.num_threads);
  PresortedPartition partition(train, rids, &pool);
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    if (schema.is_numeric(a)) tracker.ChargeSort(n);
  }
  const int64_t record_bytes = schema.num_attrs() * kEntryBytes;
  tracker.ChargeWrite(n * record_bytes);

  // SPRINT's rid -> child hash table: 1 byte per record.
  const int64_t hash_bytes = n;

  std::vector<NodeSegment> level = {{root_id, 0, n}};
  int pass_index = 0;
  while (!level.empty()) {
    PassObservation po;
    po.pass = pass_index++;
    po.records_scanned = n;
    po.frontier_fresh = static_cast<int64_t>(level.size());
    const int64_t bytes_before = result.stats.bytes_read;
    Timer pass_timer;

    // Per-level accounting: every node's lists are re-read, and the lists
    // of each split node are re-written, partitioned.
    int64_t level_bytes = 0;
    for (const NodeSegment& seg : level) {
      level_bytes += (seg.hi - seg.lo) * record_bytes;
    }
    result.stats.dataset_scans += 1;
    result.stats.bytes_read += level_bytes;
    result.stats.records_read += n;
    tracker.NotePeakMemory(
        std::min(level_bytes + hash_bytes, kMemoryCapBytes));

    std::vector<NodeSegment> next;
    for (const NodeSegment& seg : level) {
      const TreeNode& node = result.tree.node(seg.node);
      const int64_t records = seg.hi - seg.lo;
      // A node that stops stays the leaf it was appended as.
      if (StopsBeforeSearch(node.class_counts, records, node.depth,
                            schema.num_attrs(), options_.base)) {
        continue;
      }
      // In-memory switch: small partitions are finished exactly without
      // further attribute-list traffic.
      if (options_.base.in_memory_threshold > 0 &&
          records <= options_.base.in_memory_threshold) {
        partition.Grow(seg.lo, seg.hi, seg.node, options_.base, &result.tree,
                       &tracker);
        continue;
      }
      // The presort paid for this node's sorted lists.
      const int64_t mid = partition.SplitNode(seg.lo, seg.hi, seg.node,
                                              options_.base, &result.tree,
                                              nullptr);
      if (mid < 0) continue;
      tracker.ChargeWrite(records * record_bytes);
      const TreeNode& parent = result.tree.node(seg.node);
      next.push_back({parent.left, seg.lo, mid});
      next.push_back({parent.right, mid, seg.hi});
    }
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
