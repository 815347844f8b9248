#include "rainforest/rainforest.h"

#include <algorithm>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/class_counts.h"
#include "common/timer.h"
#include "exact/exact.h"
#include "gini/categorical.h"
#include "gini/gini.h"
#include "hist/histogram1d.h"
#include "io/scan.h"
#include "pruning/mdl.h"
#include "tree/observer.h"

namespace cmp {

namespace {

// AVC-set of one attribute at one node: distinct value -> class counts.
// std::map keeps values ordered so the numeric split scan is a single
// in-order walk, matching how AVC-sets are consumed.
using AvcSet = std::map<double, std::vector<int64_t>>;

// Per-active-node construction state.
struct RfNode {
  NodeId node = kInvalidNode;
  int depth = 0;
  int64_t records = 0;
  std::vector<AvcSet> avc;  // one per attribute

  int64_t Entries() const {
    int64_t entries = 0;
    for (const AvcSet& s : avc) entries += static_cast<int64_t>(s.size());
    return entries;
  }
};

// Exact best split from a node's AVC-group.
ExactSplit BestSplitFromAvc(const RfNode& node, const Schema& schema,
                            const std::vector<int64_t>& totals,
                            std::vector<int64_t>* best_left_counts) {
  ExactSplit best;
  best.gini = std::numeric_limits<double>::infinity();
  const int nc = static_cast<int>(totals.size());
  int64_t n = 0;
  for (int64_t t : totals) n += t;
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    const AvcSet& avc = node.avc[a];
    if (schema.is_numeric(a)) {
      std::vector<int64_t> below(nc, 0);
      int64_t below_n = 0;
      for (const auto& [value, counts] : avc) {
        for (int c = 0; c < nc; ++c) {
          below[c] += counts[c];
          below_n += counts[c];
        }
        if (below_n == n) break;  // last distinct value: no split there
        const double g = BoundaryGini(below, totals);
        if (g < best.gini) {
          best.gini = g;
          best.split = Split::Numeric(a, value);
          best.valid = true;
          *best_left_counts = below;
        }
      }
    } else {
      const int card = schema.attr(a).cardinality;
      Histogram1D hist(card, nc);
      for (const auto& [value, counts] : avc) {
        for (int c = 0; c < nc; ++c) {
          hist.Add(static_cast<int>(value), c, counts[c]);
        }
      }
      const CategoricalSplit cs = BestCategoricalSplit(hist);
      if (cs.valid && cs.gini < best.gini) {
        best.gini = cs.gini;
        best.split = Split::Categorical(a, cs.left_subset);
        best.valid = true;
        best_left_counts->assign(nc, 0);
        for (int v = 0; v < card; ++v) {
          if (cs.left_subset[v] != 0) {
            for (ClassId c = 0; c < nc; ++c) {
              (*best_left_counts)[c] += hist.count(v, c);
            }
          }
        }
      }
    }
  }
  return best;
}

}  // namespace

BuildResult RainForestBuilder::Build(const Dataset& train) {
  BuildResult result;
  ScanTracker tracker(&result.stats);
  Timer timer;

  const Schema& schema = train.schema();
  const int nc = schema.num_classes();
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

  // RF-Hybrid's in-memory switch: a partition whose records fit in the
  // AVC buffer is finished without further scans. Conservatively, a
  // partition of m records needs at most m entries per attribute.
  const int64_t rf_threshold = std::max(
      options_.base.in_memory_threshold,
      options_.avc_buffer_entries / std::max(1, schema.num_attrs()));
  // The fixed buffer is allocated up front: this is RainForest's memory
  // footprint (2.5M entries * 4-byte counters * classes ~= 20 MB for two
  // classes, Figure 19).
  tracker.NotePeakMemory(options_.avc_buffer_entries * 4 * nc);

  std::vector<NodeId> nid(n, root_id);

  struct CollectNode {
    NodeId node;
    std::vector<RecordId> rids;
  };
  std::vector<RfNode> active;
  std::vector<CollectNode> collect;
  if (n <= rf_threshold) {
    collect.push_back({root_id, {}});
  } else {
    RfNode rn;
    rn.node = root_id;
    rn.depth = 0;
    rn.records = n;
    rn.avc.resize(schema.num_attrs());
    active.push_back(std::move(rn));
  }

  int pass_index = 0;
  while (!active.empty() || !collect.empty()) {
    PassObservation po;
    po.pass = pass_index++;
    po.records_scanned = n;
    po.frontier_fresh = static_cast<int64_t>(active.size());
    po.frontier_collect = static_cast<int64_t>(collect.size());
    const int64_t bytes_before = result.stats.bytes_read;
    Timer pass_timer;

    // Partition active nodes into scan batches whose AVC-groups fit the
    // buffer together (entry upper bound: records per attribute).
    std::vector<std::vector<size_t>> batches;
    {
      std::vector<size_t> batch;
      int64_t batch_entries = 0;
      for (size_t i = 0; i < active.size(); ++i) {
        const int64_t entries =
            std::min<int64_t>(active[i].records, n) * schema.num_attrs();
        if (!batch.empty() &&
            batch_entries + entries > options_.avc_buffer_entries) {
          batches.push_back(std::move(batch));
          batch.clear();
          batch_entries = 0;
        }
        batch.push_back(i);
        batch_entries += entries;
      }
      if (!batch.empty()) batches.push_back(std::move(batch));
    }
    if (batches.empty()) batches.push_back({});  // collect-only scan

    std::vector<int> collect_slot(result.tree.num_nodes(), -1);
    for (size_t i = 0; i < collect.size(); ++i) {
      collect_slot[collect[i].node] = static_cast<int>(i);
    }

    for (size_t b = 0; b < batches.size(); ++b) {
      tracker.ChargeScan(train);
      std::vector<int> node_slot(result.tree.num_nodes(), -1);
      for (size_t i : batches[b]) {
        node_slot[active[i].node] = static_cast<int>(i);
      }
      for (RecordId r = 0; r < n; ++r) {
        NodeId id = nid[r];
        if (!result.tree.node(id).is_leaf &&
            result.tree.node(id).left != kInvalidNode) {
          const TreeNode& tn = result.tree.node(id);
          id = tn.split.RoutesLeft(train, r) ? tn.left : tn.right;
          if (b + 1 == batches.size()) nid[r] = id;  // final routing pass
        }
        const int slot =
            id < static_cast<NodeId>(node_slot.size()) ? node_slot[id] : -1;
        if (slot >= 0) {
          RfNode& rn = active[slot];
          for (AttrId a = 0; a < schema.num_attrs(); ++a) {
            const double v = schema.is_numeric(a)
                                 ? train.numeric(a, r)
                                 : static_cast<double>(
                                       train.categorical(a, r));
            auto [it, inserted] = rn.avc[a].try_emplace(v);
            if (inserted) it->second.assign(nc, 0);
            it->second[train.label(r)]++;
          }
          continue;
        }
        if (b + 1 == batches.size()) {
          const int cslot = id < static_cast<NodeId>(collect_slot.size())
                                ? collect_slot[id]
                                : -1;
          if (cslot >= 0) collect[cslot].rids.push_back(r);
        }
      }
    }

    for (CollectNode& cn : collect) {
      tracker.ChargeBuffered(static_cast<int64_t>(cn.rids.size()));
      BuildExactSubtree(train, cn.rids, options_.base, &result.tree, cn.node,
                        &tracker);
    }
    collect.clear();

    std::vector<RfNode> next;
    for (RfNode& rn : active) {
      const NodeId node_id = rn.node;
      const std::vector<int64_t> counts =
          result.tree.node(node_id).class_counts;
      std::vector<int64_t> left_counts;
      ExactSplit best;
      const bool stop = StopsBeforeSearch(counts, rn.records, rn.depth,
                                          schema.num_attrs(), options_.base);
      if (!stop) {
        best = BestSplitFromAvc(rn, schema, counts, &left_counts);
      }
      if (stop || !best.valid || best.gini >= Gini(counts) - 1e-12) {
        result.tree.mutable_node(node_id).is_leaf = true;
        continue;
      }
      std::vector<int64_t> right_counts(nc);
      int64_t left_n = 0;
      int64_t right_n = 0;
      for (ClassId c = 0; c < nc; ++c) {
        right_counts[c] = counts[c] - left_counts[c];
        left_n += left_counts[c];
        right_n += right_counts[c];
      }
      if (left_n == 0 || right_n == 0) {
        result.tree.mutable_node(node_id).is_leaf = true;
        continue;
      }

      TreeNode left;
      left.depth = rn.depth + 1;
      left.class_counts = left_counts;
      left.leaf_class = Majority(left_counts);
      TreeNode right;
      right.depth = rn.depth + 1;
      right.class_counts = right_counts;
      right.leaf_class = Majority(right_counts);
      const NodeId left_id = result.tree.AddNode(std::move(left));
      const NodeId right_id = result.tree.AddNode(std::move(right));
      TreeNode& parent = result.tree.mutable_node(node_id);
      parent.is_leaf = false;
      parent.split = best.split;
      parent.left = left_id;
      parent.right = right_id;

      auto enqueue = [&](NodeId child, int64_t child_n, int depth) {
        if (child_n <= rf_threshold) {
          collect.push_back({child, {}});
        } else {
          RfNode child_rn;
          child_rn.node = child;
          child_rn.depth = depth;
          child_rn.records = child_n;
          child_rn.avc.resize(schema.num_attrs());
          next.push_back(std::move(child_rn));
        }
      };
      enqueue(left_id, left_n, rn.depth + 1);
      enqueue(right_id, right_n, rn.depth + 1);
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
