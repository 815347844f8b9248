#include "clouds/clouds.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/class_counts.h"
#include "common/timer.h"
#include "exact/exact.h"
#include "gini/categorical.h"
#include "gini/estimator.h"
#include "gini/gini.h"
#include "hist/grids.h"
#include "hist/histogram1d.h"
#include "io/scan.h"
#include "pruning/mdl.h"
#include "tree/observer.h"

namespace cmp {

namespace {

// An interval that survived estimation pruning and must be examined
// point by point during the second pass.
struct AliveRange {
  AttrId attr = kInvalidAttr;
  int interval = -1;
};

// Per-active-node construction state.
struct CloudsNode {
  NodeId node = kInvalidNode;
  int depth = 0;
  int64_t records = 0;
  // One histogram per attribute: interval rows for numeric attributes,
  // value rows for categorical ones.
  std::vector<Histogram1D> hists;
  // Second-pass state.
  std::vector<AliveRange> alive;
  // Collected (value, class) pairs per alive range, filled by pass 2.
  std::vector<std::vector<std::pair<double, ClassId>>> alive_points;
  // Best-so-far split from boundaries / categorical subsets.
  ExactSplit best;
  // Exact per-class counts of the records routed left by `best`.
  std::vector<int64_t> best_left_counts;
};

int64_t HistMemory(const CloudsNode& cn) {
  int64_t bytes = 0;
  for (const Histogram1D& h : cn.hists) bytes += h.MemoryBytes();
  return bytes;
}

}  // namespace

BuildResult CloudsBuilder::Build(const Dataset& train) {
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

  const std::vector<IntervalGrid> grids =
      ComputeEqualDepthGrids(train, options_.intervals, &tracker);

  // nid[r]: the node record r currently belongs to. Splits decided at
  // level d are applied while scanning for level d+1.
  std::vector<NodeId> nid(n, root_id);
  tracker.ChargeWrite(n * static_cast<int64_t>(sizeof(NodeId)));

  auto make_hists = [&](CloudsNode* cn) {
    cn->hists = MakeAttrHistograms(schema, grids, nc);
  };

  // Nodes whose records will be collected for the in-memory finisher.
  struct CollectNode {
    NodeId node;
    std::vector<RecordId> rids;
  };

  std::vector<CloudsNode> active;
  std::vector<CollectNode> collect;
  {
    CloudsNode root_cn;
    root_cn.node = root_id;
    root_cn.depth = 0;
    root_cn.records = n;
    make_hists(&root_cn);
    if (options_.base.in_memory_threshold > 0 &&
        n <= options_.base.in_memory_threshold) {
      collect.push_back({root_id, {}});
    } else {
      active.push_back(std::move(root_cn));
    }
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
    // ---- Pass 1 of the level: route one split down, fill histograms,
    // and collect rids of small partitions. The nid array is swapped
    // from and to disk per scan, as in the paper.
    tracker.ChargeScan(train);
    tracker.ChargeWrite(n * static_cast<int64_t>(sizeof(NodeId)));
    std::vector<int> node_slot(result.tree.num_nodes(), -1);
    for (size_t i = 0; i < active.size(); ++i) {
      node_slot[active[i].node] = static_cast<int>(i);
    }
    std::vector<int> collect_slot(result.tree.num_nodes(), -1);
    for (size_t i = 0; i < collect.size(); ++i) {
      collect_slot[collect[i].node] = static_cast<int>(i);
    }

    int64_t hist_bytes = 0;
    for (const CloudsNode& cn : active) hist_bytes += HistMemory(cn);
    tracker.NotePeakMemory(hist_bytes + GridsMemoryBytes(grids) +
                           n * static_cast<int64_t>(sizeof(NodeId)));

    for (RecordId r = 0; r < n; ++r) {
      NodeId id = nid[r];
      if (!result.tree.node(id).is_leaf &&
          result.tree.node(id).left != kInvalidNode) {
        const TreeNode& tn = result.tree.node(id);
        id = tn.split.RoutesLeft(train, r) ? tn.left : tn.right;
        nid[r] = id;
      }
      const int slot = id < static_cast<NodeId>(node_slot.size())
                           ? node_slot[id]
                           : -1;
      if (slot >= 0) {
        CloudsNode& cn = active[slot];
        for (AttrId a = 0; a < schema.num_attrs(); ++a) {
          const int row = schema.is_numeric(a)
                              ? grids[a].IntervalOf(train.numeric(a, r))
                              : train.categorical(a, r);
          cn.hists[a].Add(row, train.label(r));
        }
        continue;
      }
      const int cslot = id < static_cast<NodeId>(collect_slot.size())
                            ? collect_slot[id]
                            : -1;
      if (cslot >= 0) collect[cslot].rids.push_back(r);
    }

    // Finish small partitions entirely in memory.
    for (CollectNode& cn : collect) {
      tracker.ChargeBuffered(static_cast<int64_t>(cn.rids.size()));
      BuildExactSubtree(train, cn.rids, options_.base, &result.tree, cn.node,
                        &tracker);
    }
    collect.clear();

    // ---- Analysis: boundary ginis, estimates, alive intervals.
    bool any_alive = false;
    for (CloudsNode& cn : active) {
      cn.best.valid = false;
      cn.best.gini = std::numeric_limits<double>::infinity();
      double gini_min = std::numeric_limits<double>::infinity();
      std::vector<std::pair<AttrId, AttrAnalysis>> analyses;
      for (AttrId a = 0; a < schema.num_attrs(); ++a) {
        if (schema.is_numeric(a)) {
          AttrAnalysis an = AnalyzeAttribute(cn.hists[a]);
          if (an.best_boundary >= 0 && an.gini_min < cn.best.gini) {
            cn.best.gini = an.gini_min;
            cn.best.split =
                Split::Numeric(a, grids[a].UpperCut(an.best_boundary));
            cn.best.valid = true;
            // Intervals 0..best_boundary inclusive go left.
            cn.best_left_counts =
                cn.hists[a].PrefixBefore(an.best_boundary + 1);
          }
          gini_min = std::min(gini_min, an.gini_min);
          analyses.emplace_back(a, std::move(an));
        } else {
          const CategoricalSplit cs = BestCategoricalSplit(cn.hists[a]);
          if (cs.valid && cs.gini < cn.best.gini) {
            cn.best.gini = cs.gini;
            cn.best.split = Split::Categorical(a, cs.left_subset);
            cn.best.valid = true;
            cn.best_left_counts.assign(nc, 0);
            const Histogram1D& h = cn.hists[a];
            for (int v = 0; v < h.num_intervals(); ++v) {
              if (cs.left_subset[v] != 0) {
                for (ClassId c = 0; c < nc; ++c) {
                  cn.best_left_counts[c] += h.count(v, c);
                }
              }
            }
          }
          gini_min = std::min(gini_min, cs.valid ? cs.gini : 1.0);
        }
      }
      // Alive intervals: every interval (on any numeric attribute) whose
      // estimate beats the global boundary/categorical minimum.
      cn.alive.clear();
      for (const auto& [a, an] : analyses) {
        for (int i = 0; i < static_cast<int>(an.interval_est.size()); ++i) {
          if (an.interval_est[i] < gini_min - 1e-12) {
            cn.alive.push_back({a, i});
          }
        }
      }
      cn.alive_points.assign(cn.alive.size(), {});
      if (!cn.alive.empty()) any_alive = true;
    }

    // ---- Pass 2 of the level (CLOUDS' extra pass): evaluate the gini at
    // every distinct point inside alive intervals.
    if (any_alive) {
      tracker.ChargeScan(train);
      for (RecordId r = 0; r < n; ++r) {
        const NodeId id = nid[r];
        const int slot = id < static_cast<NodeId>(node_slot.size())
                             ? node_slot[id]
                             : -1;
        if (slot < 0) continue;
        CloudsNode& cn = active[slot];
        for (size_t k = 0; k < cn.alive.size(); ++k) {
          const AliveRange& ar = cn.alive[k];
          const double v = train.numeric(ar.attr, r);
          if (grids[ar.attr].IntervalOf(v) == ar.interval) {
            cn.alive_points[k].emplace_back(v, train.label(r));
          }
        }
      }
      for (CloudsNode& cn : active) {
        for (size_t k = 0; k < cn.alive.size(); ++k) {
          auto& points = cn.alive_points[k];
          if (points.empty()) continue;
          tracker.ChargeBuffered(static_cast<int64_t>(points.size()));
          tracker.ChargeSort(static_cast<int64_t>(points.size()));
          std::sort(points.begin(), points.end());
          const AttrId a = cn.alive[k].attr;
          // Below-counts at the interval's left edge.
          std::vector<int64_t> below =
              cn.hists[a].PrefixBefore(cn.alive[k].interval);
          const std::vector<int64_t>& totals =
              result.tree.node(cn.node).class_counts;
          for (size_t i = 0; i + 1 < points.size(); ++i) {
            below[points[i].second]++;
            if (points[i].first == points[i + 1].first) continue;
            const double g = BoundaryGini(below, totals);
            if (g < cn.best.gini) {
              cn.best.gini = g;
              cn.best.split = Split::Numeric(a, points[i].first);
              cn.best.valid = true;
              cn.best_left_counts = below;
            }
          }
          points.clear();
        }
      }
    }

    // ---- Split decisions.
    std::vector<CloudsNode> next;
    for (CloudsNode& cn : active) {
      const NodeId node_id = cn.node;
      const std::vector<int64_t> counts =
          result.tree.node(node_id).class_counts;
      const bool stop =
          StopsBeforeSearch(counts, cn.records, cn.depth, schema.num_attrs(),
                            options_.base) ||
          !cn.best.valid || cn.best.gini >= Gini(counts) - 1e-12;
      if (stop) {
        result.tree.mutable_node(node_id).is_leaf = true;
        continue;
      }

      // Children class counts are exact: every accepted split carries the
      // per-class counts of its left side (boundary prefix, categorical
      // subset sum, or the pass-2 below-count snapshot).
      const std::vector<int64_t>& left_counts = cn.best_left_counts;
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
      left.depth = cn.depth + 1;
      left.class_counts = left_counts;
      left.leaf_class = Majority(left_counts);
      TreeNode right;
      right.depth = cn.depth + 1;
      right.class_counts = right_counts;
      right.leaf_class = Majority(right_counts);
      const NodeId left_id = result.tree.AddNode(std::move(left));
      const NodeId right_id = result.tree.AddNode(std::move(right));
      TreeNode& parent = result.tree.mutable_node(node_id);
      parent.is_leaf = false;
      parent.split = cn.best.split;
      parent.left = left_id;
      parent.right = right_id;

      auto enqueue = [&](NodeId child, int64_t child_n) {
        if (options_.base.in_memory_threshold > 0 &&
            child_n <= options_.base.in_memory_threshold) {
          collect.push_back({child, {}});
        } else {
          CloudsNode child_cn;
          child_cn.node = child;
          child_cn.depth = cn.depth + 1;
          child_cn.records = child_n;
          make_hists(&child_cn);
          next.push_back(std::move(child_cn));
        }
      };
      enqueue(left_id, left_n);
      enqueue(right_id, right_n);
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
