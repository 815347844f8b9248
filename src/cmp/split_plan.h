#ifndef CMP_CMP_SPLIT_PLAN_H_
#define CMP_CMP_SPLIT_PLAN_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "cmp/frontier.h"
#include "cmp/options.h"
#include "cmp/variant_policy.h"
#include "common/class_counts.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "exact/exact.h"
#include "gini/categorical.h"
#include "gini/gini.h"
#include "io/scan.h"
#include "tree/builder.h"

namespace cmp {

/// Split planning of the CMP build pipeline: scoring complete histogram
/// bundles, choosing split decisions (pending / exact / categorical /
/// linear), predicting children's X axes, and materializing decisions
/// into tree nodes and next-round frontier work. The SplitPlanner is
/// pure read-only analysis over histogram state; the SplitExecutor
/// applies its decisions to the tree, which is the only part that needs
/// the record store (buffer flushes re-read records, exact finishing
/// materializes partitions).

/// Work done by the linear-split search of Analyze calls (CMP only).
struct LineSearchStats {
  /// Seconds in the coarse per-Y line searches, summed across threads.
  double search_seconds = 0.0;
  /// Seconds refining winning lines at full resolution.
  double refine_seconds = 0.0;
  /// Candidate lines scored; independent of the thread count.
  int64_t lines_evaluated = 0;
  /// Per-Y searches skipped because no line of that matrix could be
  /// adopted; independent of the thread count.
  int64_t lines_skipped = 0;

  void Add(const LineSearchStats& o) {
    search_seconds += o.search_seconds;
    refine_seconds += o.refine_seconds;
    lines_evaluated += o.lines_evaluated;
    lines_skipped += o.lines_skipped;
  }
};

/// Per-attribute analysis outcome used for both split selection and
/// prediction.
struct BundleAnalysis {
  // Estimated (numeric) or exact (categorical) gini per attribute; the
  // paper selects the split attribute by this value.
  std::vector<double> attr_est;
  // Decision for the node.
  enum class Decision {
    kNone,            // no valid split: leaf
    kNumericPending,  // approximate split with alive intervals
    kNumericExact,    // boundary split, no interval can beat it
    kCategorical,
    kLinear,
  };
  Decision decision = Decision::kNone;
  AttrId attr = kInvalidAttr;
  // kNumericPending / kNumericExact.
  double fallback_threshold = 0.0;
  double fallback_gini = 1.0;
  std::vector<int> alive;                  // global interval indices
  std::vector<int64_t> exact_left_counts;  // kNumericExact / kCategorical
  // kCategorical.
  CategoricalSplit cat;
  // kLinear.
  Split linear_split;
  // What the linear-split search cost (whatever the decision).
  LineSearchStats line_search;
};

/// How a child restricts the parent's records on the attribute that was
/// just split: a row range for numeric splits, a value mask for
/// categorical ones.
struct ChildRestriction {
  AttrId split_attr = kInvalidAttr;
  bool is_range = false;
  int lo = 0;  // global interval indices on split_attr
  int hi = 0;
  const std::vector<uint8_t>* mask = nullptr;
  uint8_t want = 1;
};

/// Read-only split analysis over the discretized grids. Everything here
/// is a pure function of histogram state (plus the build options), so
/// the plan tasks of a round call it from pool threads concurrently.
class SplitPlanner {
 public:
  /// All references are borrowed and must outlive the planner; `pool`
  /// is never null (the build driver guarantees a pool).
  SplitPlanner(const Schema& schema, const CmpOptions& options,
               const VariantPolicy& policy,
               const std::vector<IntervalGrid>& grids,
               const std::vector<std::vector<char>>& interior,
               const std::vector<AttrId>& numeric_attrs, ThreadPool* pool)
      : schema_(schema),
        options_(options),
        policy_(policy),
        grids_(grids),
        interior_(interior),
        numeric_attrs_(numeric_attrs),
        pool_(pool) {}

  const Schema& schema() const { return schema_; }
  const std::vector<IntervalGrid>& grids() const { return grids_; }

  /// Whether this build accumulates bivariate matrices (policy says so
  /// AND at least one numeric attribute exists to serve as the X axis).
  bool bivariate() const {
    return policy_.use_matrices && !numeric_attrs_.empty();
  }

  /// Cut value of the global grid boundary with index `cut` on attribute
  /// `a` (cut i separates interval i from i+1).
  double CutValue(AttrId a, int cut) const { return grids_[a].UpperCut(cut); }

  /// Chooses the X-axis attribute for a fresh child bundle: the numeric
  /// attribute with the smallest estimated gini at the parent
  /// (predictSplit's fallback row for attributes not on the sub-matrix
  /// axes; see DESIGN.md for the simplification).
  AttrId PredictX(const BundleAnalysis& parent) const;

  /// The paper's predictSplit (Figure 7): exact ginis for the attributes
  /// on the sub-matrix axes (computed from the parent's matrices
  /// restricted to the child's rows), parent-level estimates for the
  /// rest; returns the argmin attribute, which becomes the child's X
  /// axis.
  AttrId PredictChildX(const HistBundle& parent,
                       const std::vector<double>& parent_est,
                       const ChildRestriction& r) const;

  /// Scores one attribute histogram the way Analyze does (boundary
  /// minimum clamped by interior-splittable interval estimates). `offs`
  /// maps local histogram rows to global grid intervals.
  double AttrEstFromHist(AttrId a, const Histogram1D& hist, int offs) const;

  HistBundle MakeFreshBundle(AttrId x_attr, int x_lo, int x_hi) const;

  /// Analyzes a node's complete histogram bundle and picks a split
  /// decision.
  BundleAnalysis Analyze(const HistBundle& bundle) const;

  /// Builds the Pending structure for a node whose decision is
  /// kNumericPending. The line searches of any segments it plans are
  /// added to `line_search`.
  std::unique_ptr<Pending> MakePending(const HistBundle& bundle,
                                       const BundleAnalysis& analysis,
                                       int depth,
                                       LineSearchStats* line_search) const;

  /// Plans one derived segment of a CMP-B double split, adding its line
  /// search to `line_search`.
  void PlanSegment(Segment* seg, int depth,
                   LineSearchStats* line_search) const;

 private:
  const Schema& schema_;
  const CmpOptions& options_;
  VariantPolicy policy_;
  const std::vector<IntervalGrid>& grids_;
  const std::vector<std::vector<char>>& interior_;
  const std::vector<AttrId>& numeric_attrs_;
  ThreadPool* pool_;
};

/// Applies split decisions to the tree: grows analyzed nodes, resolves
/// pending splits against their sorted buffers, and finishes collected
/// in-memory partitions with the exact builder. Emits next-round work
/// into `next`. Templated over the record store because buffer flushes
/// and exact finishing re-read records; all store access is const.
/// RunRound runs each node of a round as a pool task on a private tree
/// and grafts the trees back in work-list order.
template <class Store>
class SplitExecutor {
 public:
  /// Buffer flushes read each record's interval indices from the
  /// store's bin codes.
  SplitExecutor(const SplitPlanner& planner, const Store& store,
                const CmpOptions& options, BuildResult* result,
                ScanTracker* tracker, ThreadPool* pool, FrontierQueues* next)
      : planner_(planner),
        store_(store),
        options_(options),
        result_(result),
        tracker_(tracker),
        pool_(pool),
        next_(next) {}

  /// Busy seconds of one round's tasks, summed by kind.
  struct RoundBusy {
    double finish_seconds = 0.0;  // collected partitions
    double plan_seconds = 0.0;    // fresh and pending nodes
  };

  /// Runs one round of in-memory work, emitting the next round's: every
  /// collected partition of `work` is finished with the exact builder,
  /// every fresh node grown from its bundle and every pending split
  /// resolved. Until they are numbered into the tree these nodes do not
  /// depend on each other, so each is one task: it copies its node into a
  /// private tree as local root 0 and works there with its own stats,
  /// tracker, work queues and line-search sums. Tasks are handed out
  /// largest first (by records) through an atomic cursor, so a big
  /// partition does not start last. They are then applied in work-list
  /// order, collects first, then fresh nodes, then pendings: stats added,
  /// tree grafted at the node, next-round work appended with Graft's id
  /// map. Graft appends a subtree's nodes in their local id order, which
  /// is the order an in-place build would append them, so node ids,
  /// queues and counters do not depend on the thread count or on the
  /// order tasks ran in. A collect task builds serially; a round with a
  /// single task runs it on the caller with the pool, so a lone
  /// partition still fans its attributes out.
  RoundBusy RunRound(FrontierQueues& work) {
    const size_t num_collect = work.collect.size();
    const size_t num_fresh = work.fresh.size();
    const size_t num_plan = num_fresh + work.pending.size();
    const size_t num_tasks = num_collect + num_plan;
    auto node_of = [&](size_t i) {
      if (i < num_collect) return work.collect[i].node;
      i -= num_collect;
      return i < num_fresh ? work.fresh[i].node
                           : work.pending[i - num_fresh].node;
    };
    struct RoundTask {
      int64_t records = 0;
      double seconds = 0.0;
      BuildResult result;
      FrontierQueues next;
      LineSearchStats line_search;
    };
    std::vector<RoundTask> tasks(num_tasks);
    std::vector<size_t> order(num_tasks);
    for (size_t i = 0; i < num_tasks; ++i) {
      tasks[i].records =
          i < num_collect
              ? static_cast<int64_t>(work.collect[i].rids.size())
              : CountSum(result_->tree.node(node_of(i)).class_counts);
      order[i] = i;
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return tasks[a].records > tasks[b].records;
    });
    ThreadPool* const lone = num_tasks == 1 ? pool_ : nullptr;
    auto run = [&](size_t i) {
      Timer timer;
      RoundTask& t = tasks[i];
      t.result.tree = DecisionTree(planner_.schema());
      t.result.tree.AddNode(result_->tree.node(node_of(i)));
      ScanTracker tracker(&t.result.stats);
      tracker.set_real_io(tracker_->real_io());
      if (i < num_collect) {
        FinishCollect(work.collect[i].rids, &t.result.tree, &tracker, lone);
      } else {
        SplitExecutor local(planner_, store_, options_, &t.result, &tracker,
                            pool_, &t.next);
        local.tree_root_ = node_of(i);
        const size_t k = i - num_collect;
        if (k < num_fresh) {
          local.GrowNode(0, std::move(work.fresh[k].bundle));
        } else {
          local.ResolvePending(0, work.pending[k - num_fresh].pending.get(),
                               t.result.tree.node(0).depth);
        }
        t.line_search = local.line_search_;
      }
      t.seconds = timer.Seconds();
    };
    const int workers = static_cast<int>(std::min<int64_t>(
        pool_->parallelism(), static_cast<int64_t>(num_tasks)));
    if (workers <= 1) {
      for (const size_t i : order) run(i);
    } else {
      std::atomic<size_t> next{0};
      pool_->ParallelFor(workers, 1, [&](int64_t, int64_t) {
        for (size_t k = next++; k < num_tasks; k = next++) run(order[k]);
      });
    }

    RoundBusy busy;
    for (size_t i = 0; i < num_tasks; ++i) {
      RoundTask& t = tasks[i];
      const NodeId at = node_of(i);
      if (i < num_collect) {
        busy.finish_seconds += t.seconds;
        tracker_->ChargeBuffered(t.records);
      } else {
        busy.plan_seconds += t.seconds;
        // Accumulate leaves it alone; only growing the build root sets
        // it (resolving the root's pending leaves a task's copy at 0).
        if (at == 0 && i < num_collect + num_fresh) {
          result_->stats.root_alive_intervals =
              t.result.stats.root_alive_intervals;
        }
      }
      result_->stats.Accumulate(t.result.stats);
      line_search_.Add(t.line_search);
      const DecisionTree::GraftMap map = result_->tree.Graft(at, t.result.tree);
      for (FreshWork& w : t.next.fresh) {
        next_->fresh.push_back({map(w.node), std::move(w.bundle)});
      }
      for (PendingWork& w : t.next.pending) {
        next_->pending.push_back({map(w.node), std::move(w.pending)});
      }
      for (CollectWork& w : t.next.collect) {
        next_->collect.push_back({map(w.node), std::move(w.rids)});
      }
    }
    return busy;
  }

  /// The line-search work of every analysis applied since the last call,
  /// summed in work-list order; resets the sum.
  LineSearchStats TakeLineSearchStats() {
    const LineSearchStats out = line_search_;
    line_search_ = LineSearchStats{};
    return out;
  }

  // GrowNode and ResolvePending, applied in place in work-list order
  // after each collect is finished in place at its node, are the serial
  // walk RunRound must reproduce; tests drive them as its reference.

  /// Applies stop tests + Analyze to a real tree node whose bundle is
  /// complete, materializing children / pendings / collect work.
  /// `predicted` marks bundles whose X axis was chosen by predictSplit
  /// (fresh bundles); derived sub-matrix bundles inherit their X axis and
  /// do not count toward the prediction hit-rate.
  void GrowNode(NodeId id, HistBundle&& bundle, bool predicted = true) {
    const Schema& schema = planner_.schema();
    const std::vector<IntervalGrid>& grids = planner_.grids();
    const std::vector<int64_t> totals = bundle.ClassTotals();
    const int64_t n = CountSum(totals);
    // Correct the node's (possibly approximate) metadata with the exact
    // counts from its own histograms. An empty node (a linear split can
    // route everything one way) keeps its seeded counts so its leaf class
    // stays the parent's majority.
    if (n > 0) {
      TreeNode& node = result_->tree.mutable_node(id);
      node.class_counts = totals;
      node.leaf_class = Majority(totals);
    }
    const int depth = result_->tree.node(id).depth;

    if (n == 0 || StopsBeforeSearch(totals, n, depth, schema.num_attrs(),
                                    options_.base)) {
      MakeLeaf(id);
      return;
    }
    if (options_.base.in_memory_threshold > 0 &&
        n <= options_.base.in_memory_threshold) {
      next_->collect.push_back({id, {}});
      return;
    }

    const BundleAnalysis an = planner_.Analyze(bundle);
    line_search_.Add(an.line_search);

    // Prediction bookkeeping: a fresh bivariate bundle's X axis was
    // chosen by predictSplit; a hit means the split landed on the X axis.
    if (predicted && bundle.bivariate() &&
        an.decision != BundleAnalysis::Decision::kNone) {
      result_->stats.predictions_total++;
      if (an.attr == bundle.x_attr()) result_->stats.predictions_correct++;
    }

    switch (an.decision) {
      case BundleAnalysis::Decision::kNone:
        MakeLeaf(id);
        return;

      case BundleAnalysis::Decision::kNumericPending: {
        if (IsBuildRoot(id)) {
          result_->stats.root_alive_intervals =
              static_cast<int64_t>(an.alive.size());
        }
        auto pending = planner_.MakePending(bundle, an, depth, &line_search_);
        next_->pending.push_back({id, std::move(pending)});
        return;
      }

      case BundleAnalysis::Decision::kNumericExact: {
        if (an.fallback_gini >= Gini(totals) - 1e-12) {
          MakeLeaf(id);
          return;
        }
        std::vector<int64_t> right_counts(schema.num_classes());
        for (ClassId c = 0; c < schema.num_classes(); ++c) {
          right_counts[c] = totals[c] - an.exact_left_counts[c];
        }
        if (CountSum(an.exact_left_counts) == 0 ||
            CountSum(right_counts) == 0) {
          MakeLeaf(id);
          return;
        }
        const NodeId left_id = AddChild(an.exact_left_counts, depth + 1);
        const NodeId right_id = AddChild(right_counts, depth + 1);
        TreeNode& node = result_->tree.mutable_node(id);
        node.is_leaf = false;
        node.split = Split::Numeric(an.attr, an.fallback_threshold);
        node.left = left_id;
        node.right = right_id;

        if (bundle.bivariate() && an.attr == bundle.x_attr()) {
          // Exact boundary split on the X axis: the children's matrices
          // are sub-matrices — grow them immediately, no scan needed.
          const int cut = grids[an.attr].IntervalOf(an.fallback_threshold);
          HistBundle left_b = bundle.DeriveXRange(bundle.x_lo(), cut + 1,
                                                  bundle.x_lo(), cut + 1);
          HistBundle right_b = bundle.DeriveXRange(cut + 1, bundle.x_hi(),
                                                   cut + 1, bundle.x_hi());
          GrowNode(left_id, std::move(left_b), /*predicted=*/false);
          GrowNode(right_id, std::move(right_b), /*predicted=*/false);
        } else if (planner_.bivariate()) {
          // Exact split on a Y attribute: children need a scan; predict
          // each child's X axis from the restricted (X, attr) matrix.
          const int cut = grids[an.attr].IntervalOf(an.fallback_threshold);
          ChildRestriction left_r{an.attr, true, 0, cut + 1, nullptr, 1};
          ChildRestriction right_r{an.attr, true, cut + 1,
                                   grids[an.attr].num_intervals(), nullptr,
                                   1};
          const AttrId lx = planner_.PredictChildX(bundle, an.attr_est,
                                                   left_r);
          const AttrId rx = planner_.PredictChildX(bundle, an.attr_est,
                                                   right_r);
          PushFreshPair(
              left_id, right_id,
              planner_.MakeFreshBundle(lx, 0, grids[lx].num_intervals()),
              planner_.MakeFreshBundle(rx, 0, grids[rx].num_intervals()));
        } else {
          PushFreshPair(left_id, right_id,
                        HistBundle::MakeUnivariate(schema, grids),
                        HistBundle::MakeUnivariate(schema, grids));
        }
        return;
      }

      case BundleAnalysis::Decision::kCategorical:
      case BundleAnalysis::Decision::kLinear: {
        Split split;
        std::vector<int64_t> left_counts;
        if (an.decision == BundleAnalysis::Decision::kCategorical) {
          split = Split::Categorical(an.attr, an.cat.left_subset);
          left_counts = an.exact_left_counts;
        } else {
          split = an.linear_split;
          // Linear child counts are not derivable from the matrix alone
          // (cells crossed by the line split both ways); seed with a
          // half/half guess, corrected when the children's bundles are
          // analyzed after the next scan.
          left_counts.assign(schema.num_classes(), 0);
          for (ClassId c = 0; c < schema.num_classes(); ++c) {
            left_counts[c] = totals[c] / 2;
          }
        }
        std::vector<int64_t> right_counts(schema.num_classes());
        for (ClassId c = 0; c < schema.num_classes(); ++c) {
          right_counts[c] = totals[c] - left_counts[c];
        }
        if (an.decision == BundleAnalysis::Decision::kCategorical &&
            (CountSum(left_counts) == 0 || CountSum(right_counts) == 0)) {
          MakeLeaf(id);
          return;
        }
        const NodeId left_id = AddChild(left_counts, depth + 1);
        const NodeId right_id = AddChild(right_counts, depth + 1);
        TreeNode& node = result_->tree.mutable_node(id);
        node.is_leaf = false;
        node.split = split;
        node.left = left_id;
        node.right = right_id;
        if (planner_.bivariate()) {
          AttrId lx;
          AttrId rx;
          if (an.decision == BundleAnalysis::Decision::kCategorical) {
            ChildRestriction left_r{an.attr, false, 0, 0,
                                    &node.split.left_subset, 1};
            ChildRestriction right_r{an.attr, false, 0, 0,
                                     &node.split.left_subset, 0};
            lx = planner_.PredictChildX(bundle, an.attr_est, left_r);
            rx = planner_.PredictChildX(bundle, an.attr_est, right_r);
          } else {
            // Linear splits cut the matrix diagonally; no restricted
            // marginal exists, so fall back to parent-level estimates.
            lx = rx = planner_.PredictX(an);
          }
          PushFreshPair(
              left_id, right_id,
              planner_.MakeFreshBundle(lx, 0, grids[lx].num_intervals()),
              planner_.MakeFreshBundle(rx, 0, grids[rx].num_intervals()));
        } else {
          PushFreshPair(left_id, right_id,
                        HistBundle::MakeUnivariate(schema, grids),
                        HistBundle::MakeUnivariate(schema, grids));
        }
        return;
      }
    }
  }

  /// Resolves a pending split of tree node `id`, creating children (and
  /// grandchildren for nested pendings) and growing the frontier.
  void ResolvePending(NodeId id, Pending* p, int depth) {
    const Schema& schema = planner_.schema();
    const std::vector<IntervalGrid>& grids = planner_.grids();
    const std::vector<int64_t> totals = result_->tree.node(id).class_counts;
    const int nc = schema.num_classes();
    const int64_t n = CountSum(totals);
    const int num_alive = static_cast<int>(p->alive.size());

    tracker_->ChargeBuffered(static_cast<int64_t>(p->buffer.size()));
    tracker_->ChargeSort(static_cast<int64_t>(p->buffer.size()));
    SortBuffer(&p->buffer);

    // Group buffered records by alive interval (sorted by value => groups
    // are contiguous and ascending).
    std::vector<std::pair<size_t, size_t>> groups(num_alive, {0, 0});
    {
      size_t pos = 0;
      for (int k = 0; k < num_alive; ++k) {
        const size_t begin = pos;
        while (pos < p->buffer.size() &&
               grids[p->attr].IntervalOf(p->buffer[pos].value) ==
                   p->alive[k]) {
          ++pos;
        }
        groups[k] = {begin, pos};
      }
    }

    // Walk: segment 0, alive 0, segment 1, alive 1, ..., last segment.
    // Candidates: every alive-interval edge cut and every distinct
    // buffered value.
    double best_gini = std::numeric_limits<double>::infinity();
    double best_threshold = 0.0;
    int best_s_left = -1;
    size_t best_buf_left = 0;  // buffered records (global index) on the left
    std::vector<int64_t> best_left_counts;

    std::vector<int64_t> below(nc, 0);
    auto candidate = [&](double threshold, int s_left, size_t buf_left) {
      int64_t left_n = 0;
      for (int64_t c : below) left_n += c;
      if (left_n <= 0 || left_n >= n) return;
      const double g = BoundaryGini(below, totals);
      if (g < best_gini) {
        best_gini = g;
        best_threshold = threshold;
        best_s_left = s_left;
        best_buf_left = buf_left;
        best_left_counts = below;
      }
    };

    for (int k = 0; k < num_alive; ++k) {
      for (ClassId c = 0; c < nc; ++c) below[c] += p->segments[k].counts[c];
      // Lower edge of alive interval k (cut index alive[k]-1).
      if (p->alive[k] >= 1) {
        candidate(planner_.CutValue(p->attr, p->alive[k] - 1), k + 1,
                  groups[k].first);
      }
      for (size_t i = groups[k].first; i < groups[k].second; ++i) {
        below[p->buffer[i].label]++;
        const bool last_of_value =
            i + 1 >= groups[k].second ||
            p->buffer[i + 1].value != p->buffer[i].value;
        if (last_of_value) {
          candidate(p->buffer[i].value, k + 1, i + 1);
        }
      }
      // Upper edge (cut index alive[k]); skip when it falls beyond the
      // grid (last interval has no upper cut).
      if (p->alive[k] <
          static_cast<int>(grids[p->attr].boundaries().size())) {
        candidate(planner_.CutValue(p->attr, p->alive[k]), k + 1,
                  groups[k].second);
      }
    }

    if (best_s_left < 0) {
      // Degenerate: every candidate puts all records on one side (e.g.
      // the node's records share a single value inside the alive
      // interval). The committed attribute cannot split this node; fall
      // back to collecting the node's records next scan and finishing it
      // with the exact in-memory builder.
      next_->collect.push_back({id, {}});
      return;
    }

    // ---- Merge segments into the two children and flush the buffer.
    std::vector<int64_t> right_counts(nc);
    for (ClassId c = 0; c < nc; ++c) {
      right_counts[c] = totals[c] - best_left_counts[c];
    }
    const NodeId left_id = AddChild(best_left_counts, depth + 1);
    const NodeId right_id = AddChild(right_counts, depth + 1);
    TreeNode& parent = result_->tree.mutable_node(id);
    parent.is_leaf = false;
    parent.split = Split::Numeric(p->attr, best_threshold);
    parent.left = left_id;
    parent.right = right_id;

    auto merge_side = [&](int seg_begin, int seg_end) -> Segment {
      // Move the first segment out and merge the others into it.
      // Segments on one side share the bundle shape except for bivariate
      // X-range bundles, which only occur in the 1-alive derived case
      // where each side is exactly one segment (no merge needed).
      Segment merged = std::move(p->segments[seg_begin]);
      for (int k = seg_begin + 1; k < seg_end; ++k) {
        Segment& other = p->segments[k];
        for (ClassId c = 0; c < nc; ++c) merged.counts[c] += other.counts[c];
        // Only kGrow fresh full-shape bundles can need merging.
        assert(merged.plan == PlanKind::kGrow &&
               other.plan == PlanKind::kGrow);
        merged.bundle.MergeSameShape(other.bundle);
      }
      return merged;
    };

    Segment left_seg = merge_side(0, best_s_left);
    Segment right_seg = merge_side(best_s_left, num_alive + 1);

    for (size_t i = 0; i < p->buffer.size(); ++i) {
      FlushIntoSegment(i < best_buf_left ? &left_seg : &right_seg, store_,
                       p->buffer[i].rid);
    }
    p->buffer.clear();

    // ---- Materialize each side.
    auto finish_side = [&](NodeId child_id, Segment& seg) {
      switch (seg.plan) {
        case PlanKind::kGrow:
          GrowNode(child_id, std::move(seg.bundle), seg.bundle_fresh);
          break;
        case PlanKind::kPending:
          ResolvePending(child_id, seg.sub.get(), depth + 1);
          break;
        case PlanKind::kExact: {
          const int64_t ln = CountSum(seg.exact_left_counts);
          const int64_t rn = CountSum(seg.exact_right_counts);
          if (ln == 0 || rn == 0) {
            // The planned split turned out degenerate on the real
            // records; fall back to growing whichever side has
            // everything.
            GrowNode(child_id, ln == 0 ? std::move(seg.exact_right)
                                       : std::move(seg.exact_left));
            break;
          }
          const NodeId gl = AddChild(seg.exact_left_counts, depth + 2);
          const NodeId gr = AddChild(seg.exact_right_counts, depth + 2);
          TreeNode& child = result_->tree.mutable_node(child_id);
          child.is_leaf = false;
          child.split = seg.exact_split;
          child.left = gl;
          child.right = gr;
          GrowNode(gl, std::move(seg.exact_left));
          GrowNode(gr, std::move(seg.exact_right));
          break;
        }
      }
    };
    finish_side(left_id, left_seg);
    finish_side(right_id, right_seg);
  }

 private:
  /// Queues the two children of a just-split node for the next scan,
  /// left first: the next round grows the fresh list in order, so this
  /// order fixes node-creation order and the serialized tree.
  void PushFreshPair(NodeId left_id, NodeId right_id, HistBundle&& left_b,
                     HistBundle&& right_b) {
    next_->fresh.push_back({left_id, std::move(left_b)});
    next_->fresh.push_back({right_id, std::move(right_b)});
  }

  NodeId AddChild(const std::vector<int64_t>& counts, int depth) {
    TreeNode child;
    child.depth = depth;
    child.class_counts = counts;
    child.leaf_class = Majority(counts);
    child.is_leaf = false;  // provisional; leaves are marked explicitly
    return result_->tree.AddNode(std::move(child));
  }

  void MakeLeaf(NodeId id) { result_->tree.MakeLeaf(id); }

  /// Whether `id` of this executor's tree is the root of the whole build
  /// (a plan task's local root is the node it plans).
  bool IsBuildRoot(NodeId id) const { return id == 0 && tree_root_ == 0; }

  // Finishes one collect partition with the exact in-memory builder
  // under node 0 of `tree`: directly on the dataset when there is one,
  // otherwise on a Dataset materialized from the stash. `pool` (null for
  // none) fans the partition's attribute work out.
  void FinishCollect(const std::vector<RecordId>& rids, DecisionTree* tree,
                     ScanTracker* tracker, ThreadPool* pool) {
    if constexpr (!Store::kStreaming) {
      BuildExactSubtree(*store_.dataset(), rids, options_.base, tree, 0,
                        tracker, pool);
    } else {
      // Streamed: the records live in the stash. Materialize them in
      // ascending rid order, so local record i is global record rids[i];
      // BuildExactSubtree depends only on attribute values and the
      // relative record order, both of which this preserves, so the
      // subtree matches the in-memory build's exactly.
      const Dataset local = store_.Materialize(rids);
      std::vector<RecordId> lrids(static_cast<size_t>(local.num_records()));
      std::iota(lrids.begin(), lrids.end(), 0);
      BuildExactSubtree(local, lrids, options_.base, tree, 0, tracker, pool);
    }
  }

  const SplitPlanner& planner_;
  const Store& store_;
  const CmpOptions& options_;
  BuildResult* result_;
  ScanTracker* tracker_;
  ThreadPool* pool_;  // borrowed, never null
  FrontierQueues* next_;
  // Build-tree id of this executor's node 0: 0 for the build's own tree,
  // the planned node for a plan task's private tree.
  NodeId tree_root_ = 0;
  LineSearchStats line_search_;
};

}  // namespace cmp

#endif  // CMP_CMP_SPLIT_PLAN_H_
