#include "exact/exact.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "common/class_counts.h"
#include "common/timer.h"
#include "gini/categorical.h"
#include "gini/gini.h"
#include "hist/histogram1d.h"
#include "pruning/mdl.h"
#include "tree/observer.h"

namespace cmp {

namespace {

// One entry of a numeric attribute list: a record's value, and its label
// above its local index (its position in the partition's `rids`).
// Ordering entries by (value, key) orders them by value, then label, then
// local index — a total order, so a sorted list is unique.
struct ListEntry {
  double value;
  uint64_t key;
};

bool operator<(const ListEntry& x, const ListEntry& y) {
  return x.value < y.value || (x.value == y.value && x.key < y.key);
}

ClassId LabelOf(const ListEntry& e) {
  return static_cast<ClassId>(e.key >> 32);
}
uint32_t IndexOf(const ListEntry& e) { return static_cast<uint32_t>(e.key); }

// Distinct-value boundaries scored per ScanBoundaryGinis call.
constexpr int kChunkBoundaries = 256;

// Stably moves the `num_left` elements of [first, first + n) for which
// `is_left` holds in front of the others. A side that is not kept is
// dropped (its range is left unspecified). The smaller kept side passes
// through `spill`, so `spill` needs room for min(num_left, n - num_left)
// elements; the larger one is compacted in place.
template <class T, class IsLeft>
void StablePartition(T* first, int64_t n, int64_t num_left, bool keep_left,
                     bool keep_right, IsLeft is_left, T* spill) {
  if (keep_right && (!keep_left || num_left <= n - num_left)) {
    // Right elements compact backward: each one's destination is at or
    // after its source, and every slot past the write cursor was read.
    T* w = first + n;
    int64_t s = 0;
    for (int64_t i = n; i-- > 0;) {
      if (!is_left(first[i])) {
        *--w = first[i];
      } else if (keep_left) {
        spill[s++] = first[i];
      }
    }
    for (int64_t k = 0; k < s; ++k) first[k] = spill[s - 1 - k];
  } else {
    T* w = first;
    int64_t s = 0;
    for (int64_t i = 0; i < n; ++i) {
      if (is_left(first[i])) {
        *w++ = first[i];
      } else if (keep_right) {
        spill[s++] = first[i];
      }
    }
    std::copy(spill, spill + s, w);
  }
}

// A partition's records as presorted attribute lists, the layout of
// SLIQ and SPRINT (PAPER.md baselines). Each numeric attribute is sorted
// once, by (value, label, local index). A node is a segment [lo, hi)
// that every list, and `order_`, share. Splitting a node partitions each
// segment stably, so each child's segment is a subsequence of a sorted
// list and stays sorted: its boundary counts are the ones a fresh sort of
// the child's records would give (DESIGN.md §4c, "Presorted finish").
class PresortedPartition {
 public:
  PresortedPartition(const Dataset& ds, const std::vector<RecordId>& rids,
                     ThreadPool* pool)
      : schema_(ds.schema()),
        nc_(ds.num_classes()),
        n_(static_cast<int64_t>(rids.size())),
        pool_(pool != nullptr && pool->parallelism() > 1 ? pool : nullptr) {
    if (n_ > static_cast<int64_t>(std::numeric_limits<uint32_t>::max())) {
      throw std::length_error("exact finish: partition exceeds 2^32 records");
    }
    labels_.resize(n_);
    order_.resize(n_);
    totals_.assign(nc_, 0);
    for (int64_t i = 0; i < n_; ++i) {
      labels_[i] = ds.label(rids[i]);
      order_[i] = static_cast<uint32_t>(i);
      totals_[labels_[i]]++;
    }
    left_.resize(n_);
    spill_order_.resize(n_ / 2);
    const int na = schema_.num_attrs();
    lists_.resize(na);
    cats_.resize(na);
    search_.resize(na);
    bool any_numeric = false;
    for (AttrId a = 0; a < na; ++a) any_numeric |= schema_.is_numeric(a);
    if (any_numeric) spill_.resize(n_ / 2);
    ForEachAttr([&](AttrId a) {
      AttrSearch& s = search_[a];
      if (schema_.is_numeric(a)) {
        std::vector<ListEntry>& list = lists_[a];
        list.resize(n_);
        for (int64_t i = 0; i < n_; ++i) {
          list[i] = {ds.numeric(a, rids[i]),
                     (static_cast<uint64_t>(labels_[i]) << 32) |
                         static_cast<uint64_t>(i)};
        }
        std::sort(list.begin(), list.end());
        s.below.resize(nc_);
        s.prefix.resize(static_cast<size_t>(kChunkBoundaries) * nc_);
        s.ginis.resize(kChunkBoundaries);
        s.thresholds.resize(kChunkBoundaries);
      } else {
        std::vector<int32_t>& cat = cats_[a];
        cat.resize(n_);
        for (int64_t i = 0; i < n_; ++i) cat[i] = ds.categorical(a, rids[i]);
        s.hist = Histogram1D(schema_.attr(a).cardinality, nc_);
      }
    });
  }

  int64_t size() const { return n_; }

  /// Class counts of the whole partition.
  const std::vector<int64_t>& totals() const { return totals_; }

  /// The exact best split of segment [lo, hi), whose class counts are
  /// `totals`. Charges one modeled sort per numeric attribute.
  ExactSplit Search(int64_t lo, int64_t hi, const int64_t* totals,
                    ScanTracker* tracker) {
    ForEachAttr([&](AttrId a) {
      if (schema_.is_numeric(a)) {
        SearchNumeric(a, lo, hi, totals);
      } else {
        SearchCategorical(a, lo, hi);
      }
    });
    // Reduce in ascending attribute order: ties go to the lowest one.
    AttrId winner = kInvalidAttr;
    double best_gini = std::numeric_limits<double>::infinity();
    for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
      if (tracker != nullptr && schema_.is_numeric(a)) {
        tracker->ChargeSort(hi - lo);
      }
      const ExactSplit& s = search_[a].best;
      if (s.valid && s.gini < best_gini) {
        best_gini = s.gini;
        winner = a;
      }
    }
    if (winner == kInvalidAttr) {
      ExactSplit none;
      none.gini = best_gini;
      return none;
    }
    return std::move(search_[winner].best);
  }

  /// Grows the subtree of tree node `id`, whose records are segment
  /// [lo, hi). `totals` are the segment's class counts, or null to read
  /// them from the node.
  void Grow(int64_t lo, int64_t hi, NodeId id, const int64_t* totals,
            const BuilderOptions& options, DecisionTree* tree,
            ScanTracker* tracker) {
    const TreeNode& node = tree->node(id);
    const int depth = node.depth;
    if (!Stops(node.class_counts, hi - lo, depth, options)) {
      if (totals == nullptr) totals = node.class_counts.data();
      ExactSplit best = Search(lo, hi, totals, tracker);
      if (best.valid && best.gini < Gini(node.class_counts) - 1e-12) {
        MarkLeft(best.split, lo, hi);
        std::vector<int64_t> left_counts(nc_, 0);
        std::vector<int64_t> right_counts(nc_, 0);
        for (int64_t i = lo; i < hi; ++i) {
          const uint32_t r = order_[i];
          (left_[r] != 0 ? left_counts : right_counts)[labels_[r]]++;
        }
        const int64_t num_left = CountSum(left_counts);
        if (num_left > 0 && num_left < hi - lo) {
          const int64_t mid = lo + num_left;
          SplitSegment(lo, hi, num_left,
                       !Stops(left_counts, num_left, depth + 1, options),
                       !Stops(right_counts, hi - mid, depth + 1, options));
          TreeNode left;
          left.depth = depth + 1;
          left.class_counts = std::move(left_counts);
          left.leaf_class = Majority(left.class_counts);
          TreeNode right;
          right.depth = depth + 1;
          right.class_counts = std::move(right_counts);
          right.leaf_class = Majority(right.class_counts);
          const NodeId left_id = tree->AddNode(std::move(left));
          const NodeId right_id = tree->AddNode(std::move(right));
          // `node` may be dangling after AddNode reallocations; refetch.
          TreeNode& parent = tree->mutable_node(id);
          parent.is_leaf = false;
          parent.split = std::move(best.split);
          parent.left = left_id;
          parent.right = right_id;
          Grow(lo, mid, left_id, nullptr, options, tree, tracker);
          Grow(mid, hi, right_id, nullptr, options, tree, tracker);
          return;
        }
      }
    }
    TreeNode& leaf = tree->mutable_node(id);
    leaf.is_leaf = true;
    leaf.leaf_class = Majority(leaf.class_counts);
  }

 private:
  // One attribute's search state, reused at every node.
  struct AttrSearch {
    ExactSplit best;
    // Numeric: running class counts, and a chunk of boundaries' prefix
    // rows, ginis and thresholds.
    std::vector<int64_t> below;
    std::vector<int64_t> prefix;
    std::vector<double> ginis;
    std::vector<double> thresholds;
    // Categorical: the node's per-value class histogram.
    Histogram1D hist;
  };

  // The stop test of a node with class counts `counts`, `n` records and
  // depth `depth`, before any split search.
  bool Stops(const std::vector<int64_t>& counts, int64_t n, int depth,
             const BuilderOptions& options) const {
    return IsPure(counts) || n < options.min_split_records ||
           depth >= options.max_depth ||
           (options.prune &&
            ShouldPruneBeforeExpand(counts, schema_.num_attrs()));
  }

  // Runs fn(a) for every attribute, across the pool when this partition
  // fans out.
  template <class Fn>
  void ForEachAttr(const Fn& fn) {
    const int na = schema_.num_attrs();
    if (pool_ != nullptr) {
      pool_->ParallelFor(na, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t a = lo; a < hi; ++a) fn(static_cast<AttrId>(a));
      });
    } else {
      for (AttrId a = 0; a < na; ++a) fn(a);
    }
  }

  // Scores every distinct-value boundary of attribute `a` over [lo, hi),
  // in ascending value order, keeping the first lowest gini.
  void SearchNumeric(AttrId a, int64_t lo, int64_t hi, const int64_t* totals) {
    AttrSearch& s = search_[a];
    s.best = ExactSplit{};
    s.best.gini = std::numeric_limits<double>::infinity();
    double threshold = 0.0;
    int nb = 0;
    auto flush = [&] {
      ScanBoundaryGinis(s.prefix.data(), nb, nc_, totals, s.ginis.data());
      for (int b = 0; b < nb; ++b) {
        if (s.ginis[b] < s.best.gini) {
          s.best.gini = s.ginis[b];
          threshold = s.thresholds[b];
          s.best.valid = true;
        }
      }
      nb = 0;
    };
    const ListEntry* list = lists_[a].data();
    int64_t* below = s.below.data();
    std::fill(below, below + nc_, 0);
    for (int64_t i = lo; i + 1 < hi; ++i) {
      below[LabelOf(list[i])]++;
      if (list[i].value == list[i + 1].value) continue;
      std::copy(below, below + nc_,
                s.prefix.data() + static_cast<size_t>(nb) * nc_);
      s.thresholds[nb] = list[i].value;
      if (++nb == kChunkBoundaries) flush();
    }
    flush();
    if (s.best.valid) s.best.split = Split::Numeric(a, threshold);
  }

  void SearchCategorical(AttrId a, int64_t lo, int64_t hi) {
    AttrSearch& s = search_[a];
    s.best = ExactSplit{};
    s.best.gini = std::numeric_limits<double>::infinity();
    s.hist.ZeroStorage();
    const int32_t* cat = cats_[a].data();
    for (int64_t i = lo; i < hi; ++i) {
      const uint32_t r = order_[i];
      s.hist.Add(cat[r], labels_[r]);
    }
    CategoricalSplit cs = BestCategoricalSplit(s.hist);
    if (cs.valid) {
      s.best.gini = cs.gini;
      s.best.split = Split::Categorical(a, std::move(cs.left_subset));
      s.best.valid = true;
    }
  }

  // left_[r] = whether record r of segment [lo, hi) routes left. A
  // numeric split reads the values from its attribute's list.
  void MarkLeft(const Split& split, int64_t lo, int64_t hi) {
    if (split.kind == Split::Kind::kNumeric) {
      const ListEntry* list = lists_[split.attr].data();
      for (int64_t i = lo; i < hi; ++i) {
        left_[IndexOf(list[i])] = list[i].value <= split.threshold;
      }
    } else {
      const int32_t* cat = cats_[split.attr].data();
      const auto card = static_cast<int32_t>(split.left_subset.size());
      for (int64_t i = lo; i < hi; ++i) {
        const uint32_t r = order_[i];
        const int32_t v = cat[r];
        left_[r] = v >= 0 && v < card && split.left_subset[v] != 0;
      }
    }
  }

  // Partitions segment [lo, hi) of `order_` and of every numeric list by
  // left_, keeping only the sides whose child will be searched.
  void SplitSegment(int64_t lo, int64_t hi, int64_t num_left, bool keep_left,
                    bool keep_right) {
    if (!keep_left && !keep_right) return;
    const uint8_t* left = left_.data();
    StablePartition(
        order_.data() + lo, hi - lo, num_left, keep_left, keep_right,
        [left](uint32_t r) { return left[r] != 0; }, spill_order_.data());
    for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
      if (!schema_.is_numeric(a)) continue;
      StablePartition(
          lists_[a].data() + lo, hi - lo, num_left, keep_left, keep_right,
          [left](const ListEntry& e) { return left[IndexOf(e)] != 0; },
          spill_.data());
    }
  }

  const Schema& schema_;
  const int nc_;
  const int64_t n_;
  ThreadPool* const pool_;  // null unless this partition fans out
  std::vector<ClassId> labels_;               // by local index
  std::vector<int64_t> totals_;               // class counts of all records
  std::vector<uint32_t> order_;               // local indices, by segment
  std::vector<std::vector<ListEntry>> lists_;  // numeric attributes
  std::vector<std::vector<int32_t>> cats_;    // categorical, by local index
  std::vector<uint8_t> left_;                 // routing marks, by local index
  std::vector<ListEntry> spill_;              // StablePartition's buffers
  std::vector<uint32_t> spill_order_;
  std::vector<AttrSearch> search_;            // by attribute
};

}  // namespace

ExactSplit FindBestSplitExact(const Dataset& ds,
                              const std::vector<RecordId>& rids,
                              ScanTracker* tracker, ThreadPool* pool) {
  PresortedPartition partition(ds, rids, pool);
  ExactSplit best = partition.Search(0, partition.size(),
                                     partition.totals().data(), tracker);
  if (!best.valid) best.gini = Gini(partition.totals());
  return best;
}

void BuildExactSubtree(const Dataset& ds, const std::vector<RecordId>& rids,
                       const BuilderOptions& options, DecisionTree* tree,
                       NodeId root_id, ScanTracker* tracker,
                       ThreadPool* pool) {
  PresortedPartition partition(ds, rids, pool);
  partition.Grow(0, partition.size(), root_id, partition.totals().data(),
                 options, tree, tracker);
}

BuildResult ExactBuilder::Build(const Dataset& train) {
  BuildResult result;
  ScanTracker tracker(&result.stats);
  Timer timer;
  TrainObserver* const observer = options_.observer;
  if (observer != nullptr) {
    observer->OnBuildStart(name(), train.num_records());
  }

  result.tree = DecisionTree(train.schema());
  std::vector<RecordId> rids(train.num_records());
  for (RecordId r = 0; r < train.num_records(); ++r) rids[r] = r;

  TreeNode root;
  root.depth = 0;
  root.class_counts = train.ClassCounts();
  root.leaf_class = Majority(root.class_counts);
  const NodeId root_id = result.tree.AddNode(std::move(root));

  // The exact builder re-reads the partition once per level in a disk
  // implementation; as an in-memory reference we charge a single scan
  // (its cost counters are not used in figure reproductions).
  tracker.ChargeScan(train);
  ThreadPool pool(options_.num_threads);
  BuildExactSubtree(train, rids, options_, &result.tree, root_id, &tracker,
                    &pool);
  if (options_.prune) PruneTreeMdl(&result.tree);

  result.stats.tree_nodes = result.tree.num_nodes();
  result.stats.tree_depth = result.tree.Depth();
  result.stats.wall_seconds = timer.Seconds();
  if (observer != nullptr) {
    // The recursive build has no scan rounds; report it as one pass.
    PassObservation po;
    po.records_scanned = train.num_records();
    po.scan_seconds = result.stats.wall_seconds;
    po.tree_nodes = result.stats.tree_nodes;
    observer->OnPass(po);
    observer->OnBuildEnd(result.stats);
  }
  return result;
}

}  // namespace cmp
