#include "exact/exact.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/class_counts.h"
#include "common/timer.h"
#include "gini/categorical.h"
#include "gini/gini.h"
#include "hist/histogram1d.h"
#include "hist/quantiles.h"
#include "pruning/mdl.h"
#include "tree/observer.h"

namespace cmp {

namespace {

// A list entry's key holds the label above the local index.
ClassId LabelOf(uint64_t key) { return static_cast<ClassId>(key >> 32); }
uint32_t IndexOf(uint64_t key) { return static_cast<uint32_t>(key); }

void MakeLeaf(DecisionTree* tree, NodeId id) {
  TreeNode& leaf = tree->mutable_node(id);
  leaf.is_leaf = true;
  leaf.leaf_class = Majority(leaf.class_counts);
}

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

using ListEntry = PresortedPartition::ListEntry;

// Sorts `list`, filled in local-index order, by (value, label, local
// index) with a stable LSD radix sort: a counting pass on the label, then
// one pass per byte of the value's OrderKey from the lowest, skipping
// bytes every entry shares. −0.0 takes 0.0's key, so they tie as `<` has
// them. `label_counts` are the list's class counts; `scratch` holds as
// many entries as `list`, and the two may trade buffers.
void RadixSortList(std::vector<ListEntry>* list,
                   std::vector<ListEntry>* scratch,
                   const std::vector<int64_t>& label_counts) {
  const size_t n = list->size();
  if (n < 2) return;
  ListEntry* src = list->data();
  ListEntry* dst = scratch->data();
  auto value_key = [](double v) { return OrderKey(v == 0.0 ? 0.0 : v); };
  int classes_present = 0;
  for (const int64_t c : label_counts) classes_present += c > 0;
  if (classes_present > 1) {
    std::vector<int64_t> next(label_counts.size(), 0);
    for (size_t c = 1; c < next.size(); ++c) {
      next[c] = next[c - 1] + label_counts[c - 1];
    }
    for (size_t i = 0; i < n; ++i) dst[next[LabelOf(src[i].key)]++] = src[i];
    std::swap(src, dst);
  }
  constexpr int kBytes = sizeof(uint64_t);
  uint32_t counts[kBytes][256] = {};
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = value_key(src[i].value);
    for (int b = 0; b < kBytes; ++b) counts[b][(k >> (8 * b)) & 0xFF]++;
  }
  for (int b = 0; b < kBytes; ++b) {
    uint32_t* const count = counts[b];
    if (count[(value_key(src[0].value) >> (8 * b)) & 0xFF] == n) continue;
    uint32_t next = 0;
    for (int d = 0; d < 256; ++d) {
      const uint32_t c = count[d];
      count[d] = next;
      next += c;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[count[(value_key(src[i].value) >> (8 * b)) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != list->data()) list->swap(*scratch);
}

}  // namespace

bool StopsBeforeSearch(const std::vector<int64_t>& counts, int64_t n,
                       int depth, int num_attrs,
                       const BuilderOptions& options) {
  return IsPure(counts) || n < options.min_split_records ||
         depth >= options.max_depth ||
         (options.prune && ShouldPruneBeforeExpand(counts, num_attrs));
}

template <class Fn>
void PresortedPartition::ForEachAttr(const Fn& fn) {
  const int na = schema_.num_attrs();
  if (pool_ != nullptr) {
    pool_->ParallelFor(na, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t a = lo; a < hi; ++a) fn(static_cast<AttrId>(a));
    });
  } else {
    for (AttrId a = 0; a < na; ++a) fn(a);
  }
}

PresortedPartition::PresortedPartition(const Dataset& ds,
                                       const std::vector<RecordId>& rids,
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
  // A serial partition radix-sorts its lists one after another through
  // spill_, which then holds a whole list. Fanned out, the sorts run at
  // once and each would need its own list of scratch, so they use
  // std::sort.
  const bool radix = pool_ == nullptr;
  if (any_numeric) spill_.resize(radix ? n_ : n_ / 2);
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
      if (radix) {
        RadixSortList(&list, &spill_, totals_);
      } else {
        // A lambda, not a function pointer, so std::sort inlines it.
        std::sort(list.begin(), list.end(),
                  [](const ListEntry& x, const ListEntry& y) {
                    return x.value < y.value ||
                           (x.value == y.value && x.key < y.key);
                  });
      }
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

ExactSplit PresortedPartition::Search(int64_t lo, int64_t hi,
                                      const int64_t* totals,
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

int64_t PresortedPartition::SplitNode(int64_t lo, int64_t hi, NodeId id,
                                      const BuilderOptions& options,
                                      DecisionTree* tree,
                                      ScanTracker* tracker,
                                      const int64_t* totals) {
  const TreeNode& node = tree->node(id);
  const int depth = node.depth;
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
      const int na = schema_.num_attrs();
      SplitSegment(
          lo, hi, num_left,
          !StopsBeforeSearch(left_counts, num_left, depth + 1, na, options),
          !StopsBeforeSearch(right_counts, hi - mid, depth + 1, na, options));
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
      return mid;
    }
  }
  MakeLeaf(tree, id);
  return -1;
}

void PresortedPartition::Grow(int64_t lo, int64_t hi, NodeId id,
                              const BuilderOptions& options,
                              DecisionTree* tree, ScanTracker* tracker,
                              const int64_t* totals) {
  const TreeNode& node = tree->node(id);
  if (StopsBeforeSearch(node.class_counts, hi - lo, node.depth,
                        schema_.num_attrs(), options)) {
    MakeLeaf(tree, id);
    return;
  }
  const int64_t mid = SplitNode(lo, hi, id, options, tree, tracker, totals);
  if (mid < 0) return;
  const NodeId right_id = tree->node(id).right;
  Grow(lo, mid, tree->node(id).left, options, tree, tracker);
  Grow(mid, hi, right_id, options, tree, tracker);
}

// Scores every distinct-value boundary of attribute `a` over [lo, hi),
// in ascending value order, keeping the first lowest gini.
void PresortedPartition::SearchNumeric(AttrId a, int64_t lo, int64_t hi,
                                       const int64_t* totals) {
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
    below[LabelOf(list[i].key)]++;
    if (list[i].value == list[i + 1].value) continue;
    std::copy(below, below + nc_,
              s.prefix.data() + static_cast<size_t>(nb) * nc_);
    s.thresholds[nb] = list[i].value;
    if (++nb == kChunkBoundaries) flush();
  }
  flush();
  if (s.best.valid) s.best.split = Split::Numeric(a, threshold);
}

void PresortedPartition::SearchCategorical(AttrId a, int64_t lo, int64_t hi) {
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

// left_[r] = whether record r of segment [lo, hi) routes left. A numeric
// split reads the values from its attribute's list.
void PresortedPartition::MarkLeft(const Split& split, int64_t lo,
                                  int64_t hi) {
  if (split.kind == Split::Kind::kNumeric) {
    const ListEntry* list = lists_[split.attr].data();
    for (int64_t i = lo; i < hi; ++i) {
      left_[IndexOf(list[i].key)] = list[i].value <= split.threshold;
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
void PresortedPartition::SplitSegment(int64_t lo, int64_t hi,
                                      int64_t num_left, bool keep_left,
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
        [left](const ListEntry& e) { return left[IndexOf(e.key)] != 0; },
        spill_.data());
  }
}

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
  partition.Grow(0, partition.size(), root_id, options, tree, tracker,
                 partition.totals().data());
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
