#ifndef CMP_EXACT_EXACT_H_
#define CMP_EXACT_EXACT_H_

#include <cstdint>
#include <vector>

#include "common/dataset.h"
#include "common/thread_pool.h"
#include "hist/histogram1d.h"
#include "io/scan.h"
#include "tree/builder.h"
#include "tree/split.h"
#include "tree/tree.h"

namespace cmp {

/// Result of an exact best-split search over a set of records.
struct ExactSplit {
  Split split;
  double gini = 1.0;
  bool valid = false;
};

/// Finds the exact gini-optimal binary split over ALL attributes for the
/// records `rids` of `ds` (numeric: every distinct-value boundary;
/// categorical: best subset). This is the reference splitter Table 1
/// compares CMP against. It is the root-segment search of
/// BuildExactSubtree: the records are laid out as presorted attribute
/// lists and scored by the same loop. Boundaries are scored in ascending
/// value order and attributes in ascending order; the first lowest gini
/// wins, so ties go to the lower boundary, then the lower attribute. A
/// `pool` fans the attribute sorts and searches across worker threads;
/// the result is identical for any thread count.
///
/// Sort work is charged to `tracker` when provided, as the paper's cost
/// model: one ChargeSort(|rids|) per numeric attribute. The
/// `sort_comparisons` counter is modeled, not counted; it does not
/// depend on how the lists are actually sorted.
ExactSplit FindBestSplitExact(const Dataset& ds,
                              const std::vector<RecordId>& rids,
                              ScanTracker* tracker = nullptr,
                              ThreadPool* pool = nullptr);

/// The stop test every builder applies to a node before searching it:
/// true when the node's class counts `counts` are pure, it holds fewer
/// than min_split_records of its `n` records, it sits at max_depth, or,
/// when `options.prune` is set, PUBLIC(1) says no split of a node over
/// `num_attrs` attributes can pay for itself.
bool StopsBeforeSearch(const std::vector<int64_t>& counts, int64_t n,
                       int depth, int num_attrs, const BuilderOptions& options);

/// A set of records laid out as presorted attribute lists, the layout of
/// SLIQ and SPRINT (PAPER.md baselines). Each numeric attribute is sorted
/// once, on (value, label, position in `rids`). A tree node owns a
/// segment [lo, hi) that every list shares. Splitting a node partitions
/// each segment stably, so each child's segment is a subsequence of a
/// sorted list and stays sorted without a re-sort: its boundary counts
/// are the ones a fresh sort of the child's records would give, and so is
/// every split (DESIGN.md §4c, "Presorted finish"). The one exception is
/// a −0.0 and a 0.0 with the same label, whose order a fresh sort leaves
/// unspecified. Scratch is about 16 bytes per record per numeric
/// attribute; nothing is allocated per boundary or subset.
///
/// A serial partition sorts each numeric list with a stable LSD radix
/// sort through the spill buffer, which then holds a whole list instead
/// of half of one (8 more bytes per record). A fanned-out partition runs
/// its sorts at once, where each would need its own list of scratch, so
/// it uses std::sort. Both give the one order above. Radix wins at every
/// serial size measured (4-vCPU x86-64, one thread, Agrawal F7):
/// 30–37 ns an entry from 256 to 65,536 entries against std::sort's
/// 47–91; `--algo exact` 437 → 356 ms at 250k rows (max RSS 51.7 →
/// 53.7 MB) and 2.19 → 1.96 s at 1M (194 → 202 MB). Fanned-out radix
/// with per-sort scratch ran 250k rows at 4 threads at 70.5 MB max RSS
/// instead of 51.6.
///
/// A `pool` fans the attribute sorts and node searches out; pass one only
/// when this partition runs alone on it. Results are identical for any
/// thread count.
class PresortedPartition {
 public:
  /// A tree node and the segment [lo, hi) its records occupy.
  struct NodeSegment {
    NodeId node;
    int64_t lo;
    int64_t hi;
  };

  /// One entry of a numeric attribute list: a record's value, and its
  /// label above its local index (its position in the partition's rids).
  /// Ordering entries by (value, key) orders them by value, then label,
  /// then local index — a total order, so a sorted list is unique.
  struct ListEntry {
    double value;
    uint64_t key;
  };

  PresortedPartition(const Dataset& ds, const std::vector<RecordId>& rids,
                     ThreadPool* pool);

  int64_t size() const { return n_; }

  /// The list of numeric attribute `a`. Until a split partitions it, it
  /// holds every record sorted by (value, label, local index), with −0.0
  /// equal to 0.0.
  const std::vector<ListEntry>& list(AttrId a) const { return lists_[a]; }

  /// Class counts of the whole partition.
  const std::vector<int64_t>& totals() const { return totals_; }

  /// The exact best split of segment [lo, hi), whose class counts are
  /// `totals` (numeric: every distinct-value boundary; categorical: best
  /// subset). Boundaries are scored in ascending value order and
  /// attributes in ascending order; the first lowest gini wins. Charges
  /// `tracker`, when given, one modeled ChargeSort(hi − lo) per numeric
  /// attribute.
  ExactSplit Search(int64_t lo, int64_t hi, const int64_t* totals,
                    ScanTracker* tracker);

  /// Splits tree node `id`, whose records are segment [lo, hi), on the
  /// best split Search finds over `totals`, the segment's class counts.
  /// Null `totals` reads them from the node; pass them when the node's
  /// class_counts also hold mass from outside the segment (a refit root
  /// keeps its leaf's history), which then enters only the gain test. On
  /// a gini gain that sends records both ways, appends the left and then
  /// the right child to `tree`, partitions the segment stably and returns
  /// `mid`: the left child owns [lo, mid) and the right [mid, hi). A
  /// child that fails StopsBeforeSearch keeps no list contents. Otherwise
  /// the node stays a leaf and the result is −1. Makes no stop test of
  /// its own.
  int64_t SplitNode(int64_t lo, int64_t hi, NodeId id,
                    const BuilderOptions& options, DecisionTree* tree,
                    ScanTracker* tracker, const int64_t* totals = nullptr);

  /// Grows the exact greedy subtree of node `id` over segment [lo, hi):
  /// the stop test, SplitNode (given `totals`), then each child
  /// depth-first on its own counts.
  void Grow(int64_t lo, int64_t hi, NodeId id, const BuilderOptions& options,
            DecisionTree* tree, ScanTracker* tracker,
            const int64_t* totals = nullptr);

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

  // Runs fn(a) for every attribute, across the pool when this partition
  // fans out.
  template <class Fn>
  void ForEachAttr(const Fn& fn);

  void SearchNumeric(AttrId a, int64_t lo, int64_t hi, const int64_t* totals);
  void SearchCategorical(AttrId a, int64_t lo, int64_t hi);
  void MarkLeft(const Split& split, int64_t lo, int64_t hi);
  void SplitSegment(int64_t lo, int64_t hi, int64_t num_left, bool keep_left,
                    bool keep_right);

  const Schema& schema_;
  const int nc_;
  const int64_t n_;
  ThreadPool* const pool_;  // null unless this partition fans out
  std::vector<ClassId> labels_;                // by local index
  std::vector<int64_t> totals_;                // class counts of all records
  std::vector<uint32_t> order_;                // local indices, by segment
  std::vector<std::vector<ListEntry>> lists_;  // numeric attributes
  std::vector<std::vector<int32_t>> cats_;     // categorical, by local index
  std::vector<uint8_t> left_;                  // routing marks, by local index
  std::vector<ListEntry> spill_;  // radix and StablePartition scratch
  std::vector<uint32_t> spill_order_;
  std::vector<AttrSearch> search_;             // by attribute
};

/// Grows an exact greedy subtree for `rids` under the node `root_id` of
/// `tree`: a PresortedPartition of `rids`, grown depth-first. The root is
/// searched on the class counts of `rids`; its own class_counts, which
/// may hold more mass (a refit root), feed its stop and gain tests. Used by every builder
/// once a partition fits in memory (BuilderOptions::in_memory_threshold)
/// — the standard switch RF-Hybrid makes explicit. Honors
/// StopsBeforeSearch. Each searched node charges one modeled
/// ChargeSort(node size) per numeric attribute, as FindBestSplitExact
/// does.
void BuildExactSubtree(const Dataset& ds, const std::vector<RecordId>& rids,
                       const BuilderOptions& options, DecisionTree* tree,
                       NodeId root_id, ScanTracker* tracker = nullptr,
                       ThreadPool* pool = nullptr);

/// Convenience: a whole-tree exact greedy builder (used in tests as the
/// ground-truth classifier and by Table 1's "Exact Algo." column).
class ExactBuilder : public TreeBuilder {
 public:
  explicit ExactBuilder(BuilderOptions options = {}) : options_(options) {}

  BuildResult Build(const Dataset& train) override;
  std::string name() const override { return "Exact"; }

 private:
  BuilderOptions options_;
};

}  // namespace cmp

#endif  // CMP_EXACT_EXACT_H_
