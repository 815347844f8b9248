#ifndef CMP_EXACT_EXACT_H_
#define CMP_EXACT_EXACT_H_

#include <vector>

#include "common/dataset.h"
#include "common/thread_pool.h"
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

/// Grows an exact greedy subtree for `rids` under the node `root_id` of
/// `tree` (whose class_counts must already describe `rids`). Used by
/// every builder once a partition fits in memory
/// (BuilderOptions::in_memory_threshold) — the standard switch
/// RF-Hybrid makes explicit. Honors min_split_records, max_depth and,
/// when `options.prune` is set, the PUBLIC(1) stop test.
///
/// The partition is sorted once per numeric attribute, on (value, label,
/// position in `rids`), as SLIQ's and SPRINT's attribute lists are. Each
/// node is a segment of every list, and a split partitions the segments
/// stably, so each child's lists stay sorted without a re-sort. Every
/// node's split, and so the subtree, equals what sorting the node's
/// records afresh would give (DESIGN.md §4c, "Presorted finish"); the
/// one exception is a −0.0 and a 0.0 with the same label, whose order a
/// fresh sort leaves unspecified. Scratch is one set of lists per call,
/// about 16 bytes per record per numeric attribute; nothing is allocated
/// per boundary or subset. A `pool` fans the attribute sorts and node
/// searches out; pass one only when this partition runs alone on it.
/// Each searched node charges one modeled ChargeSort(node size) per
/// numeric attribute, as FindBestSplitExact does.
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
