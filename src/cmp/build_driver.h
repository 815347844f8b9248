#ifndef CMP_CMP_BUILD_DRIVER_H_
#define CMP_CMP_BUILD_DRIVER_H_

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cmp/frontier.h"
#include "cmp/options.h"
#include "cmp/record_store.h"
#include "cmp/scan_pass.h"
#include "cmp/split_plan.h"
#include "cmp/variant_policy.h"
#include "common/class_counts.h"
#include "common/column_reader.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "hist/grid_builder.h"
#include "io/scan.h"
#include "pruning/mdl.h"
#include "tree/builder.h"
#include "tree/observer.h"

namespace cmp {

// ---------------------------------------------------------------------
// The build driver. The heavy lifting lives in the pipeline layers:
//   frontier.h    — pending/segment lifecycle, resolve-time routing
//   scan_pass.h   — one tiled, blocked pass: route, then fill sinks
//   split_plan.h  — bundle analysis, split decisions, tree growth
// The driver owns the shared state (grids, interior marks, frontier
// queues), sequences the passes, and reports per-pass observations. It
// holds no per-record state: the scan's live runs name each live
// record's node.
//
// Templated over the record store (record_store.h): the in-memory path
// instantiates it with InMemoryStore + a zero-copy DatasetBlockSource,
// the out-of-core path with StreamStore + a TableBlockSource.

template <class Store>
class CmpBuild {
 public:
  CmpBuild(Store& store, BlockSource& source, const CmpOptions& options,
           ThreadPool* pool, BuildResult* result)
      : store_(store),
        source_(source),
        schema_(store.schema()),
        options_(options),
        policy_(VariantPolicy::For(options.variant)),
        pool_(pool),
        result_(result),
        tracker_(&result->stats) {}

  void Run();

 private:
  void BuildGrids(int64_t n);

  Store& store_;
  BlockSource& source_;
  const Schema& schema_;
  CmpOptions options_;
  VariantPolicy policy_;
  ThreadPool* pool_;  // borrowed, never null (CmpBuilder::Build guarantees)
  BuildResult* result_;
  ScanTracker tracker_;

  std::vector<IntervalGrid> grids_;
  // interior_[a][i] is nonzero iff grid interval i of numeric attribute a
  // contains at least two distinct values in the training set — i.e. an
  // *interior* split point can exist there. Tie buckets (e.g. the spike
  // of commission == 0 in the Agrawal data) collapse to a single value,
  // so the gradient estimate must be clamped to the interval's edge
  // ginis and the interval must never be selected as alive.
  std::vector<std::vector<char>> interior_;
  std::vector<AttrId> numeric_attrs_;

  // This round's work and the work split resolution generates for the
  // next scan.
  FrontierQueues work_;
  FrontierQueues next_;
};

// Discretization: DiscretizeColumn (hist/grid_builder.h) sets up each
// numeric column in three chunked passes, which give its grid, its
// interior marks and, when the store keeps a code matrix, its bin codes
// (record_store.h). In-memory builds read the dataset's column in place;
// streamed builds stage it a chunk at a time, so setup holds O(chunk +
// candidates) per column, never the column. The cuts are selected
// exactly, so grids depend only on the value multiset and the streamed
// and in-memory builds produce identical grids — the first link of the
// streamed-equals-in-memory determinism argument. (The cmp-stream
// trainer grows its grids from quantile sketches in its own driver,
// src/stream/.)
template <class Store>
void CmpBuild<Store>::BuildGrids(int64_t n) {
  tracker_.ChargeScan(n, schema_);
  grids_.assign(schema_.num_attrs(), IntervalGrid());
  interior_.assign(schema_.num_attrs(), {});
  std::vector<int64_t> setup_bytes(schema_.num_attrs(), 0);
  auto build_attr = [&](AttrId a) {
    const std::unique_ptr<ColumnReader> column = source_.OpenNumericColumn(a);
    AttrGridResult result;
    ColumnSetupStats stats;
    if (column == nullptr ||
        !DiscretizeColumn(*column, options_.intervals, kSetupChunkRecords,
                          store_.numeric_codes(a), &result, &stats)) {
      throw std::runtime_error("cmp: failed to read numeric column");
    }
    grids_[a] = std::move(result.grid);
    interior_[a] = std::move(result.interior);
    setup_bytes[a] = stats.buffer_bytes + column->buffer_bytes();
  };
  if (pool_->parallelism() > 1 && numeric_attrs_.size() > 1) {
    pool_->ParallelFor(static_cast<int64_t>(numeric_attrs_.size()), 1,
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t i = lo; i < hi; ++i) {
                           build_attr(numeric_attrs_[i]);
                         }
                       });
  } else {
    for (AttrId a : numeric_attrs_) build_attr(a);
  }
  for (size_t i = 0; i < numeric_attrs_.size(); ++i) tracker_.ChargeSort(n);
  if constexpr (Store::kStreaming) {
    // Setup's buffers as if every column were set up at once, so the
    // figure does not depend on the thread count; the staged blocks are
    // resident too.
    int64_t bytes = source_.resident_bytes();
    for (const int64_t b : setup_bytes) bytes += b;
    tracker_.NotePeakMemory(bytes);
  }
}

template <class Store>
void CmpBuild<Store>::Run() {
  Timer timer;
  const int64_t n = source_.num_records();
  result_->tree = DecisionTree(schema_);
  TrainObserver* const observer = options_.base.observer;

  // Streamed builds report the bytes the scanner actually pulled from
  // the file instead of the disk-simulation charges.
  if (Store::kStreaming) tracker_.set_real_io(true);
  int64_t real_bytes_charged = 0;
  auto charge_real_bytes = [&] {
    if (!Store::kStreaming) return;
    const int64_t total = source_.bytes_read();
    tracker_.ChargeRealBytes(total - real_bytes_charged);
    real_bytes_charged = total;
  };

  if (observer != nullptr) {
    observer->OnBuildStart(policy_.display_name, n);
  }

  TreeNode root;
  root.depth = 0;
  if (const Dataset* full = store_.dataset()) {
    root.class_counts = full->ClassCounts();
  } else {
    std::vector<ClassId> labels;
    if (!source_.ReadLabels(&labels)) {
      throw std::runtime_error("cmp: failed to read label column");
    }
    root.class_counts.assign(schema_.num_classes(), 0);
    for (ClassId c : labels) {
      // The in-memory loader validates labels on load; the streamed path
      // sees raw column bytes, so a corrupt table must fail here rather
      // than index out of bounds.
      if (c < 0 || c >= schema_.num_classes()) {
        throw std::runtime_error("cmp: label out of range (corrupt table?)");
      }
      root.class_counts[c]++;
    }
  }
  root.leaf_class = Majority(root.class_counts);
  const NodeId root_id = result_->tree.AddNode(std::move(root));
  if (n == 0) {
    result_->tree.MakeLeaf(root_id);
    result_->stats.wall_seconds = timer.Seconds();
    if (observer != nullptr) observer->OnBuildEnd(result_->stats);
    return;
  }

  numeric_attrs_ = schema_.NumericAttrs();
  // A build that finishes entirely in memory (root collected before any
  // histogram scan) never reads a bin code; an in-memory store then
  // encodes no code matrix.
  const bool collect_only = options_.base.in_memory_threshold > 0 &&
                            n <= options_.base.in_memory_threshold;
  if (!collect_only) store_.StartCodes();
  BuildGrids(n);
  store_.FinishCodes(grids_, std::min(n, kScanTileRecords), pool_);
  tracker_.NotePeakMemory(store_.code_bytes());
  charge_real_bytes();

  // The three pipeline layers, wired over the shared state above.
  const SplitPlanner planner(schema_, options_, policy_, grids_, interior_,
                             numeric_attrs_, pool_);
  SplitExecutor<Store> executor(planner, store_, options_, result_,
                                &tracker_, pool_, &next_);
  ScanPass<Store> scan(store_, source_, grids_, result_->tree, pool_,
                       &tracker_, options_.scan_shards);

  if (collect_only) {
    work_.collect.push_back({root_id, {}});
  } else if (planner.bivariate()) {
    const AttrId x = numeric_attrs_.front();
    work_.fresh.push_back(
        {root_id, HistBundle::MakeBivariate(schema_, grids_, x, 0,
                                            grids_[x].num_intervals())});
  } else {
    work_.fresh.push_back(
        {root_id, HistBundle::MakeUnivariate(schema_, grids_)});
  }

  result_->stats.setup_seconds = timer.Seconds();
  int pass_index = 0;
  while (!work_.Empty()) {
    PassObservation po;
    po.pass = pass_index++;
    po.records_scanned = n;
    po.frontier_fresh = static_cast<int64_t>(work_.fresh.size());
    po.frontier_pending = static_cast<int64_t>(work_.pending.size());
    po.frontier_collect = static_cast<int64_t>(work_.collect.size());
    const int64_t bytes_before = result_->stats.bytes_read;

    Timer scan_timer;
    scan.Run(work_, &po);
    charge_real_bytes();
    po.scan_seconds = scan_timer.Seconds();

    if (observer != nullptr) {
      for (const PendingWork& w : work_.pending) {
        po.alive_intervals += CountAliveIntervals(*w.pending);
        po.buffered_records += CountBufferedRecords(*w.pending);
        po.buffer_bytes += w.pending->MemoryBytes();
      }
      if constexpr (Store::kStreaming) {
        po.buffer_bytes += store_.stash_bytes();
      }
    }

    // Finish the collected partitions and plan the fresh and pending
    // nodes as one round of tasks (SplitExecutor::RunRound). The round's
    // wall time is split between finish and plan in proportion to the
    // busy seconds of their tasks, so the phases still sum to wall time.
    next_.Clear();
    Timer round_timer;
    const auto busy = executor.RunRound(work_);
    const double round_seconds = round_timer.Seconds();
    const double busy_seconds = busy.finish_seconds + busy.plan_seconds;
    po.finish_seconds =
        busy_seconds > 0.0
            ? round_seconds * (busy.finish_seconds / busy_seconds)
            : 0.0;
    po.plan_seconds = round_seconds - po.finish_seconds;
    const LineSearchStats line_search = executor.TakeLineSearchStats();
    po.line_search_seconds = line_search.search_seconds;
    po.line_refine_seconds = line_search.refine_seconds;
    po.lines_evaluated = line_search.lines_evaluated;
    po.lines_skipped = line_search.lines_skipped;

    if constexpr (Store::kStreaming) {
      // Every retained record has been consumed (collect subtrees built,
      // pending splits resolved); the stash restarts empty next round.
      store_.ClearStash();
    }

    work_ = std::move(next_);
    next_.Clear();

    po.bytes_read = result_->stats.bytes_read - bytes_before;
    po.tree_nodes = result_->tree.num_nodes();
    if (observer != nullptr) observer->OnPass(po);
  }

  if (options_.base.prune) PruneTreeMdl(&result_->tree);
  result_->stats.tree_nodes = result_->tree.num_nodes();
  result_->stats.tree_depth = result_->tree.Depth();
  result_->stats.wall_seconds = timer.Seconds();
  if (observer != nullptr) observer->OnBuildEnd(result_->stats);
}

}  // namespace cmp

#endif  // CMP_CMP_BUILD_DRIVER_H_
