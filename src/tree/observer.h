#ifndef CMP_TREE_OBSERVER_H_
#define CMP_TREE_OBSERVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"

namespace cmp {

/// One completed pass (scan round / tree level) of a scan-based tree
/// builder. CMP fills every field from its layered pipeline; the other
/// builders report the coarse subset that exists for them (pass index,
/// records, frontier size, tree size) and leave the rest at zero.
struct PassObservation {
  int pass = 0;  // 0-based pass index
  /// Wall seconds routing records + filling histograms this pass.
  double scan_seconds = 0.0;
  /// Wall seconds analyzing bundles, planning and resolving splits. CMP
  /// runs this work and the exact finish (finish_seconds) as one round
  /// of tasks; the round's wall time is split between the two in
  /// proportion to the busy seconds of its plan tasks and its collect
  /// tasks, so the two still sum to the round's wall time. A round
  /// without collects reports 0 finish seconds, one without fresh or
  /// pending nodes 0 plan seconds.
  double plan_seconds = 0.0;
  /// CMP only (0 otherwise): the linear-split search inside plan. Seconds
  /// of the coarse per-Y line searches, summed across the pool threads
  /// they run on; seconds refining winning lines at full resolution;
  /// candidate lines scored; and per-Y searches skipped because no line
  /// of that matrix could be adopted. No thread count changes the counts.
  double line_search_seconds = 0.0;
  double line_refine_seconds = 0.0;
  int64_t lines_evaluated = 0;
  int64_t lines_skipped = 0;
  /// Wall seconds finishing in-memory partitions with the exact builder
  /// (CMP: the collect tasks' share of the round; see plan_seconds).
  double finish_seconds = 0.0;
  int64_t records_scanned = 0;
  /// Bytes read this pass (real I/O for streamed builds, disk-simulation
  /// charges otherwise).
  int64_t bytes_read = 0;
  /// Frontier composition at the start of the pass.
  int64_t frontier_fresh = 0;    // nodes awaiting their first histograms
  int64_t frontier_pending = 0;  // approximate splits awaiting resolution
  int64_t frontier_collect = 0;  // partitions being collected for exact finish
  /// Alive intervals across all pending splits (nested ones included).
  int64_t alive_intervals = 0;
  /// Records set aside in pending buffers during this pass.
  int64_t buffered_records = 0;
  /// Bytes of pending/buffer state (plus the streamed stash) after the
  /// scan — the build's frontier-memory high-water contribution.
  int64_t buffer_bytes = 0;
  /// Nodes in the tree after the pass was applied.
  int64_t tree_nodes = 0;
  /// CMP only (0 otherwise): wall seconds of the scan's two phases. The
  /// route phase descends every live record to its sink (a streamed
  /// build encodes its numeric codes first) and regroups the survivors
  /// into the next pass's live lists; the accumulate
  /// (kernel) phase fills the sinks' histograms, buffers and collect
  /// lists. Both are subsets of scan_seconds.
  double route_seconds = 0.0;
  double kernel_seconds = 0.0;
  /// CMP only (0 otherwise): live records the route phase visited — all
  /// of them on the first pass, then those the previous pass sent to a
  /// sink. records_scanned stays the full table (the cost model).
  int64_t records_routed = 0;
  /// CMP only: resident bytes of the record store's bin codes (the
  /// whole-table matrix in memory, the tile columns streamed; 0 for a
  /// build that only collects).
  int64_t code_cache_bytes = 0;
  /// Always 0: fresh bundles are always accumulated by the scan. Kept
  /// because the `--stats-json` key is read by the repository benchmark.
  int64_t sibling_subtractions = 0;
  /// Streaming training only (0 otherwise): resident bytes of quantile
  /// sketch state across the frontier after this pass.
  int64_t sketch_bytes = 0;
  /// Refit only (0 otherwise): drifted leaves whose subtrees this pass
  /// started regrowing.
  int64_t refit_leaves_regrown = 0;
};

/// Training observability hook. Builders that support it (all library
/// builders; CMP with full per-phase detail) invoke the callbacks from
/// the build thread, in pass order. Implementations must not retain
/// references past the callback. See `cmptool train --stats-json` for
/// the ready-made JSON surface.
class TrainObserver {
 public:
  virtual ~TrainObserver() = default;

  /// Called once before the first pass. `builder` is the algorithm's
  /// display name, `records` the training-set size.
  virtual void OnBuildStart(const std::string& builder, int64_t records) {
    (void)builder;
    (void)records;
  }

  /// Called after each completed pass.
  virtual void OnPass(const PassObservation& pass) { (void)pass; }

  /// Called once after construction (post-pruning) with the final
  /// counters.
  virtual void OnBuildEnd(const BuildStats& stats) { (void)stats; }
};

/// Ready-made observer that records every pass and renders the whole
/// training run as JSON (used by `cmptool train --stats-json`).
class TrainStatsCollector : public TrainObserver {
 public:
  void OnBuildStart(const std::string& builder, int64_t records) override;
  void OnPass(const PassObservation& pass) override;
  void OnBuildEnd(const BuildStats& stats) override;

  const std::vector<PassObservation>& passes() const { return passes_; }
  const BuildStats& final_stats() const { return final_stats_; }
  /// Kernel ISA ("scalar" | "avx2") active when the observed build
  /// started, captured in OnBuildStart. Only tree descent dispatches on
  /// it; training kernels are the same on every tier.
  const std::string& kernel_isa() const { return kernel_isa_; }

  /// Seconds the caller spent around the build: loading the training
  /// data and saving the model. They are reported as the top-level "io"
  /// object, named after the benchmark's io.load_s and io.save_s; zero
  /// unless set.
  void SetIoSeconds(double load_s, double save_s) {
    load_seconds_ = load_s;
    save_seconds_ = save_s;
  }

  /// The run as a JSON object: builder, record count, load and save
  /// seconds, per-pass metrics and the final BuildStats counters.
  std::string ToJson() const;

 private:
  std::string builder_;
  std::string kernel_isa_;
  int64_t records_ = 0;
  std::vector<PassObservation> passes_;
  BuildStats final_stats_;
  bool finished_ = false;
  double load_seconds_ = 0.0;
  double save_seconds_ = 0.0;
};

}  // namespace cmp

#endif  // CMP_TREE_OBSERVER_H_
