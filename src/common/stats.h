#ifndef CMP_COMMON_STATS_H_
#define CMP_COMMON_STATS_H_

#include <cstdint>
#include <string>

namespace cmp {

/// Cost model for the simulated disk + CPU of the paper's testbed.
///
/// The paper's experiments (UltraSPARC 10, 128 MB RAM) are dominated by
/// the number of sequential passes over a disk-resident training set and
/// by per-record CPU work. We reproduce the *mechanism* rather than the
/// absolute 1999 numbers: builders count what they read/write/sort, and
/// this model converts those counters into simulated seconds so that the
/// figures' shapes (who wins, by what factor) can be regenerated on any
/// host.
struct DiskModel {
  /// Sequential scan bandwidth, bytes/second.
  double scan_bandwidth = 20.0 * 1024 * 1024;
  /// Random-ish write bandwidth for materialized structures (SPRINT's
  /// attribute lists), bytes/second.
  double write_bandwidth = 10.0 * 1024 * 1024;
  /// CPU cost charged per record-field visited, seconds.
  double cpu_per_field = 20e-9;
  /// CPU cost per comparison in an explicit sort, seconds.
  double cpu_per_sort_cmp = 25e-9;
};

/// Counters every tree builder fills while constructing a tree.
struct BuildStats {
  /// Number of complete passes over the training set (the paper's key
  /// metric: CMP-B grows >1 level per scan, CLOUDS needs an extra pass
  /// per level, ...).
  int64_t dataset_scans = 0;
  /// Records read across all scans (partial passes count fractionally).
  int64_t records_read = 0;
  /// Bytes read from the (simulated) disk.
  int64_t bytes_read = 0;
  /// Bytes written to the (simulated) disk (attribute lists, nid array
  /// swapping, ...).
  int64_t bytes_written = 0;
  /// Records set aside in alive-interval buffers (CMP) or alive-point
  /// rescans (CLOUDS).
  int64_t buffered_records = 0;
  /// Comparisons spent in explicit sorts (SPRINT presort, CMP buffer
  /// sorts).
  int64_t sort_comparisons = 0;
  /// Peak bytes of in-memory working state (histograms, AVC groups,
  /// attribute lists, buffers). Analytic estimate, used for Figure 19.
  int64_t peak_memory_bytes = 0;
  /// Nodes in the final tree / levels grown.
  int64_t tree_nodes = 0;
  int64_t tree_depth = 0;
  /// CMP-B only: how often predictSplit's X-axis choice matched the
  /// attribute actually chosen for the node's split (the paper reports
  /// ~80% on Function 2).
  int64_t predictions_total = 0;
  int64_t predictions_correct = 0;
  /// CMP only: number of alive intervals selected for the root split
  /// (Table 1 reports this per dataset/interval-count), or 0 when the
  /// root split was exact/categorical/linear.
  int64_t root_alive_intervals = 0;
  /// CMP builds only: seconds from the start of the build to its first
  /// scan pass (discretization, interior marks and bin codes); 0 for
  /// the other builders.
  double setup_seconds = 0.0;
  /// Wall-clock construction time measured on this host, seconds.
  double wall_seconds = 0.0;

  /// Simulated construction time under `model`, seconds.
  double SimulatedSeconds(const DiskModel& model) const;

  /// Merges counters from a sub-phase (max for peaks, sum otherwise).
  void Accumulate(const BuildStats& other);

  /// One-line human-readable rendering.
  std::string ToString() const;
};

/// Updates `peak` to at least `candidate`.
inline void UpdatePeak(int64_t& peak, int64_t candidate) {
  if (candidate > peak) peak = candidate;
}

}  // namespace cmp

#endif  // CMP_COMMON_STATS_H_
