#include "common/stats.h"

#include <algorithm>
#include <sstream>

namespace cmp {

double BuildStats::SimulatedSeconds(const DiskModel& model) const {
  double seconds = 0.0;
  seconds += static_cast<double>(bytes_read) / model.scan_bandwidth;
  seconds += static_cast<double>(bytes_written) / model.write_bandwidth;
  // Every record read implies visiting its fields once; bytes_read /
  // 8 approximates fields visited well enough for the cost model.
  seconds += static_cast<double>(bytes_read) / 8.0 * model.cpu_per_field;
  seconds += static_cast<double>(sort_comparisons) * model.cpu_per_sort_cmp;
  return seconds;
}

void BuildStats::Accumulate(const BuildStats& other) {
  dataset_scans += other.dataset_scans;
  records_read += other.records_read;
  bytes_read += other.bytes_read;
  bytes_written += other.bytes_written;
  buffered_records += other.buffered_records;
  sort_comparisons += other.sort_comparisons;
  peak_memory_bytes = std::max(peak_memory_bytes, other.peak_memory_bytes);
  tree_nodes = std::max(tree_nodes, other.tree_nodes);
  tree_depth = std::max(tree_depth, other.tree_depth);
  predictions_total += other.predictions_total;
  predictions_correct += other.predictions_correct;
  setup_seconds += other.setup_seconds;
  wall_seconds += other.wall_seconds;
}

std::string BuildStats::ToString() const {
  std::ostringstream os;
  os << "scans=" << dataset_scans << " records_read=" << records_read
     << " MB_read=" << static_cast<double>(bytes_read) / (1024.0 * 1024.0)
     << " MB_written="
     << static_cast<double>(bytes_written) / (1024.0 * 1024.0)
     << " buffered=" << buffered_records
     << " peak_mem_MB="
     << static_cast<double>(peak_memory_bytes) / (1024.0 * 1024.0)
     << " nodes=" << tree_nodes << " depth=" << tree_depth
     << " setup_s=" << setup_seconds << " wall_s=" << wall_seconds;
  return os.str();
}

}  // namespace cmp
