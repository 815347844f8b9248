#include "tree/observer.h"

#include <sstream>

#include "common/cpu_features.h"

namespace cmp {

namespace {

// Minimal JSON string escaping (names are ASCII identifiers, but stay
// safe for arbitrary builder names).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

void TrainStatsCollector::OnBuildStart(const std::string& builder,
                                       int64_t records) {
  builder_ = builder;
  kernel_isa_ = KernelIsaName(ActiveKernelIsa());
  records_ = records;
  passes_.clear();
  final_stats_ = BuildStats{};
  finished_ = false;
}

void TrainStatsCollector::OnPass(const PassObservation& pass) {
  passes_.push_back(pass);
}

void TrainStatsCollector::OnBuildEnd(const BuildStats& stats) {
  final_stats_ = stats;
  finished_ = true;
}

std::string TrainStatsCollector::ToJson() const {
  std::ostringstream os;
  os << "{\n";
  os << "  \"builder\": \"" << JsonEscape(builder_) << "\",\n";
  os << "  \"kernel_isa\": \"" << JsonEscape(kernel_isa_) << "\",\n";
  os << "  \"records\": " << records_ << ",\n";
  os << "  \"io\": {\"load_s\": " << load_seconds_
     << ", \"save_s\": " << save_seconds_ << "},\n";
  os << "  \"passes\": [\n";
  for (size_t i = 0; i < passes_.size(); ++i) {
    const PassObservation& p = passes_[i];
    os << "    {\"pass\": " << p.pass
       << ", \"scan_seconds\": " << p.scan_seconds
       << ", \"plan_seconds\": " << p.plan_seconds
       << ", \"line_search_seconds\": " << p.line_search_seconds
       << ", \"line_refine_seconds\": " << p.line_refine_seconds
       << ", \"lines_evaluated\": " << p.lines_evaluated
       << ", \"lines_skipped\": " << p.lines_skipped
       << ", \"finish_seconds\": " << p.finish_seconds
       << ", \"records_scanned\": " << p.records_scanned
       << ", \"bytes_read\": " << p.bytes_read
       << ", \"frontier_fresh\": " << p.frontier_fresh
       << ", \"frontier_pending\": " << p.frontier_pending
       << ", \"frontier_collect\": " << p.frontier_collect
       << ", \"alive_intervals\": " << p.alive_intervals
       << ", \"buffered_records\": " << p.buffered_records
       << ", \"buffer_bytes\": " << p.buffer_bytes
       << ", \"tree_nodes\": " << p.tree_nodes
       << ", \"route_seconds\": " << p.route_seconds
       << ", \"kernel_seconds\": " << p.kernel_seconds
       << ", \"records_routed\": " << p.records_routed
       << ", \"code_cache_bytes\": " << p.code_cache_bytes
       << ", \"sibling_subtractions\": " << p.sibling_subtractions
       << ", \"sketch_bytes\": " << p.sketch_bytes
       << ", \"refit_leaves_regrown\": " << p.refit_leaves_regrown << "}"
       << (i + 1 < passes_.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  const BuildStats& s = final_stats_;
  os << "  \"final\": {\n";
  os << "    \"dataset_scans\": " << s.dataset_scans << ",\n";
  os << "    \"records_read\": " << s.records_read << ",\n";
  os << "    \"bytes_read\": " << s.bytes_read << ",\n";
  os << "    \"bytes_written\": " << s.bytes_written << ",\n";
  os << "    \"buffered_records\": " << s.buffered_records << ",\n";
  os << "    \"sort_comparisons\": " << s.sort_comparisons << ",\n";
  os << "    \"peak_memory_bytes\": " << s.peak_memory_bytes << ",\n";
  os << "    \"tree_nodes\": " << s.tree_nodes << ",\n";
  os << "    \"tree_depth\": " << s.tree_depth << ",\n";
  os << "    \"predictions_total\": " << s.predictions_total << ",\n";
  os << "    \"predictions_correct\": " << s.predictions_correct << ",\n";
  os << "    \"root_alive_intervals\": " << s.root_alive_intervals << ",\n";
  os << "    \"setup_seconds\": " << s.setup_seconds << ",\n";
  os << "    \"wall_seconds\": " << s.wall_seconds << "\n";
  os << "  }\n";
  os << "}\n";
  return os.str();
}

}  // namespace cmp
