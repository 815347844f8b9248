#include "common/summary.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <span>
#include <sstream>

namespace cmp {

DatasetSummary Summarize(const Dataset& ds, int64_t distinct_cap) {
  DatasetSummary out;
  out.records = ds.num_records();
  out.class_counts = ds.ClassCounts();
  const Schema& schema = ds.schema();
  out.attrs.resize(schema.num_attrs());
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    AttrSummary& s = out.attrs[a];
    s.name = schema.attr(a).name;
    s.kind = schema.attr(a).kind;
    if (schema.is_numeric(a)) {
      const std::span<const double> col = ds.numeric_column(a);
      if (col.empty()) continue;
      double sum = 0.0;
      double sum_sq = 0.0;
      s.min = col[0];
      s.max = col[0];
      for (double v : col) {
        s.min = std::min(s.min, v);
        s.max = std::max(s.max, v);
        sum += v;
        sum_sq += v * v;
      }
      const double n = static_cast<double>(col.size());
      s.mean = sum / n;
      const double var = std::max(0.0, sum_sq / n - s.mean * s.mean);
      s.stddev = std::sqrt(var);
      // Distinct values via a sorted copy, capped for huge columns.
      std::vector<double> sorted(col.begin(), col.end());
      std::sort(sorted.begin(), sorted.end());
      int64_t distinct = 1;
      for (size_t i = 1; i < sorted.size() && distinct < distinct_cap; ++i) {
        if (sorted[i] != sorted[i - 1]) ++distinct;
      }
      s.distinct = distinct;
    } else {
      s.cardinality = schema.attr(a).cardinality;
      std::vector<uint8_t> seen(s.cardinality, 0);
      for (int32_t v : ds.categorical_column(a)) {
        if (v >= 0 && v < s.cardinality) seen[v] = 1;
      }
      s.distinct = 0;
      for (uint8_t b : seen) s.distinct += b;
    }
  }
  return out;
}

std::string DatasetSummary::ToString(const Schema& schema) const {
  std::ostringstream os;
  os << records << " records, " << schema.num_attrs() << " attributes, "
     << schema.num_classes() << " classes\n";
  os << "class distribution:";
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    os << ' ' << schema.class_name(c) << '=' << class_counts[c];
  }
  os << '\n';
  os << std::left << std::setw(14) << "attribute" << std::right
     << std::setw(6) << "kind" << std::setw(14) << "min" << std::setw(14)
     << "max" << std::setw(14) << "mean" << std::setw(12) << "stddev"
     << std::setw(10) << "distinct" << '\n';
  os << std::fixed << std::setprecision(2);
  for (const AttrSummary& s : attrs) {
    os << std::left << std::setw(14) << s.name << std::right;
    if (s.kind == AttrKind::kNumeric) {
      os << std::setw(6) << "num" << std::setw(14) << s.min << std::setw(14)
         << s.max << std::setw(14) << s.mean << std::setw(12) << s.stddev
         << std::setw(10) << s.distinct;
    } else {
      os << std::setw(6) << "cat" << std::setw(14) << "-" << std::setw(14)
         << "-" << std::setw(14) << "-" << std::setw(12) << "-"
         << std::setw(10) << s.distinct;
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace cmp
