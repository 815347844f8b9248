#include "io/csv.h"

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse_number.h"

namespace cmp {

namespace {

// Splits one CSV line into trimmed fields.
std::vector<std::string> SplitLine(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, ',')) {
    size_t b = 0;
    size_t e = field.size();
    while (b < e && (field[b] == ' ' || field[b] == '\t')) ++b;
    while (e > b && (field[e - 1] == ' ' || field[e - 1] == '\t' ||
                     field[e - 1] == '\r')) {
      --e;
    }
    fields.push_back(field.substr(b, e - b));
  }
  return fields;
}

}  // namespace

bool SaveCsv(const Dataset& ds, const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os.is_open()) return false;
  const Schema& schema = ds.schema();
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    os << schema.attr(a).name << ',';
  }
  os << "class\n";
  os.precision(17);
  for (RecordId r = 0; r < ds.num_records(); ++r) {
    for (AttrId a = 0; a < schema.num_attrs(); ++a) {
      if (schema.is_numeric(a)) {
        os << ds.numeric(a, r);
      } else {
        os << ds.categorical(a, r);
      }
      os << ',';
    }
    os << schema.class_name(ds.label(r)) << '\n';
  }
  return os.good();
}

bool LoadCsvInferSchema(const std::string& path, Dataset* out,
                        int max_categorical_card) {
  // ---- Pass 1: header + per-column type inference.
  std::ifstream is(path);
  if (!is.is_open()) return false;
  std::string line;
  if (!std::getline(is, line)) return false;
  const std::vector<std::string> header = SplitLine(line);
  if (header.size() < 2) return false;
  const size_t num_cols = header.size();
  const size_t num_attrs = num_cols - 1;

  std::vector<bool> numeric(num_attrs, true);
  // Distinct values of every column, indexed by first appearance. A
  // column that is numeric so far keeps them too, so that numbers seen
  // before its first non-number become categories as well; once it has
  // more than max_categorical_card it could never load as categorical,
  // so its values are dropped.
  std::vector<std::map<std::string, int32_t>> values(num_cols);
  std::vector<std::vector<std::string>> value_order(num_cols);
  std::vector<bool> too_many(num_attrs, false);
  int64_t rows = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = SplitLine(line);
    if (fields.size() != num_cols) return false;
    ++rows;
    for (size_t c = 0; c < num_cols; ++c) {
      if (c < num_attrs) {
        // A field is a number when it is one number in the grammar of
        // served rows: no sign but '-', no hex, no NaN (numeric columns
        // hold no missing values) and nothing out of a double's range.
        double unused;
        if (!ParseRealNumber(fields[c], &unused)) numeric[c] = false;
        if (too_many[c]) {
          if (!numeric[c]) return false;  // free-text column
          continue;
        }
      }
      auto [it, inserted] =
          values[c].try_emplace(fields[c],
                                static_cast<int32_t>(values[c].size()));
      if (inserted) value_order[c].push_back(fields[c]);
      if (c < num_attrs &&
          static_cast<int>(values[c].size()) > max_categorical_card) {
        if (!numeric[c]) return false;  // free-text column, refuse to guess
        too_many[c] = true;
        values[c].clear();
        value_order[c].clear();
      }
    }
  }
  if (rows == 0 || value_order[num_attrs].empty()) return false;

  std::vector<AttrInfo> attrs(num_attrs);
  for (size_t c = 0; c < num_attrs; ++c) {
    attrs[c].name = header[c];
    if (numeric[c]) {
      attrs[c].kind = AttrKind::kNumeric;
    } else {
      attrs[c].kind = AttrKind::kCategorical;
      attrs[c].cardinality = static_cast<int32_t>(values[c].size());
    }
  }
  Dataset ds(Schema(std::move(attrs), value_order[num_attrs]));
  ds.Reserve(rows);

  // ---- Pass 2: load.
  is.clear();
  is.seekg(0);
  std::getline(is, line);  // header
  std::vector<double> nvals;
  std::vector<int32_t> cvals;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = SplitLine(line);
    nvals.clear();
    cvals.clear();
    for (size_t c = 0; c < num_attrs; ++c) {
      if (numeric[c]) {
        double v;
        if (!ParseRealNumber(fields[c], &v)) return false;
        nvals.push_back(v);
      } else {
        const auto it = values[c].find(fields[c]);
        if (it == values[c].end()) return false;
        cvals.push_back(it->second);
      }
    }
    const auto it = values[num_attrs].find(fields[num_attrs]);
    if (it == values[num_attrs].end()) return false;
    ds.Append(nvals, cvals, it->second);
  }
  *out = std::move(ds);
  return true;
}

}  // namespace cmp
