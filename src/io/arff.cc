#include "io/arff.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <vector>

#include "io/table_file.h"

namespace cmp {

namespace {

std::string Trim(const std::string& s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.size() >= prefix.size() &&
         Lower(s.substr(0, prefix.size())) == prefix;
}

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> out;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, ',')) {
    out.push_back(Trim(field));
  }
  return out;
}

struct ArffAttr {
  std::string name;
  bool nominal = false;
  std::vector<std::string> values;  // nominal only
};

// Parses "@attribute NAME numeric" / "@attribute NAME {a,b,c}".
bool ParseAttribute(const std::string& line, ArffAttr* out) {
  // Skip "@attribute" and whitespace.
  size_t pos = line.find_first_of(" \t");
  if (pos == std::string::npos) return false;
  std::string rest = Trim(line.substr(pos));
  if (rest.empty()) return false;
  // Name may be quoted.
  if (rest[0] == '\'' || rest[0] == '"') {
    const char quote = rest[0];
    const size_t end = rest.find(quote, 1);
    if (end == std::string::npos) return false;
    out->name = rest.substr(1, end - 1);
    rest = Trim(rest.substr(end + 1));
  } else {
    const size_t end = rest.find_first_of(" \t");
    if (end == std::string::npos) return false;
    out->name = rest.substr(0, end);
    rest = Trim(rest.substr(end));
  }
  if (rest.empty()) return false;
  if (rest[0] == '{') {
    const size_t close = rest.find('}');
    if (close == std::string::npos) return false;
    out->nominal = true;
    out->values = SplitCsv(rest.substr(1, close - 1));
    for (auto& v : out->values) {
      if (!v.empty() && (v.front() == '\'' || v.front() == '"')) {
        v = v.substr(1, v.size() - 2);
      }
      if (v.empty()) return false;
    }
    return !out->values.empty();
  }
  const std::string kind = Lower(Trim(rest));
  return kind == "numeric" || kind == "real" || kind == "integer";
}

int FindValue(const std::vector<std::string>& values,
              const std::string& v) {
  std::string needle = v;
  if (!needle.empty() && (needle.front() == '\'' || needle.front() == '"')) {
    needle = needle.substr(1, needle.size() - 2);
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i] == needle) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

bool LoadArff(const std::string& path, Dataset* out) {
  std::ifstream is(path);
  if (!is.is_open()) return false;

  std::vector<ArffAttr> attrs;
  std::string line;
  bool in_data = false;

  // ---- Header.
  while (!in_data && std::getline(is, line)) {
    line = Trim(line);
    if (line.empty() || line[0] == '%') continue;
    if (StartsWith(line, "@relation")) continue;
    if (StartsWith(line, "@attribute")) {
      ArffAttr attr;
      if (!ParseAttribute(line, &attr)) return false;
      attrs.push_back(std::move(attr));
      continue;
    }
    if (StartsWith(line, "@data")) {
      in_data = true;
      continue;
    }
    return false;  // unknown directive
  }
  if (!in_data || attrs.size() < 2) return false;
  if (!attrs.back().nominal) return false;  // class must be nominal

  std::vector<AttrInfo> schema_attrs;
  for (size_t i = 0; i + 1 < attrs.size(); ++i) {
    AttrInfo info;
    info.name = attrs[i].name;
    if (attrs[i].nominal) {
      info.kind = AttrKind::kCategorical;
      info.cardinality = static_cast<int32_t>(attrs[i].values.size());
    } else {
      info.kind = AttrKind::kNumeric;
    }
    schema_attrs.push_back(std::move(info));
  }
  Dataset ds(Schema(std::move(schema_attrs), attrs.back().values));

  // ---- Data rows.
  std::vector<double> nvals;
  std::vector<int32_t> cvals;
  while (std::getline(is, line)) {
    line = Trim(line);
    if (line.empty() || line[0] == '%') continue;
    const std::vector<std::string> fields = SplitCsv(line);
    if (fields.size() != attrs.size()) return false;
    nvals.clear();
    cvals.clear();
    for (size_t i = 0; i + 1 < attrs.size(); ++i) {
      if (fields[i] == "?") return false;  // missing values unsupported
      if (attrs[i].nominal) {
        const int v = FindValue(attrs[i].values, fields[i]);
        if (v < 0) return false;
        cvals.push_back(v);
      } else {
        try {
          nvals.push_back(std::stod(fields[i]));
        } catch (...) {
          return false;
        }
        if (!NoNaN(&nvals.back(), 1)) return false;
      }
    }
    const int label = FindValue(attrs.back().values, fields.back());
    if (label < 0) return false;
    ds.Append(nvals, cvals, static_cast<ClassId>(label));
  }
  *out = std::move(ds);
  return true;
}

bool SaveArff(const Dataset& ds, const std::string& relation,
              const std::string& path) {
  std::ofstream os(path, std::ios::trunc);
  if (!os.is_open()) return false;
  const Schema& schema = ds.schema();
  os << "@relation " << relation << '\n';
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    const AttrInfo& info = schema.attr(a);
    os << "@attribute " << info.name << ' ';
    if (info.kind == AttrKind::kNumeric) {
      os << "numeric\n";
    } else {
      os << '{';
      for (int32_t v = 0; v < info.cardinality; ++v) {
        if (v > 0) os << ',';
        os << 'v' << v;
      }
      os << "}\n";
    }
  }
  os << "@attribute class {";
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    if (c > 0) os << ',';
    os << schema.class_name(c);
  }
  os << "}\n@data\n";
  os.precision(17);
  for (RecordId r = 0; r < ds.num_records(); ++r) {
    for (AttrId a = 0; a < schema.num_attrs(); ++a) {
      if (schema.is_numeric(a)) {
        os << ds.numeric(a, r);
      } else {
        os << 'v' << ds.categorical(a, r);
      }
      os << ',';
    }
    os << schema.class_name(ds.label(r)) << '\n';
  }
  return os.good();
}

}  // namespace cmp
