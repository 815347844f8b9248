#include "tree/serialize.h"

#include <algorithm>
#include <fstream>
#include <span>
#include <sstream>

#include "io/codec.h"

namespace cmp {

namespace {

// Caps on header-declared counts: a corrupt or hostile count must fail
// the parse, not drive a giant allocation before any content check. The
// schema's own caps and entry rule are common/schema.h's, shared with the
// binary formats.
constexpr int kMaxNodes = 1 << 28;
constexpr size_t kMaxClassCounts = 1 << 20;
constexpr int64_t kMaxForestTrees = 1 << 20;
constexpr int64_t kMaxForestTreeLines = int64_t{1} << 32;

// A document cut inside its last line may still parse, so the last line
// must end in a newline, as the writers' does.
bool Terminated(const std::string& text) {
  return !text.empty() && text.back() == '\n';
}

void WriteDouble(std::ostringstream& os, double v) {
  os << std::hexfloat << v << std::defaultfloat;
}

bool ReadDouble(std::istringstream& is, double* v) {
  std::string tok;
  if (!(is >> tok)) return false;
  try {
    *v = std::strtod(tok.c_str(), nullptr);
  } catch (...) {
    return false;
  }
  return true;
}

}  // namespace

std::string SerializeTree(const DecisionTree& tree) {
  std::ostringstream os;
  const Schema& schema = tree.schema();
  os << "cmp-tree 1\n";
  os << "attrs " << schema.num_attrs() << '\n';
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    const AttrInfo& info = schema.attr(a);
    os << (info.kind == AttrKind::kNumeric ? "num " : "cat ")
       << info.cardinality << ' ' << info.name << '\n';
  }
  os << "classes " << schema.num_classes() << '\n';
  for (ClassId c = 0; c < schema.num_classes(); ++c) {
    os << schema.class_name(c) << '\n';
  }
  os << "nodes " << tree.num_nodes() << '\n';
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    const TreeNode& n = tree.node(id);
    if (n.is_leaf) {
      os << "leaf " << n.leaf_class;
    } else {
      switch (n.split.kind) {
        case Split::Kind::kNumeric:
          os << "num " << n.split.attr << ' ';
          WriteDouble(os, n.split.threshold);
          break;
        case Split::Kind::kCategorical: {
          os << "cat " << n.split.attr << ' ' << n.split.left_subset.size()
             << ' ';
          for (uint8_t b : n.split.left_subset) os << (b ? '1' : '0');
          break;
        }
        case Split::Kind::kLinear:
          os << "lin " << n.split.attr << ' ' << n.split.attr2 << ' ';
          WriteDouble(os, n.split.a);
          os << ' ';
          WriteDouble(os, n.split.b);
          os << ' ';
          WriteDouble(os, n.split.c);
          break;
      }
      os << ' ' << n.left << ' ' << n.right;
    }
    os << " d " << n.depth << " cc " << n.class_counts.size();
    for (int64_t cnt : n.class_counts) os << ' ' << cnt;
    os << '\n';
  }
  return os.str();
}

bool DeserializeTree(const std::string& text, DecisionTree* out) {
  if (!Terminated(text)) return false;
  std::istringstream lines(text);
  std::string line;
  auto next_line = [&](std::istringstream* ls) {
    if (!std::getline(lines, line)) return false;
    ls->clear();
    ls->str(line);
    return true;
  };

  std::istringstream ls;
  if (!next_line(&ls)) return false;
  std::string tag;
  int version = 0;
  if (!(ls >> tag >> version) || tag != "cmp-tree" || version != 1) {
    return false;
  }

  if (!next_line(&ls)) return false;
  int num_attrs = 0;
  if (!(ls >> tag >> num_attrs) || tag != "attrs" || num_attrs < 0 ||
      num_attrs > kMaxSchemaAttrs) {
    return false;
  }
  // Lists grow line by line, so a count the text cannot back fails at
  // its end, not in the allocator.
  std::vector<AttrInfo> attrs;
  for (int a = 0; a < num_attrs; ++a) {
    AttrInfo& info = attrs.emplace_back();
    if (!next_line(&ls)) return false;
    std::string kind;
    if (!(ls >> kind >> info.cardinality)) return false;
    const int kind_code = kind == "num" ? 0 : kind == "cat" ? 1 : -1;
    if (!ValidAttrEntry(kind_code, info.cardinality)) return false;
    info.kind = kind_code == 0 ? AttrKind::kNumeric : AttrKind::kCategorical;
    std::getline(ls, info.name);
    if (!info.name.empty() && info.name.front() == ' ') {
      info.name.erase(0, 1);
    }
    if (info.name.size() > kMaxNameBytes) return false;
  }

  if (!next_line(&ls)) return false;
  int num_classes = 0;
  if (!(ls >> tag >> num_classes) || tag != "classes" || num_classes <= 0 ||
      num_classes > kMaxSchemaClasses) {
    return false;
  }
  std::vector<std::string> class_names;
  for (int c = 0; c < num_classes; ++c) {
    std::string& name = class_names.emplace_back();
    if (!std::getline(lines, name) || name.size() > kMaxNameBytes) {
      return false;
    }
  }

  if (!next_line(&ls)) return false;
  int num_nodes = 0;
  if (!(ls >> tag >> num_nodes) || tag != "nodes" || num_nodes < 0 ||
      num_nodes > kMaxNodes) {
    return false;
  }

  DecisionTree tree(Schema(std::move(attrs), std::move(class_names)));
  for (int i = 0; i < num_nodes; ++i) {
    if (!next_line(&ls)) return false;
    TreeNode n;
    std::string kind;
    if (!(ls >> kind)) return false;
    if (kind == "leaf") {
      if (!(ls >> n.leaf_class)) return false;
      n.is_leaf = true;
    } else {
      n.is_leaf = false;
      if (kind == "num") {
        n.split.kind = Split::Kind::kNumeric;
        if (!(ls >> n.split.attr)) return false;
        if (!ReadDouble(ls, &n.split.threshold)) return false;
      } else if (kind == "cat") {
        n.split.kind = Split::Kind::kCategorical;
        size_t card = 0;
        std::string bits;
        if (!(ls >> n.split.attr >> card >> bits)) return false;
        if (bits.size() != card) return false;
        n.split.left_subset.resize(card);
        for (size_t v = 0; v < card; ++v) {
          n.split.left_subset[v] = bits[v] == '1' ? 1 : 0;
        }
      } else if (kind == "lin") {
        n.split.kind = Split::Kind::kLinear;
        if (!(ls >> n.split.attr >> n.split.attr2)) return false;
        if (!ReadDouble(ls, &n.split.a) || !ReadDouble(ls, &n.split.b) ||
            !ReadDouble(ls, &n.split.c)) {
          return false;
        }
      } else {
        return false;
      }
      if (!(ls >> n.left >> n.right)) return false;
    }
    std::string dtag;
    std::string cctag;
    size_t cc = 0;
    if (!(ls >> dtag >> n.depth >> cctag >> cc) || dtag != "d" ||
        cctag != "cc" || n.depth < 0 || cc > kMaxClassCounts) {
      return false;
    }
    // Counts grow as they parse, like the lists above.
    for (size_t c = 0; c < cc; ++c) {
      if (!(ls >> n.class_counts.emplace_back())) return false;
    }
    tree.AddNode(std::move(n));
  }

  // A node count larger than the node list is caught above (missing
  // lines); a smaller one would silently truncate the tree, so reject
  // any trailing non-empty lines too.
  while (std::getline(lines, line)) {
    if (!line.empty()) return false;
  }

  // Validate the finished structure so a malformed file yields a clean
  // error here instead of out-of-range indexing during Classify:
  // children must point strictly forward (no cycles, no dangling ids),
  // split attributes must exist with the right kind, and leaf classes
  // must name real classes.
  const Schema& schema = tree.schema();
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    const TreeNode& n = tree.node(id);
    if (n.is_leaf) {
      if (n.leaf_class < 0 || n.leaf_class >= schema.num_classes()) {
        return false;
      }
      continue;
    }
    if (n.left <= id || n.left >= tree.num_nodes() || n.right <= id ||
        n.right >= tree.num_nodes()) {
      return false;
    }
    if (n.split.attr < 0 || n.split.attr >= schema.num_attrs()) return false;
    switch (n.split.kind) {
      case Split::Kind::kNumeric:
        if (!schema.is_numeric(n.split.attr)) return false;
        break;
      case Split::Kind::kCategorical: {
        if (schema.is_numeric(n.split.attr)) return false;
        const size_t card = static_cast<size_t>(
            std::max<int32_t>(schema.attr(n.split.attr).cardinality, 0));
        if (n.split.left_subset.size() != card) return false;
        break;
      }
      case Split::Kind::kLinear:
        if (!schema.is_numeric(n.split.attr)) return false;
        if (n.split.attr2 < 0 || n.split.attr2 >= schema.num_attrs() ||
            !schema.is_numeric(n.split.attr2)) {
          return false;
        }
        break;
    }
  }

  *out = std::move(tree);
  return true;
}

bool SaveTree(const DecisionTree& tree, const std::string& path) {
  const std::string text = SerializeTree(tree);
  return WriteWholeFile(path, {std::as_bytes(std::span(text))}, nullptr);
}

bool LoadTree(const std::string& path, DecisionTree* out) {
  std::ifstream is(path);
  if (!is.is_open()) return false;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return DeserializeTree(buffer.str(), out);
}

std::string SerializeForest(const std::vector<DecisionTree>& trees) {
  std::ostringstream os;
  os << "cmp-forest 1\n";
  os << "trees " << trees.size() << '\n';
  for (const DecisionTree& tree : trees) {
    const std::string text = SerializeTree(tree);
    os << "tree " << std::count(text.begin(), text.end(), '\n') << '\n'
       << text;
  }
  return os.str();
}

bool DeserializeForest(const std::string& text,
                       std::vector<DecisionTree>* out) {
  if (!Terminated(text)) return false;
  std::istringstream lines(text);
  std::string line;
  std::string tag;
  int version = 0;
  {
    if (!std::getline(lines, line)) return false;
    std::istringstream ls(line);
    if (!(ls >> tag >> version) || tag != "cmp-forest" || version != 1) {
      return false;
    }
  }
  int64_t num_trees = 0;
  {
    if (!std::getline(lines, line)) return false;
    std::istringstream ls(line);
    if (!(ls >> tag >> num_trees) || tag != "trees" || num_trees <= 0 ||
        num_trees > kMaxForestTrees) {
      return false;
    }
  }
  // No reserve: the header's count is untrusted until its trees parse.
  std::vector<DecisionTree> trees;
  for (int64_t t = 0; t < num_trees; ++t) {
    int64_t num_lines = 0;
    if (!std::getline(lines, line)) return false;
    std::istringstream ls(line);
    if (!(ls >> tag >> num_lines) || tag != "tree" || num_lines <= 0 ||
        num_lines > kMaxForestTreeLines) {
      return false;
    }
    std::string block;
    for (int64_t i = 0; i < num_lines; ++i) {
      if (!std::getline(lines, line)) return false;
      block += line;
      block += '\n';
    }
    DecisionTree tree;
    if (!DeserializeTree(block, &tree)) return false;
    trees.push_back(std::move(tree));
  }
  while (std::getline(lines, line)) {
    if (!line.empty()) return false;
  }
  *out = std::move(trees);
  return true;
}

bool SaveForest(const std::vector<DecisionTree>& trees,
                const std::string& path) {
  if (trees.empty()) return false;
  const std::string text = SerializeForest(trees);
  return WriteWholeFile(path, {std::as_bytes(std::span(text))}, nullptr);
}

bool LoadForest(const std::string& path, std::vector<DecisionTree>* out) {
  std::ifstream is(path);
  if (!is.is_open()) return false;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return DeserializeForest(buffer.str(), out);
}

bool LoadTrees(const std::string& path, std::vector<DecisionTree>* out) {
  std::ifstream is(path);
  if (!is.is_open()) return false;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
  if (text.rfind("cmp-forest ", 0) == 0) {
    return DeserializeForest(text, out);
  }
  DecisionTree tree;
  if (!DeserializeTree(text, &tree)) return false;
  out->clear();
  out->push_back(std::move(tree));
  return true;
}

}  // namespace cmp
