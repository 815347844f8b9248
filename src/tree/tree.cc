#include "tree/tree.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <sstream>

namespace cmp {

NodeId DecisionTree::AddNode(TreeNode node) {
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size()) - 1;
}

DecisionTree::GraftMap DecisionTree::Graft(NodeId at,
                                           const DecisionTree& sub) {
  assert(!sub.empty());
  const GraftMap remap{at, static_cast<NodeId>(nodes_.size())};
  const int depth_delta = nodes_[at].depth - sub.node(0).depth;
  for (NodeId id = 1; id < sub.num_nodes(); ++id) {
    TreeNode n = sub.node(id);
    n.left = remap(n.left);
    n.right = remap(n.right);
    n.depth += depth_delta;
    nodes_.push_back(std::move(n));
  }
  TreeNode root = sub.node(0);
  root.left = remap(root.left);
  root.right = remap(root.right);
  root.depth += depth_delta;
  nodes_[at] = std::move(root);
  return remap;
}

ClassId DecisionTree::Classify(const Dataset& ds, RecordId r) const {
  return nodes_[LeafOf(ds, r)].leaf_class;
}

NodeId DecisionTree::LeafOf(const Dataset& ds, RecordId r) const {
  assert(!nodes_.empty());
  NodeId id = 0;
  while (!nodes_[id].is_leaf) {
    const TreeNode& n = nodes_[id];
    id = n.split.RoutesLeft(ds, r) ? n.left : n.right;
  }
  return id;
}

int DecisionTree::NumLeaves() const {
  // Count only nodes reachable from the root.
  if (nodes_.empty()) return 0;
  int leaves = 0;
  std::vector<NodeId> stack = {0};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const TreeNode& n = nodes_[id];
    if (n.is_leaf) {
      ++leaves;
    } else {
      stack.push_back(n.left);
      stack.push_back(n.right);
    }
  }
  return leaves;
}

int DecisionTree::Depth() const {
  if (nodes_.empty()) return -1;
  int max_depth = 0;
  std::vector<std::pair<NodeId, int>> stack = {{0, 0}};
  while (!stack.empty()) {
    const auto [id, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const TreeNode& n = nodes_[id];
    if (!n.is_leaf) {
      stack.push_back({n.left, d + 1});
      stack.push_back({n.right, d + 1});
    }
  }
  return max_depth;
}

void DecisionTree::MakeLeaf(NodeId id) {
  TreeNode& n = nodes_[id];
  n.is_leaf = true;
  n.left = kInvalidNode;
  n.right = kInvalidNode;
  ClassId best = 0;
  for (ClassId c = 1; c < static_cast<ClassId>(n.class_counts.size()); ++c) {
    if (n.class_counts[c] > n.class_counts[best]) best = c;
  }
  n.leaf_class = n.class_counts.empty() ? 0 : best;
}

void DecisionTree::Compact() {
  if (nodes_.empty()) return;
  std::vector<NodeId> remap(nodes_.size(), kInvalidNode);
  std::vector<TreeNode> compacted;
  // Preorder copy keeps parent-before-child ordering.
  std::function<NodeId(NodeId)> copy = [&](NodeId id) -> NodeId {
    const NodeId new_id = static_cast<NodeId>(compacted.size());
    remap[id] = new_id;
    compacted.push_back(nodes_[id]);
    if (!nodes_[id].is_leaf) {
      compacted[new_id].left = copy(nodes_[id].left);
      compacted[new_id].right = copy(nodes_[id].right);
    }
    return new_id;
  };
  copy(0);
  nodes_ = std::move(compacted);
}

void DecisionTree::Render(NodeId id, int indent, std::string* out) const {
  const TreeNode& n = nodes_[id];
  out->append(static_cast<size_t>(indent) * 2, ' ');
  if (n.is_leaf) {
    out->append("leaf: ");
    out->append(schema_.class_name(n.leaf_class));
    std::ostringstream os;
    os << " (";
    for (size_t c = 0; c < n.class_counts.size(); ++c) {
      if (c > 0) os << ", ";
      os << n.class_counts[c];
    }
    os << ")\n";
    out->append(os.str());
    return;
  }
  out->append(n.split.ToString(schema_));
  out->append("\n");
  Render(n.left, indent + 1, out);
  Render(n.right, indent + 1, out);
}

std::string DecisionTree::ToString() const {
  if (nodes_.empty()) return "(empty tree)\n";
  std::string out;
  Render(0, 0, &out);
  return out;
}

}  // namespace cmp
