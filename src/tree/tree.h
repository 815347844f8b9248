#ifndef CMP_TREE_TREE_H_
#define CMP_TREE_TREE_H_

#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/types.h"
#include "tree/split.h"

namespace cmp {

/// One node of a decision tree. Leaves carry a predicted class and the
/// training class distribution; internal nodes carry a Split plus child
/// node ids.
struct TreeNode {
  bool is_leaf = true;
  Split split;
  NodeId left = kInvalidNode;
  NodeId right = kInvalidNode;
  ClassId leaf_class = kInvalidClass;
  /// Training per-class record counts that reached this node.
  std::vector<int64_t> class_counts;
  int depth = 0;
};

/// A binary decision tree over a Schema, stored as a flat node array with
/// node 0 as the root.
class DecisionTree {
 public:
  DecisionTree() = default;
  explicit DecisionTree(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const { return schema_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  const TreeNode& node(NodeId id) const { return nodes_[id]; }
  TreeNode& mutable_node(NodeId id) { return nodes_[id]; }
  bool empty() const { return nodes_.empty(); }

  /// Appends a node and returns its id.
  NodeId AddNode(TreeNode node);

  /// Where Graft puts a subtree's nodes: local node 0 becomes `at`, and
  /// local node k > 0 becomes `base + k - 1`.
  struct GraftMap {
    NodeId at = kInvalidNode;
    NodeId base = kInvalidNode;
    NodeId operator()(NodeId local) const {
      if (local == kInvalidNode) return kInvalidNode;
      return local == 0 ? at : base + local - 1;
    }
  };

  /// Splices a detached tree in place of node `at`: `sub`'s root
  /// overwrites `at` (depths shifted so sub's root keeps `at`'s depth)
  /// and the remaining nodes are appended in sub's id order, so grafting
  /// subtrees built in parallel in a fixed order reproduces the exact
  /// node numbering a serial build would have produced. Returns the
  /// local-to-tree id map it applied.
  GraftMap Graft(NodeId at, const DecisionTree& sub);

  /// Classifies record `r` of `ds` (which must share the schema).
  ClassId Classify(const Dataset& ds, RecordId r) const;

  /// Id of the leaf record `r` lands in.
  NodeId LeafOf(const Dataset& ds, RecordId r) const;

  /// Number of leaves.
  int NumLeaves() const;

  /// Maximum node depth (root = 0); -1 for an empty tree.
  int Depth() const;

  /// Indented multi-line rendering of the whole tree.
  std::string ToString() const;

  /// Replaces the subtree rooted at `id` by a leaf predicting the
  /// majority class of its recorded class counts (used by pruning).
  /// Descendant nodes become unreachable; Compact() removes them.
  void MakeLeaf(NodeId id);

  /// Rebuilds the node array without unreachable nodes.
  void Compact();

 private:
  void Render(NodeId id, int indent, std::string* out) const;

  Schema schema_;
  std::vector<TreeNode> nodes_;
};

}  // namespace cmp

#endif  // CMP_TREE_TREE_H_
