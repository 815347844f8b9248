#ifndef CMP_TREE_SERIALIZE_H_
#define CMP_TREE_SERIALIZE_H_

#include <string>
#include <vector>

#include "tree/tree.h"

namespace cmp {

/// Serializes a tree (with its schema) to a line-oriented text format
/// suitable for files or logs. Round-trips exactly through
/// DeserializeTree (thresholds are written with hexfloat precision).
std::string SerializeTree(const DecisionTree& tree);

/// Parses the output of SerializeTree. Returns false on malformed input,
/// including text whose last line has no newline (a truncated file).
bool DeserializeTree(const std::string& text, DecisionTree* out);

/// Convenience wrappers writing/reading the text format to a file.
bool SaveTree(const DecisionTree& tree, const std::string& path);
bool LoadTree(const std::string& path, DecisionTree* out);

/// Multi-tree text format ("cmp-forest 1"): a tree count followed by
/// each member as a line-counted SerializeTree block. Used for the
/// additive ensembles the boost builder produces; every member
/// round-trips through the single-tree parser, so the forest format
/// inherits all of its validation.
std::string SerializeForest(const std::vector<DecisionTree>& trees);

/// Parses SerializeForest output (at least one tree). Returns false on
/// malformed input.
bool DeserializeForest(const std::string& text,
                       std::vector<DecisionTree>* out);

bool SaveForest(const std::vector<DecisionTree>& trees,
                const std::string& path);
bool LoadForest(const std::string& path, std::vector<DecisionTree>* out);

/// Loads either text format by sniffing the header line: a "cmp-tree"
/// file yields one tree, a "cmp-forest" file all of its members. The
/// tool entry points use this so every --tree flag accepts both.
bool LoadTrees(const std::string& path, std::vector<DecisionTree>* out);

}  // namespace cmp

#endif  // CMP_TREE_SERIALIZE_H_
