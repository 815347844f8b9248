#ifndef CMP_INFER_MODEL_IO_H_
#define CMP_INFER_MODEL_IO_H_

#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "infer/compiled_tree.h"
#include "io/model_blob.h"
#include "tree/tree.h"

namespace cmp {

/// A compiled model ready to score: the shared schema plus one
/// CompiledTree view per member tree, all pointing into one `.cmpb`
/// blob. Copies are cheap (views + refcounts); the blob's bytes live
/// until the last copy — and the last in-flight batch holding one —
/// goes away. A single tree is just the one-tree case; an ensemble is
/// the same blob with more tree sections.
struct CompiledModel {
  std::shared_ptr<const Schema> schema;
  std::shared_ptr<const ModelBlob> blob;
  std::vector<CompiledTree> trees;

  bool empty() const { return trees.empty(); }
  int num_trees() const { return static_cast<int>(trees.size()); }
  int32_t num_classes() const {
    return trees.empty() ? 0 : trees.front().num_classes();
  }
};

/// Packs `trees` (at least one, all non-empty, sharing one schema) into
/// `.cmpb` blob bytes, nodes in preorder. Returns empty and fills `error`
/// on invalid input.
std::vector<uint8_t> PackModelBlob(const std::vector<const DecisionTree*>& trees,
                                   std::string* error);

/// Compiles `trees` into an in-memory blob-backed model. The backing
/// bytes are identical to PackModelBlob's (and thus to the file
/// SaveModelBlob writes), so "compiled in process" and "loaded from
/// disk" are the same model byte for byte.
CompiledModel CompileModel(const std::vector<const DecisionTree*>& trees,
                           std::string* error);

/// Writes `trees` as a `.cmpb` file.
bool SaveModelBlob(const std::vector<const DecisionTree*>& trees,
                   const std::string& path, std::string* error);

/// Binds a CompiledModel onto an already-parsed blob: decodes the schema
/// section and validates + binds every tree view. A kNodeLayout section,
/// which older writers added to name their node order, is checked for
/// shape and a known value, then ignored: descent does not depend on the
/// order. On failure returns false with `out` empty.
bool ModelFromBlob(std::shared_ptr<const ModelBlob> blob, CompiledModel* out,
                   std::string* error);

/// Loads a `.cmpb` file (mmap when possible) and binds a CompiledModel.
bool LoadCompiledModel(const std::string& path, CompiledModel* out,
                       std::string* error);

}  // namespace cmp

#endif  // CMP_INFER_MODEL_IO_H_
