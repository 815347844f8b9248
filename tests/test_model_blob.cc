// The .cmpb model blob: round-trip byte-equality between the in-memory
// compile path and the on-disk file, mmap loading, ensemble blobs, and
// rejection of corrupt / truncated / wrong-version input. The truncation
// and byte-flip sweeps over blobs live in tests/test_codec.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/schema.h"
#include "infer/batch_predictor.h"
#include "infer/compiled_tree.h"
#include "infer/model_io.h"
#include "io/model_blob.h"
#include "tree/tree.h"

namespace cmp {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Schema MakeSchema() {
  std::vector<AttrInfo> attrs = {
      {"n0", AttrKind::kNumeric, 0},
      {"c0", AttrKind::kCategorical, 3},
      {"n1", AttrKind::kNumeric, 0},
  };
  return Schema(std::move(attrs), {"alpha", "beta"});
}

// A small tree exercising every split kind: numeric root, categorical
// and linear internals, four leaves.
DecisionTree MakeTree(double root_threshold = 1.5) {
  DecisionTree tree(MakeSchema());
  TreeNode root;
  root.is_leaf = false;
  root.split = Split::Numeric(0, root_threshold);
  tree.AddNode(root);  // 0

  TreeNode cat;
  cat.is_leaf = false;
  cat.split = Split::Categorical(1, {1, 0, 1});
  cat.depth = 1;
  tree.AddNode(cat);  // 1

  TreeNode lin;
  lin.is_leaf = false;
  lin.split = Split::Linear(0, 2, 0.5, -1.0, 0.25);
  lin.depth = 1;
  tree.AddNode(lin);  // 2

  for (int i = 0; i < 4; ++i) {
    TreeNode leaf;
    leaf.is_leaf = true;
    leaf.leaf_class = i % 2;
    leaf.depth = 2;
    leaf.class_counts = {i % 2 == 0 ? int64_t{7} : int64_t{1},
                         i % 2 == 0 ? int64_t{2} : int64_t{9}};
    tree.AddNode(leaf);  // 3..6
  }
  tree.mutable_node(0).left = 1;
  tree.mutable_node(0).right = 2;
  tree.mutable_node(1).left = 3;
  tree.mutable_node(1).right = 4;
  tree.mutable_node(2).left = 5;
  tree.mutable_node(2).right = 6;
  return tree;
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                             std::istreambuf_iterator<char>());
  return bytes;
}

// A grid of probe rows covering both sides of every split.
std::vector<std::pair<std::vector<double>, std::vector<int32_t>>> ProbeRows() {
  std::vector<std::pair<std::vector<double>, std::vector<int32_t>>> rows;
  for (double n0 : {-2.0, 1.5, 3.0}) {
    for (int32_t c0 : {-1, 0, 1, 2, 5}) {
      for (double n1 : {-1.0, 0.0, 2.0}) {
        rows.push_back({{n0, 0.0, n1}, {0, c0, 0}});
      }
    }
  }
  return rows;
}

TEST(ModelBlob, CompileBytesEqualSavedFile) {
  const DecisionTree tree = MakeTree();
  const std::string path = TempPath("roundtrip.cmpb");
  std::string error;
  ASSERT_TRUE(SaveModelBlob({&tree}, path, &error)) << error;

  // The in-memory compile routes through the same packer, so its
  // backing storage must be byte-identical to the file.
  const CompiledTree compiled = CompiledTree::Compile(tree);
  ASSERT_NE(compiled.storage(), nullptr);
  const std::vector<uint8_t> file_bytes = ReadFile(path);
  ASSERT_EQ(file_bytes.size(), compiled.storage()->size());
  EXPECT_EQ(0, std::memcmp(file_bytes.data(), compiled.storage()->data(),
                           file_bytes.size()));
  std::remove(path.c_str());
}

TEST(ModelBlob, LoadedModelPredictsIdentically) {
  const DecisionTree tree = MakeTree();
  const std::string path = TempPath("identical.cmpb");
  std::string error;
  ASSERT_TRUE(SaveModelBlob({&tree}, path, &error)) << error;

  CompiledModel model;
  ASSERT_TRUE(LoadCompiledModel(path, &model, &error)) << error;
  ASSERT_EQ(model.num_trees(), 1);
  const CompiledTree direct = CompiledTree::Compile(tree);

  for (const auto& [numeric, categorical] : ProbeRows()) {
    EXPECT_EQ(direct.PredictRow(numeric.data(), categorical.data()),
              model.trees[0].PredictRow(numeric.data(), categorical.data()));
  }
  std::remove(path.c_str());
}

TEST(ModelBlob, MmapAndBufferedLoadsAgree) {
  const DecisionTree tree = MakeTree();
  const std::string path = TempPath("mmap.cmpb");
  std::string error;
  ASSERT_TRUE(SaveModelBlob({&tree}, path, &error)) << error;

  // Load() prefers mmap; FromBytes takes the ownership path. The parsed
  // views must agree byte for byte.
  std::shared_ptr<const ModelBlob> mapped = ModelBlob::Load(path, &error);
  ASSERT_NE(mapped, nullptr) << error;
  std::shared_ptr<const ModelBlob> owned =
      ModelBlob::FromBytes(ReadFile(path), &error);
  ASSERT_NE(owned, nullptr) << error;
  ASSERT_EQ(mapped->size(), owned->size());
  EXPECT_EQ(0, std::memcmp(mapped->data(), owned->data(), mapped->size()));
  EXPECT_EQ(mapped->sections().size(), owned->sections().size());

  CompiledModel from_map;
  ASSERT_TRUE(ModelFromBlob(mapped, &from_map, &error)) << error;
  std::remove(path.c_str());
  // The mapping must stay valid after unlink (POSIX keeps the pages).
  for (const auto& [numeric, categorical] : ProbeRows()) {
    from_map.trees[0].PredictRow(numeric.data(), categorical.data());
  }
}

TEST(ModelBlob, EnsembleBlobRoundTrips) {
  const DecisionTree t1 = MakeTree(1.5);
  const DecisionTree t2 = MakeTree(-0.5);
  const DecisionTree t3 = MakeTree(2.5);
  const std::string path = TempPath("ensemble.cmpb");
  std::string error;
  ASSERT_TRUE(SaveModelBlob({&t1, &t2, &t3}, path, &error)) << error;

  CompiledModel model;
  ASSERT_TRUE(LoadCompiledModel(path, &model, &error)) << error;
  ASSERT_EQ(model.num_trees(), 3);

  // Scoring through the blob-backed trees must match an ensemble
  // compiled straight from the DecisionTrees.
  const BatchPredictor from_blob(model.trees, VoteKind::kAverageProb);
  const BatchPredictor direct(
      {CompiledTree::Compile(t1), CompiledTree::Compile(t2),
       CompiledTree::Compile(t3)},
      VoteKind::kAverageProb);
  for (const auto& [numeric, categorical] : ProbeRows()) {
    // One row as columns: a pointer to each attribute's single value.
    std::vector<const double*> num_cols;
    std::vector<const int32_t*> cat_cols;
    for (size_t a = 0; a < numeric.size(); ++a) {
      num_cols.push_back(&numeric[a]);
      cat_cols.push_back(&categorical[a]);
    }
    const BatchResult a =
        from_blob.PredictColumns(num_cols.data(), cat_cols.data(), 1);
    const BatchResult b =
        direct.PredictColumns(num_cols.data(), cat_cols.data(), 1);
    EXPECT_EQ(a.labels[0], b.labels[0]);
  }
  std::remove(path.c_str());
}

TEST(ModelBlob, TreesMustShareSchema) {
  const DecisionTree t1 = MakeTree();
  DecisionTree other(Schema({{"x", AttrKind::kNumeric, 0}}, {"a", "b"}));
  TreeNode leaf;
  leaf.is_leaf = true;
  leaf.leaf_class = 0;
  other.AddNode(leaf);
  std::string error;
  EXPECT_TRUE(PackModelBlob({&t1, &other}, &error).empty());
  EXPECT_FALSE(error.empty());
}

TEST(ModelBlob, RejectsWrongMagicVersionEndianAndSize) {
  const DecisionTree tree = MakeTree();
  std::string error;
  const std::vector<uint8_t> good = PackModelBlob({&tree}, &error);
  ASSERT_FALSE(good.empty()) << error;
  ASSERT_NE(ModelBlob::FromBytes(good, &error), nullptr) << error;

  {
    std::vector<uint8_t> bad = good;
    bad[0] = 'X';
    EXPECT_EQ(ModelBlob::FromBytes(bad, &error), nullptr);
    EXPECT_NE(error.find("magic"), std::string::npos);
  }
  {
    std::vector<uint8_t> bad = good;
    bad[4] = 0xee;  // version
    EXPECT_EQ(ModelBlob::FromBytes(bad, &error), nullptr);
    EXPECT_NE(error.find("version"), std::string::npos);
  }
  {
    std::vector<uint8_t> bad = good;
    std::swap(bad[8], bad[11]);  // endian probe, byte-reversed
    EXPECT_EQ(ModelBlob::FromBytes(bad, &error), nullptr);
    EXPECT_NE(error.find("endian"), std::string::npos);
  }
  {
    std::vector<uint8_t> bad = good;
    bad.push_back(0);  // total-size field no longer matches
    EXPECT_EQ(ModelBlob::FromBytes(bad, &error), nullptr);
  }
}

TEST(ModelBlob, TruncatedFileFailsCleanly) {
  const DecisionTree tree = MakeTree();
  const std::string path = TempPath("truncated.cmpb");
  std::string error;
  ASSERT_TRUE(SaveModelBlob({&tree}, path, &error)) << error;
  const std::vector<uint8_t> good = ReadFile(path);
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(good.data()),
           static_cast<std::streamsize>(good.size() / 2));
  os.close();
  CompiledModel model;
  EXPECT_FALSE(LoadCompiledModel(path, &model, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(ModelBlob, RejectsBackwardChildPointer) {
  const DecisionTree tree = MakeTree();
  std::string error;
  std::vector<uint8_t> bytes = PackModelBlob({&tree}, &error);
  std::shared_ptr<const ModelBlob> blob =
      ModelBlob::FromBytes(bytes, &error);
  ASSERT_NE(blob, nullptr) << error;
  const BlobSection* children = blob->Find(0, SectionKind::kChildren);
  ASSERT_NE(children, nullptr);

  // Point the root's left child back at the root: the validator must
  // refuse (descent would loop forever otherwise).
  int32_t zero = 0;
  std::memcpy(bytes.data() + children->offset, &zero, sizeof(zero));
  std::shared_ptr<const ModelBlob> evil =
      ModelBlob::FromBytes(std::move(bytes), &error);
  ASSERT_NE(evil, nullptr);  // container is fine; semantics are not
  CompiledModel model;
  EXPECT_FALSE(ModelFromBlob(evil, &model, &error));
  EXPECT_NE(error.find("forward"), std::string::npos) << error;
}

}  // namespace
}  // namespace cmp
