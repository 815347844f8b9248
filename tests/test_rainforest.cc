#include "rainforest/rainforest.h"

#include <gtest/gtest.h>

#include "datagen/agrawal.h"
#include "exact/exact.h"
#include "tree/evaluate.h"
#include "tree/tree.h"

namespace cmp {
namespace {

RainForestOptions NoSwitchOptions() {
  RainForestOptions o;
  // One entry per attribute moves RF-Hybrid's in-memory switch (buffer /
  // attributes) down to single records, so every level is aggregated
  // from AVC-groups instead of pulled into memory.
  o.avc_buffer_entries = AgrawalSchema().num_attrs();
  o.base.in_memory_threshold = 0;
  return o;
}

// Expects the subtrees under `a_id` of `a` and `b_id` of `b` to be the
// same in preorder: leaf or split kind, attribute, threshold or subset,
// and class counts. Node ids may differ.
void ExpectSameSubtree(const DecisionTree& a, NodeId a_id,
                       const DecisionTree& b, NodeId b_id) {
  const TreeNode& x = a.node(a_id);
  const TreeNode& y = b.node(b_id);
  EXPECT_EQ(x.class_counts, y.class_counts) << "node " << a_id;
  ASSERT_EQ(x.is_leaf, y.is_leaf) << "node " << a_id;
  if (x.is_leaf) return;
  ASSERT_EQ(x.split.kind, y.split.kind) << "node " << a_id;
  EXPECT_EQ(x.split.attr, y.split.attr) << "node " << a_id;
  if (x.split.kind == Split::Kind::kNumeric) {
    EXPECT_EQ(x.split.threshold, y.split.threshold) << "node " << a_id;
  } else {
    EXPECT_EQ(x.split.left_subset, y.split.left_subset) << "node " << a_id;
  }
  ExpectSameSubtree(a, x.left, b, y.left);
  ExpectSameSubtree(a, x.right, b, y.right);
}

TEST(RainForest, HighAccuracyOnF2) {
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF2;
  gen.num_records = 20000;
  gen.seed = 121;
  const Dataset data = GenerateAgrawal(gen);
  std::vector<RecordId> train_ids;
  std::vector<RecordId> test_ids;
  TrainTestSplit(data.num_records(), 0.25, 8, &train_ids, &test_ids);
  const Dataset train = data.Subset(train_ids);
  const Dataset test = data.Subset(test_ids);

  RainForestBuilder builder;
  const BuildResult result = builder.Build(train);
  EXPECT_GT(Evaluate(result.tree, test).Accuracy(), 0.97);
}

TEST(RainForest, AvcSplitsMatchExactBuilder) {
  // AVC-groups preserve every distinct value, so RainForest's splits are
  // exact: grown level by level, the whole tree must equal the exact
  // builder's depth-first one, node for node in preorder.
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF7;
  gen.num_records = 5000;
  gen.seed = 123;
  const Dataset train = GenerateAgrawal(gen);

  RainForestOptions o = NoSwitchOptions();
  o.base.num_threads = 4;  // the partition's searches fan out on a pool
  const BuildResult rres = RainForestBuilder(o).Build(train);
  ExactBuilder exact;
  const BuildResult eres = exact.Build(train);

  EXPECT_EQ(rres.stats.buffered_records, 0);  // no partition was collected
  ASSERT_FALSE(rres.tree.node(0).is_leaf);
  ASSERT_GT(rres.tree.num_nodes(), 3);
  EXPECT_EQ(rres.tree.num_nodes(), eres.tree.num_nodes());
  ExpectSameSubtree(rres.tree, 0, eres.tree, 0);
}

TEST(RainForest, FixedBufferDominatesMemory) {
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF2;
  gen.num_records = 10000;
  gen.seed = 125;
  const Dataset train = GenerateAgrawal(gen);
  RainForestBuilder builder;  // default 2.5M-entry buffer
  const BuildResult result = builder.Build(train);
  // 2.5M entries * 4 bytes * 2 classes = 20 MB (the paper's Figure 19).
  EXPECT_EQ(result.stats.peak_memory_bytes, 2500000ll * 4 * 2);
}

TEST(RainForest, SmallBufferForcesMultipleBatches) {
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF7;
  gen.num_records = 30000;
  gen.seed = 127;
  const Dataset train = GenerateAgrawal(gen);

  RainForestOptions small = NoSwitchOptions();
  small.avc_buffer_entries = 50000;  // < records * attrs at lower levels
  RainForestBuilder constrained(small);
  const BuildResult cres = constrained.Build(train);

  RainForestOptions big;
  big.base.in_memory_threshold = 0;
  big.avc_buffer_entries = 100000000;
  RainForestBuilder roomy(big);
  const BuildResult rres = roomy.Build(train);

  EXPECT_GT(cres.stats.dataset_scans, rres.stats.dataset_scans);
}

TEST(RainForest, FewScansWithRoomyBuffer) {
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF2;
  gen.num_records = 20000;
  gen.seed = 129;
  const Dataset train = GenerateAgrawal(gen);
  RainForestBuilder builder;  // defaults: whole dataset fits the buffer
  const BuildResult result = builder.Build(train);
  EXPECT_LE(result.stats.dataset_scans, 2);
}

TEST(RainForest, EmptyDataset) {
  const Dataset empty(AgrawalSchema());
  RainForestBuilder builder;
  const BuildResult result = builder.Build(empty);
  EXPECT_EQ(result.tree.num_nodes(), 1);
  EXPECT_TRUE(result.tree.node(0).is_leaf);
}

}  // namespace
}  // namespace cmp
