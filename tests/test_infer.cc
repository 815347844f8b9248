// Differential tests of the compiled inference path: CompiledTree and
// BatchPredictor (1 and N threads, datasets and caller-owned columns,
// one tree and voting forests) must agree bit for bit with the interpreted
// DecisionTree::Classify on randomized trees — numeric, categorical and
// linear-combination splits alike — over randomized datasets whose
// values are salted with the trees' own thresholds so the `<=` boundary
// itself is exercised.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/dataset.h"
#include "common/random.h"
#include "common/schema.h"
#include "infer/batch_predictor.h"
#include "infer/compiled_tree.h"
#include "tree/tree.h"

namespace cmp {
namespace {

// A pool of "interesting" values shared by tree thresholds and dataset
// columns, so records routinely land exactly on split boundaries.
class ValuePool {
 public:
  explicit ValuePool(Rng* rng) {
    for (int i = 0; i < 24; ++i) {
      values_.push_back(rng->Uniform(-100.0, 100.0));  // rarely float-exact
      values_.push_back(static_cast<double>(rng->UniformInt(-50, 50)));
    }
  }
  double Draw(Rng* rng) const {
    return values_[rng->UniformInt(0, static_cast<int64_t>(values_.size()) -
                                          1)];
  }

 private:
  std::vector<double> values_;
};

std::string Tagged(const char* prefix, int i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

Schema RandomSchema(Rng* rng) {
  std::vector<AttrInfo> attrs;
  const int num_numeric = static_cast<int>(rng->UniformInt(2, 5));
  const int num_cat = static_cast<int>(rng->UniformInt(0, 3));
  for (int i = 0; i < num_numeric; ++i) {
    attrs.push_back({Tagged("n", i), AttrKind::kNumeric, 0});
  }
  for (int i = 0; i < num_cat; ++i) {
    attrs.push_back({Tagged("c", i), AttrKind::kCategorical,
                     static_cast<int32_t>(rng->UniformInt(2, 6))});
  }
  // Shuffle so numeric/categorical attr ids interleave.
  for (size_t i = attrs.size() - 1; i > 0; --i) {
    std::swap(attrs[i],
              attrs[rng->UniformInt(0, static_cast<int64_t>(i))]);
  }
  std::vector<std::string> classes;
  const int nc = static_cast<int>(rng->UniformInt(2, 4));
  for (int c = 0; c < nc; ++c) classes.push_back(Tagged("k", c));
  return Schema(std::move(attrs), std::move(classes));
}

NodeId RandomSubtree(DecisionTree* tree, Rng* rng, const ValuePool& pool,
                     int depth) {
  const Schema& schema = tree->schema();
  const std::vector<AttrId> numeric = schema.NumericAttrs();
  const std::vector<AttrId> cats = schema.CategoricalAttrs();

  TreeNode node;
  node.depth = depth;
  if (depth >= 6 || rng->Bernoulli(0.35)) {
    node.is_leaf = true;
    if (rng->Bernoulli(0.9)) {
      for (ClassId c = 0; c < schema.num_classes(); ++c) {
        node.class_counts.push_back(rng->UniformInt(0, 20));
      }
    }
    ClassId best = 0;
    for (size_t c = 1; c < node.class_counts.size(); ++c) {
      if (node.class_counts[c] > node.class_counts[best]) {
        best = static_cast<ClassId>(c);
      }
    }
    node.leaf_class = best;  // MakeLeaf's convention: argmax, lowest id
    return tree->AddNode(node);
  }

  node.is_leaf = false;
  const int64_t kind = rng->UniformInt(0, 2);
  if (kind == 1 && !cats.empty()) {
    const AttrId a = cats[rng->UniformInt(
        0, static_cast<int64_t>(cats.size()) - 1)];
    std::vector<uint8_t> subset(schema.attr(a).cardinality);
    for (auto& b : subset) b = rng->Bernoulli(0.5) ? 1 : 0;
    node.split = Split::Categorical(a, std::move(subset));
  } else if (kind == 2 && numeric.size() >= 2) {
    const AttrId x = numeric[rng->UniformInt(
        0, static_cast<int64_t>(numeric.size()) - 1)];
    AttrId y = x;
    while (y == x) {
      y = numeric[rng->UniformInt(
          0, static_cast<int64_t>(numeric.size()) - 1)];
    }
    node.split = Split::Linear(x, y, rng->Uniform(-2.0, 2.0),
                               rng->Uniform(-2.0, 2.0), pool.Draw(rng));
  } else {
    const AttrId a = numeric[rng->UniformInt(
        0, static_cast<int64_t>(numeric.size()) - 1)];
    node.split = Split::Numeric(a, pool.Draw(rng));
  }
  const NodeId id = tree->AddNode(node);
  const NodeId left = RandomSubtree(tree, rng, pool, depth + 1);
  const NodeId right = RandomSubtree(tree, rng, pool, depth + 1);
  tree->mutable_node(id).left = left;
  tree->mutable_node(id).right = right;
  return id;
}

DecisionTree RandomTree(const Schema& schema, Rng* rng,
                        const ValuePool& pool) {
  DecisionTree tree(schema);
  RandomSubtree(&tree, rng, pool, 0);
  return tree;
}

Dataset RandomDataset(const Schema& schema, Rng* rng, const ValuePool& pool,
                      int64_t n) {
  Dataset ds(schema);
  for (int64_t i = 0; i < n; ++i) {
    std::vector<double> numeric_values;
    std::vector<int32_t> cat_values;
    for (AttrId a = 0; a < schema.num_attrs(); ++a) {
      if (schema.is_numeric(a)) {
        // Half the values come from the threshold pool: exact boundary
        // hits where `<=` vs `<` (or a float-rounded threshold) would
        // diverge.
        numeric_values.push_back(rng->Bernoulli(0.5)
                                     ? pool.Draw(rng)
                                     : rng->Uniform(-100.0, 100.0));
      } else {
        // Occasionally out-of-range values, which RoutesLeft sends right.
        cat_values.push_back(static_cast<int32_t>(
            rng->UniformInt(-1, schema.attr(a).cardinality)));
      }
    }
    ds.Append(numeric_values, cat_values,
              static_cast<ClassId>(
                  rng->UniformInt(0, schema.num_classes() - 1)));
  }
  return ds;
}

// Dense raw-row copy of record `r`, indexed by AttrId.
void FillRawRow(const Dataset& ds, RecordId r, std::vector<double>* numeric,
                std::vector<int32_t>* categorical) {
  const Schema& schema = ds.schema();
  numeric->assign(schema.num_attrs(), 0.0);
  categorical->assign(schema.num_attrs(), 0);
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    if (schema.is_numeric(a)) {
      (*numeric)[a] = ds.numeric(a, r);
    } else {
      (*categorical)[a] = ds.categorical(a, r);
    }
  }
}

TEST(CompiledTree, DifferentialFuzzAgainstInterpreter) {
  Rng rng(20260806);
  for (int trial = 0; trial < 40; ++trial) {
    const ValuePool pool(&rng);
    const Schema schema = RandomSchema(&rng);
    const DecisionTree tree = RandomTree(schema, &rng, pool);
    const Dataset ds = RandomDataset(schema, &rng, pool, 300);
    const CompiledTree compiled = CompiledTree::Compile(tree);

    PredictOptions single;
    single.want_probs = true;
    PredictOptions multi;
    multi.num_threads = 4;
    multi.block_size = 37;  // force many blocks
    const BatchResult batch1 =
        BatchPredictor(&compiled, single).Predict(ds);
    const BatchResult batch4 = BatchPredictor(&compiled, multi).Predict(ds);

    std::vector<double> raw_numeric;
    std::vector<int32_t> raw_cat;
    const int32_t nc = compiled.num_classes();
    for (RecordId r = 0; r < ds.num_records(); ++r) {
      const ClassId expected = tree.Classify(ds, r);
      ASSERT_EQ(compiled.Predict(ds, r), expected)
          << "trial " << trial << " record " << r;
      ASSERT_EQ(batch1.labels[r], expected);
      ASSERT_EQ(batch4.labels[r], expected);

      FillRawRow(ds, r, &raw_numeric, &raw_cat);
      ASSERT_EQ(compiled.PredictRow(raw_numeric.data(), raw_cat.data()),
                expected);

      // Probability sanity: normalized, and the predicted class is modal.
      const float* probs = &batch1.probs[static_cast<size_t>(r) * nc];
      float sum = 0.0f;
      float max_p = 0.0f;
      for (int32_t c = 0; c < nc; ++c) {
        ASSERT_GE(probs[c], 0.0f);
        sum += probs[c];
        max_p = std::max(max_p, probs[c]);
      }
      ASSERT_NEAR(sum, 1.0f, 1e-5f);
      ASSERT_EQ(probs[expected], max_p);
    }
  }
}

TEST(CompiledTree, ColumnBatchMatchesDatasetBatch) {
  Rng rng(99);
  const ValuePool pool(&rng);
  const Schema schema = RandomSchema(&rng);
  const DecisionTree tree = RandomTree(schema, &rng, pool);
  const Dataset ds = RandomDataset(schema, &rng, pool, 200);
  const CompiledTree compiled = CompiledTree::Compile(tree);

  // Caller-owned column copies, as the serving batcher builds them.
  const int32_t na = schema.num_attrs();
  const int64_t n = ds.num_records();
  std::vector<std::vector<double>> numeric(na, std::vector<double>(n));
  std::vector<std::vector<int32_t>> categorical(na, std::vector<int32_t>(n));
  std::vector<double> row_n;
  std::vector<int32_t> row_c;
  for (RecordId r = 0; r < n; ++r) {
    FillRawRow(ds, r, &row_n, &row_c);
    for (AttrId a = 0; a < na; ++a) {
      numeric[a][r] = row_n[a];
      categorical[a][r] = row_c[a];
    }
  }
  std::vector<const double*> num_cols;
  std::vector<const int32_t*> cat_cols;
  for (AttrId a = 0; a < na; ++a) {
    num_cols.push_back(numeric[a].data());
    cat_cols.push_back(categorical[a].data());
  }
  const BatchPredictor predictor(&compiled);
  const BatchResult from_ds = predictor.Predict(ds);
  const BatchResult from_cols =
      predictor.PredictColumns(num_cols.data(), cat_cols.data(), n);
  EXPECT_EQ(from_ds.labels, from_cols.labels);
}

TEST(CompiledTree, NonFloatThresholdsUseWideSideTable) {
  const Schema schema({{"x", AttrKind::kNumeric, 0}}, {"no", "yes"});
  DecisionTree tree(schema);
  TreeNode root;
  root.is_leaf = false;
  root.split = Split::Numeric(0, 1.0 / 3.0);  // not float-representable
  const NodeId root_id = tree.AddNode(root);
  TreeNode leaf;
  leaf.is_leaf = true;
  leaf.leaf_class = 0;
  const NodeId l = tree.AddNode(leaf);
  leaf.leaf_class = 1;
  const NodeId r = tree.AddNode(leaf);
  tree.mutable_node(root_id).left = l;
  tree.mutable_node(root_id).right = r;

  const CompiledTree compiled = CompiledTree::Compile(tree);
  ASSERT_EQ(compiled.wide_splits().size(), 1u);
  EXPECT_EQ(compiled.wide_splits()[0].threshold, 1.0 / 3.0);

  // The value sitting between the double threshold and its float
  // rounding is exactly the record an inline float compare would
  // misroute.
  Dataset ds(schema);
  ds.Append({1.0 / 3.0}, {}, 0);
  ds.Append({std::nextafter(1.0 / 3.0, 1.0)}, {}, 1);
  ds.Append({static_cast<double>(static_cast<float>(1.0 / 3.0))}, {}, 1);
  for (RecordId rec = 0; rec < ds.num_records(); ++rec) {
    EXPECT_EQ(compiled.Predict(ds, rec), tree.Classify(ds, rec));
  }

  // A float-exact threshold stays inline.
  tree.mutable_node(root_id).split = Split::Numeric(0, 0.5);
  const CompiledTree inline_compiled = CompiledTree::Compile(tree);
  EXPECT_TRUE(inline_compiled.wide_splits().empty());
}

TEST(CompiledTree, CompileDropsUnreachableNodes) {
  Rng rng(7);
  const ValuePool pool(&rng);
  const Schema schema = RandomSchema(&rng);
  DecisionTree tree = RandomTree(schema, &rng, pool);
  while (tree.num_nodes() < 3) tree = RandomTree(schema, &rng, pool);
  tree.mutable_node(0).class_counts.assign(schema.num_classes(), 1);
  tree.MakeLeaf(0);  // orphans every other node, without Compact()
  const CompiledTree compiled = CompiledTree::Compile(tree);
  EXPECT_EQ(compiled.num_nodes(), 1);
  EXPECT_EQ(compiled.num_leaves(), 1);
}

TEST(BatchPredictor, TopKAndAbstain) {
  const Schema schema({{"x", AttrKind::kNumeric, 0}}, {"a", "b", "c"});
  DecisionTree tree(schema);
  TreeNode root;
  root.is_leaf = false;
  root.split = Split::Numeric(0, 0.0);
  const NodeId root_id = tree.AddNode(root);
  TreeNode confident;  // p = (0.8, 0.2, 0.0)
  confident.is_leaf = true;
  confident.leaf_class = 0;
  confident.class_counts = {8, 2, 0};
  const NodeId l = tree.AddNode(confident);
  TreeNode shaky;  // p = (0.2, 0.4, 0.4) -> class 1 by lowest-id tie-break
  shaky.is_leaf = true;
  shaky.leaf_class = 1;
  shaky.class_counts = {2, 4, 4};
  const NodeId r = tree.AddNode(shaky);
  tree.mutable_node(root_id).left = l;
  tree.mutable_node(root_id).right = r;

  Dataset ds(schema);
  ds.Append({-1.0}, {}, 0);
  ds.Append({1.0}, {}, 1);

  const CompiledTree compiled = CompiledTree::Compile(tree);
  PredictOptions opts;
  opts.top_k = 2;
  opts.abstain_threshold = 0.5;
  // A one-tree model scores by its leaves under either vote kind; a
  // majority vote of one would never abstain.
  for (const BatchResult& result :
       {BatchPredictor(&compiled, opts).Predict(ds),
        BatchPredictor({compiled}, VoteKind::kMajority, opts).Predict(ds),
        BatchPredictor({compiled}, VoteKind::kAverageProb, opts)
            .Predict(ds)}) {
    EXPECT_EQ(result.labels[0], 0);             // 0.8 >= 0.5
    EXPECT_EQ(result.labels[1], kInvalidClass);  // 0.4 < 0.5
    EXPECT_EQ(result.num_abstained, 1);
    // Top-k is ordered by probability, ties to the lower class id, and
    // is still reported for abstained rows.
    EXPECT_EQ(result.topk[0], 0);
    EXPECT_EQ(result.topk[1], 1);
    EXPECT_EQ(result.topk[2], 1);
    EXPECT_EQ(result.topk[3], 2);
  }
}

TEST(BatchPredictor, MatchesNaiveVoting) {
  Rng rng(4242);
  const ValuePool pool(&rng);
  const Schema schema = RandomSchema(&rng);
  std::vector<DecisionTree> trees;
  for (int t = 0; t < 5; ++t) {
    trees.push_back(RandomTree(schema, &rng, pool));
  }
  const Dataset ds = RandomDataset(schema, &rng, pool, 250);

  std::vector<CompiledTree> compiled;
  for (const DecisionTree& t : trees) {
    compiled.push_back(CompiledTree::Compile(t));
  }
  PredictOptions multi;
  multi.num_threads = 4;
  multi.block_size = 41;
  const BatchPredictor majority(compiled, VoteKind::kMajority, multi);
  const BatchPredictor averaged(compiled, VoteKind::kAverageProb);
  ASSERT_EQ(majority.num_trees(), 5);
  const BatchResult hard = majority.Predict(ds);
  const BatchResult soft = averaged.Predict(ds);

  const int32_t nc = schema.num_classes();
  for (RecordId r = 0; r < ds.num_records(); ++r) {
    std::vector<int> votes(nc, 0);
    std::vector<double> prob_sum(nc, 0.0);
    for (size_t t = 0; t < trees.size(); ++t) {
      votes[trees[t].Classify(ds, r)]++;
      const float* p =
          compiled[t].leaf_probs(compiled[t].LeafIndexOf(ds, r));
      for (int32_t c = 0; c < nc; ++c) prob_sum[c] += p[c];
    }
    const ClassId hard_expected = static_cast<ClassId>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
    const ClassId soft_expected = static_cast<ClassId>(
        std::max_element(prob_sum.begin(), prob_sum.end()) -
        prob_sum.begin());
    ASSERT_EQ(hard.labels[r], hard_expected) << "record " << r;
    ASSERT_EQ(soft.labels[r], soft_expected) << "record " << r;
  }
}

}  // namespace
}  // namespace cmp
