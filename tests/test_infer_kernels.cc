// Differential fuzz suite for the vectorized batch-inference engine:
// every runnable kernel tier (scalar gang, AVX2) must produce
// predictions byte-identical to the scalar PredictRow walker and to
// DecisionTree::Classify (the independent reference: the scalar tier and
// PredictRow share one step function), across batch remainders smaller
// than a vector, random ensembles, and a trained boost forest. Also
// covers the blob's node order: new blobs carry no kNodeLayout section,
// a blocked-order blob written by an older version (a committed
// fixture) still loads and scores the same, malformed kNodeLayout
// sections fail cleanly, and every prefix truncation of a blob is
// rejected at parse.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "boost/boost.h"
#include "common/cpu_features.h"
#include "common/dataset.h"
#include "common/random.h"
#include "common/schema.h"
#include "datagen/agrawal.h"
#include "infer/batch_predictor.h"
#include "infer/compiled_tree.h"
#include "infer/infer_kernels.h"
#include "infer/model_io.h"
#include "io/model_blob.h"
#include "tree/serialize.h"
#include "tree/tree.h"

namespace cmp {
namespace {

// A pool of "interesting" values shared by tree thresholds and dataset
// columns, so records routinely land exactly on split boundaries (and
// non-float-round-tripping thresholds exercise the kWide side table).
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
  for (size_t i = attrs.size() - 1; i > 0; --i) {
    std::swap(attrs[i], attrs[rng->UniformInt(0, static_cast<int64_t>(i))]);
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
    node.leaf_class = best;
    return tree->AddNode(node);
  }

  node.is_leaf = false;
  const int64_t kind = rng->UniformInt(0, 2);
  if (kind == 1 && !cats.empty()) {
    const AttrId a =
        cats[rng->UniformInt(0, static_cast<int64_t>(cats.size()) - 1)];
    std::vector<uint8_t> subset(schema.attr(a).cardinality);
    for (auto& b : subset) b = rng->Bernoulli(0.5) ? 1 : 0;
    node.split = Split::Categorical(a, std::move(subset));
  } else if (kind == 2 && numeric.size() >= 2) {
    const AttrId x = numeric[rng->UniformInt(
        0, static_cast<int64_t>(numeric.size()) - 1)];
    AttrId y = x;
    while (y == x) {
      y = numeric[rng->UniformInt(0,
                                  static_cast<int64_t>(numeric.size()) - 1)];
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
        numeric_values.push_back(rng->Bernoulli(0.5)
                                     ? pool.Draw(rng)
                                     : rng->Uniform(-100.0, 100.0));
      } else {
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

/// Per-attribute column-pointer view over a dataset (the adapter
/// BatchPredictor builds internally, rebuilt here so tests can drive
/// LeafIndicesOfColumns with explicit kernel tiers).
struct DatasetColumns {
  std::vector<const double*> num;
  std::vector<const int32_t*> cat;
  bool any_cat = false;

  explicit DatasetColumns(const Dataset& ds) {
    const Schema& schema = ds.schema();
    num.assign(schema.num_attrs(), nullptr);
    cat.assign(schema.num_attrs(), nullptr);
    for (AttrId a = 0; a < schema.num_attrs(); ++a) {
      if (schema.is_numeric(a)) {
        num[a] = ds.numeric_column(a).data();
      } else {
        cat[a] = ds.categorical_column(a).data();
        any_cat = true;
      }
    }
  }
  RowColumnsView view() const {
    return RowColumnsView{num.data(), any_cat ? cat.data() : nullptr};
  }
};

/// Every kernel tier this binary compiled AND this host can execute.
std::vector<std::pair<std::string, const InferKernelOps*>> RunnableTiers() {
  std::vector<std::pair<std::string, const InferKernelOps*>> tiers;
  tiers.emplace_back("scalar", &InferKernelOpsFor(KernelIsa::kScalar));
  if (KernelIsaSupported(KernelIsa::kAvx2)) {
    if (const InferKernelOps* ops = Avx2InferKernelOpsOrNull()) {
      tiers.emplace_back("avx2", ops);
    }
  }
  return tiers;
}

/// Dense raw-row copy of record `r`, indexed by AttrId.
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

// Every runnable tier x batch sizes spanning all vector remainders must
// byte-match the scalar PredictRow walker.
TEST(InferKernels, TiersMatchPredictRowAcrossRemainders) {
  Rng rng(20260808);
  const auto tiers = RunnableTiers();
  ASSERT_FALSE(tiers.empty());
  for (int trial = 0; trial < 12; ++trial) {
    const ValuePool pool(&rng);
    const Schema schema = RandomSchema(&rng);
    const DecisionTree tree = RandomTree(schema, &rng, pool);
    const Dataset ds = RandomDataset(schema, &rng, pool, 547);
    const DatasetColumns cols(ds);
    const CompiledTree compiled = CompiledTree::Compile(tree);

    // Scalar per-row reference (PredictRow semantics via LeafIndexOfRow),
    // itself checked against the interpreter.
    std::vector<double> raw_numeric;
    std::vector<int32_t> raw_cat;
    std::vector<int32_t> reference(ds.num_records());
    for (RecordId r = 0; r < ds.num_records(); ++r) {
      FillRawRow(ds, r, &raw_numeric, &raw_cat);
      reference[r] =
          compiled.LeafIndexOfRow(raw_numeric.data(), raw_cat.data());
      ASSERT_EQ(compiled.leaf_class(reference[r]), tree.Classify(ds, r));
      ASSERT_EQ(compiled.LeafIndexOf(ds, r), reference[r]);
    }

    for (const auto& [name, ops] : tiers) {
      // Batch sizes 0..17 cover every remainder of the 8-lane tier
      // (and the sub-vector scalar fallback) at both ends of
      // the range; two larger sizes exercise refill and drain.
      std::vector<int64_t> sizes;
      for (int64_t s = 0; s <= 17; ++s) sizes.push_back(s);
      sizes.push_back(100);
      sizes.push_back(ds.num_records());
      for (const int64_t size : sizes) {
        const int64_t begin =
            size == ds.num_records()
                ? 0
                : rng.UniformInt(0, ds.num_records() - size);
        std::vector<int32_t> got(static_cast<size_t>(size), -99);
        compiled.LeafIndicesOfColumns(cols.view(), begin, begin + size,
                                      got.data(), ops);
        for (int64_t i = 0; i < size; ++i) {
          ASSERT_EQ(got[i], reference[begin + i])
              << "tier=" << name << " size=" << size
              << " row=" << begin + i;
        }
      }
    }
  }
}

// BatchPredictor's two entry points (dataset, columns) must agree with
// each other and with the interpreter under every tier that
// SetKernelIsa can pin on this host.
TEST(InferKernels, BatchPredictorEntryPointsAgreeAcrossActiveTiers) {
  Rng rng(777001);
  const ValuePool pool(&rng);
  const Schema schema = RandomSchema(&rng);
  const DecisionTree tree = RandomTree(schema, &rng, pool);
  const Dataset ds = RandomDataset(schema, &rng, pool, 331);
  const CompiledTree compiled = CompiledTree::Compile(tree);
  const DatasetColumns cols(ds);

  const int64_t n = ds.num_records();

  const KernelIsa before = ActiveKernelIsa();
  for (const KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
    if (!SetKernelIsa(isa)) continue;
    PredictOptions opts;
    opts.want_probs = true;
    opts.top_k = 2;
    opts.block_size = 37;  // force many blocks and remainders
    const BatchPredictor predictor(&compiled, opts);
    const BatchResult from_ds = predictor.Predict(ds);
    const BatchResult from_cols = predictor.PredictColumns(
        cols.num.data(), cols.any_cat ? cols.cat.data() : nullptr, n);
    EXPECT_EQ(from_ds.labels, from_cols.labels);
    EXPECT_EQ(from_ds.probs, from_cols.probs);
    EXPECT_EQ(from_ds.topk, from_cols.topk);
    for (RecordId r = 0; r < n; ++r) {
      ASSERT_EQ(from_ds.labels[r], tree.Classify(ds, r))
          << "isa=" << KernelIsaName(isa) << " row=" << r;
    }
  }
  ASSERT_TRUE(SetKernelIsa(before));
}

// The tree-interleaved ensemble combiner must reproduce the old per-row
// reference combiner exactly, for both vote kinds, under every tier.
TEST(InferKernels, EnsembleInterleavingMatchesPerRowReference) {
  Rng rng(424242);
  const ValuePool pool(&rng);
  const Schema schema = RandomSchema(&rng);
  std::vector<DecisionTree> trees;
  std::vector<CompiledTree> compiled;
  for (int t = 0; t < 5; ++t) {
    trees.push_back(RandomTree(schema, &rng, pool));
    compiled.push_back(CompiledTree::Compile(trees.back()));
  }
  const Dataset ds = RandomDataset(schema, &rng, pool, 613);
  const int32_t nc = schema.num_classes();

  const KernelIsa before = ActiveKernelIsa();
  for (const VoteKind vote : {VoteKind::kMajority, VoteKind::kAverageProb}) {
    // Reference: the pre-interleaving combiner, one row at a time.
    std::vector<ClassId> want(ds.num_records());
    std::vector<float> want_probs(static_cast<size_t>(ds.num_records()) * nc);
    for (RecordId r = 0; r < ds.num_records(); ++r) {
      std::vector<double> acc(nc, 0.0);
      for (const CompiledTree& t : compiled) {
        const int32_t leaf = t.LeafIndexOf(ds, r);
        if (vote == VoteKind::kMajority) {
          acc[t.leaf_class(leaf)] += 1.0;
        } else {
          const float* p = t.leaf_probs(leaf);
          for (int32_t c = 0; c < nc; ++c) acc[c] += p[c];
        }
      }
      ClassId best = 0;
      for (ClassId c = 1; c < nc; ++c) {
        if (acc[c] > acc[best]) best = c;
      }
      want[r] = best;
      // Same expression as the production combiner (multiply by the
      // reciprocal, then narrow) so equality is exact, not approximate.
      const double inv = 1.0 / static_cast<double>(compiled.size());
      for (int32_t c = 0; c < nc; ++c) {
        want_probs[static_cast<size_t>(r) * nc + c] =
            static_cast<float>(acc[c] * inv);
      }
    }

    for (const KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
      if (!SetKernelIsa(isa)) continue;
      PredictOptions opts;
      opts.want_probs = true;
      opts.block_size = 53;
      const BatchResult got =
          BatchPredictor(compiled, vote, opts).Predict(ds);
      EXPECT_EQ(got.labels, want) << KernelIsaName(isa);
      EXPECT_EQ(got.probs, want_probs) << KernelIsaName(isa);
    }
  }
  ASSERT_TRUE(SetKernelIsa(before));
}

// A trained boost forest (kAverageProb additive scoring) must serve the
// same labels under every tier.
TEST(InferKernels, BoostForestIdenticalAcrossTiers) {
  // Small separable-ish binary problem.
  std::vector<AttrInfo> attrs = {{"x", AttrKind::kNumeric, 0},
                                 {"y", AttrKind::kNumeric, 0}};
  Schema schema(std::move(attrs), {"neg", "pos"});
  Dataset train(schema);
  Rng rng(99);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.Uniform(-1.0, 1.0);
    const double y = rng.Uniform(-1.0, 1.0);
    const ClassId label =
        (x + 0.5 * y + rng.Uniform(-0.2, 0.2)) > 0.0 ? 1 : 0;
    train.Append({x, y}, {}, label);
  }
  BoostOptions opts;
  opts.boost.rounds = 8;
  BoostBuilder builder(opts);
  const BuildResult built = builder.Build(train);
  ASSERT_GE(built.forest.size(), 2u);

  std::vector<const DecisionTree*> ptrs;
  for (const DecisionTree& t : built.forest) ptrs.push_back(&t);

  std::string error;
  const CompiledModel model = CompileModel(ptrs, &error);
  ASSERT_FALSE(model.empty()) << error;
  const KernelIsa before = ActiveKernelIsa();
  std::vector<ClassId> reference;
  for (const KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
    if (!SetKernelIsa(isa)) continue;
    const BatchResult got =
        BatchPredictor(model.trees, VoteKind::kAverageProb).Predict(train);
    if (reference.empty()) {
      reference = got.labels;
    } else {
      EXPECT_EQ(got.labels, reference) << KernelIsaName(isa);
    }
  }
  ASSERT_TRUE(SetKernelIsa(before));
}

// New blobs name no node order: they carry no kNodeLayout section (the
// nodes are in compile order, preorder) and bind and score like the
// interpreter.
TEST(InferKernels, NewBlobsCarryNoLayoutSection) {
  Rng rng(5150);
  const ValuePool pool(&rng);
  const Schema schema = RandomSchema(&rng);
  const DecisionTree tree = RandomTree(schema, &rng, pool);
  const Dataset ds = RandomDataset(schema, &rng, pool, 64);

  std::string error;
  auto blob = ModelBlob::FromBytes(PackModelBlob({&tree}, &error), &error);
  ASSERT_NE(blob, nullptr) << error;
  EXPECT_EQ(blob->Find(kGlobalSection, SectionKind::kNodeLayout), nullptr);

  CompiledModel model;
  ASSERT_TRUE(ModelFromBlob(blob, &model, &error)) << error;
  for (RecordId r = 0; r < ds.num_records(); ++r) {
    ASSERT_EQ(model.trees.front().Predict(ds, r), tree.Classify(ds, r));
  }
}

// tests/golden/cmp_full_default_blocked.cmpb is what `cmptool compile
// --tree tests/golden/cmp_full_default.tree` wrote while the compiler
// still defaulted to the breadth-first cache-blocked node order: nodes
// reordered, hot sections 64-byte aligned, and a kNodeLayout section
// naming the order. Such a blob must still load, and every row must get
// the label and probabilities of a fresh compile of the same tree and
// the label of DecisionTree::Classify, under every tier.
TEST(InferKernels, BlockedBlobFromOlderCompilerStillLoads) {
  const std::string dir = CMP_GOLDEN_DIR;
  std::vector<DecisionTree> trees;
  ASSERT_TRUE(LoadTrees(dir + "/cmp_full_default.tree", &trees));
  ASSERT_EQ(trees.size(), 1u);
  const DecisionTree& tree = trees.front();

  std::string error;
  CompiledModel old_model;
  ASSERT_TRUE(LoadCompiledModel(dir + "/cmp_full_default_blocked.cmpb",
                                &old_model, &error))
      << error;
  const BlobSection* layout =
      old_model.blob->Find(kGlobalSection, SectionKind::kNodeLayout);
  ASSERT_NE(layout, nullptr);
  ASSERT_EQ(layout->bytes, 2 * sizeof(uint32_t));
  uint32_t layout_value[2];
  std::memcpy(layout_value, old_model.blob->SectionData<uint8_t>(*layout),
              sizeof(layout_value));
  ASSERT_EQ(layout_value[0], 1u) << "fixture is not in blocked order";

  const CompiledModel fresh = CompileModel({&tree}, &error);
  ASSERT_FALSE(fresh.empty()) << error;
  ASSERT_EQ(old_model.num_trees(), 1);
  const CompiledTree& old_tree = old_model.trees.front();
  const CompiledTree& new_tree = fresh.trees.front();
  ASSERT_EQ(old_tree.num_nodes(), new_tree.num_nodes());
  ASSERT_EQ(old_tree.num_classes(), new_tree.num_classes());
  // The two node orders really differ, or this test checks nothing.
  ASSERT_FALSE(std::equal(old_tree.nodes_view().attr,
                          old_tree.nodes_view().attr + old_tree.num_nodes(),
                          new_tree.nodes_view().attr));

  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF2;
  gen.num_records = 5000;
  gen.seed = 72;
  const Dataset ds = GenerateAgrawal(gen);
  ASSERT_TRUE(ds.schema() == tree.schema());
  const DatasetColumns cols(ds);
  const int32_t nc = new_tree.num_classes();
  const int64_t n = ds.num_records();
  for (const auto& [name, ops] : RunnableTiers()) {
    std::vector<int32_t> old_leaves(n);
    std::vector<int32_t> new_leaves(n);
    old_tree.LeafIndicesOfColumns(cols.view(), 0, n, old_leaves.data(), ops);
    new_tree.LeafIndicesOfColumns(cols.view(), 0, n, new_leaves.data(), ops);
    for (RecordId r = 0; r < n; ++r) {
      const ClassId label = old_tree.leaf_class(old_leaves[r]);
      ASSERT_EQ(label, new_tree.leaf_class(new_leaves[r]))
          << name << " row " << r;
      ASSERT_EQ(label, tree.Classify(ds, r)) << name << " row " << r;
      ASSERT_TRUE(std::equal(old_tree.leaf_probs(old_leaves[r]),
                             old_tree.leaf_probs(old_leaves[r]) + nc,
                             new_tree.leaf_probs(new_leaves[r])))
          << name << " row " << r;
    }
  }
}

// A kNodeLayout section too short to hold value+version, or carrying an
// unknown layout value, must fail the bind with a clear error.
TEST(InferKernels, MalformedLayoutSectionFailsCleanly) {
  Rng rng(31337);
  const ValuePool pool(&rng);
  const Schema schema = RandomSchema(&rng);
  const DecisionTree tree = RandomTree(schema, &rng, pool);

  std::string error;
  std::vector<uint8_t> bytes = PackModelBlob({&tree}, &error);
  ASSERT_FALSE(bytes.empty()) << error;
  auto parsed = ModelBlob::FromBytes(std::move(bytes), &error);
  ASSERT_NE(parsed, nullptr) << error;

  const auto rebuild = [&](const std::vector<uint32_t>& layout_payload) {
    BlobWriter writer(1, parsed->num_classes());
    for (const BlobSection& s : parsed->sections()) {
      writer.Add(s.tree, static_cast<SectionKind>(s.kind),
                 parsed->SectionData<uint8_t>(s), s.count,
                 s.count > 0 ? s.bytes / s.count : 1);
    }
    writer.Add(kGlobalSection, SectionKind::kNodeLayout,
               layout_payload.data(), layout_payload.size(),
               sizeof(uint32_t));
    return ModelBlob::FromBytes(writer.Finish(), &error);
  };

  CompiledModel model;
  auto short_section = rebuild({1});  // 4 bytes, needs 8
  ASSERT_NE(short_section, nullptr) << error;
  EXPECT_FALSE(ModelFromBlob(short_section, &model, &error));
  EXPECT_NE(error.find("node-layout"), std::string::npos) << error;

  auto unknown_value = rebuild({7, 1});
  ASSERT_NE(unknown_value, nullptr) << error;
  EXPECT_FALSE(ModelFromBlob(unknown_value, &model, &error));
  EXPECT_NE(error.find("layout"), std::string::npos) << error;
}

// Every prefix truncation of a blob must be rejected at FromBytes — the
// container's total-size check makes a partial download or short write
// fail loudly instead of binding garbage views.
TEST(InferKernels, EveryPrefixTruncationOfBlobFails) {
  Rng rng(8086);
  const ValuePool pool(&rng);
  const Schema schema = RandomSchema(&rng);
  const DecisionTree tree = RandomTree(schema, &rng, pool);

  std::string error;
  const std::vector<uint8_t> bytes = PackModelBlob({&tree}, &error);
  ASSERT_FALSE(bytes.empty()) << error;

  for (size_t len = 0; len < bytes.size(); ++len) {
    std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + len);
    auto blob = ModelBlob::FromBytes(std::move(prefix), &error);
    ASSERT_EQ(blob, nullptr) << "prefix of " << len << " bytes parsed";
  }
  // Sanity: the untruncated bytes do parse and bind.
  auto blob = ModelBlob::FromBytes(bytes, &error);
  ASSERT_NE(blob, nullptr) << error;
  CompiledModel model;
  ASSERT_TRUE(ModelFromBlob(blob, &model, &error)) << error;
}

// Repeated and concurrent Predict calls on one predictor must agree:
// the scratch pool hands every in-flight block its own buffers.
TEST(InferKernels, ScratchReuseIsDeterministicAndThreadSafe) {
  Rng rng(606060);
  const ValuePool pool(&rng);
  const Schema schema = RandomSchema(&rng);
  const DecisionTree tree = RandomTree(schema, &rng, pool);
  const Dataset ds = RandomDataset(schema, &rng, pool, 409);
  const CompiledTree compiled = CompiledTree::Compile(tree);

  PredictOptions opts;
  opts.want_probs = true;
  opts.block_size = 29;
  const BatchPredictor predictor(&compiled, opts);
  const BatchResult first = predictor.Predict(ds);
  for (int i = 0; i < 3; ++i) {
    const BatchResult again = predictor.Predict(ds);
    ASSERT_EQ(again.labels, first.labels);
    ASSERT_EQ(again.probs, first.probs);
  }

  std::vector<std::thread> threads;
  std::vector<BatchResult> results(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = predictor.Predict(ds); });
  }
  for (std::thread& t : threads) t.join();
  for (const BatchResult& r : results) {
    EXPECT_EQ(r.labels, first.labels);
    EXPECT_EQ(r.probs, first.probs);
  }
}

}  // namespace
}  // namespace cmp
