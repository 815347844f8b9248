// The boost meta-builder: gradient-boosted CMP trees behind the same
// TreeBuilder registry, serialization, and inference surfaces as every
// single-tree algorithm. The contracts under test: the ensemble beats
// the single depth-capped weak learner it is made of, the build is
// bit-deterministic (no RNG, so thread counts and reruns cannot move a
// byte), early stopping is reproducible, and a saved forest scores
// identically through text, blob, and BatchPredictor paths.
#include "boost/boost.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cmp/cmp.h"
#include "datagen/agrawal.h"
#include "infer/batch_predictor.h"
#include "infer/model_io.h"
#include "tree/builder.h"
#include "tree/serialize.h"

namespace cmp {
namespace {

Dataset Agrawal(AgrawalFunction f, int64_t n, uint64_t seed) {
  AgrawalOptions gen;
  gen.function = f;
  gen.num_records = n;
  gen.seed = seed;
  return GenerateAgrawal(gen);
}

// Additive score of a forest on one record, straight from the leaf
// encoding: F(x) = sum of DecodeLeafValue over the leaves x lands in.
double AdditiveScore(const std::vector<DecisionTree>& forest,
                     const Dataset& ds, RecordId r) {
  double f = 0.0;
  for (const DecisionTree& tree : forest) {
    const TreeNode& leaf = tree.node(tree.LeafOf(ds, r));
    f += BoostBuilder::DecodeLeafValue(leaf.class_counts[0],
                                       leaf.class_counts[1]);
  }
  return f;
}

double HoldoutAccuracy(const std::vector<DecisionTree>& forest,
                       const Dataset& test) {
  int64_t hits = 0;
  for (RecordId r = 0; r < test.num_records(); ++r) {
    const ClassId pred = AdditiveScore(forest, test, r) > 0.0 ? 1 : 0;
    hits += pred == test.label(r) ? 1 : 0;
  }
  return static_cast<double>(hits) /
         static_cast<double>(test.num_records());
}

TEST(Boost, RegisteredInTheBuilderRegistry) {
  const std::vector<std::string> names = RegisteredTreeBuilders();
  EXPECT_NE(std::find(names.begin(), names.end(), "boost"), names.end());
  std::unique_ptr<TreeBuilder> builder = MakeTreeBuilder("boost");
  ASSERT_NE(builder, nullptr);
  EXPECT_EQ(builder->name(), "Boost");
}

TEST(Boost, RegistryForwardsBoostConfig) {
  BuilderConfig config;
  config.boost.rounds = 3;
  config.boost.holdout = 0.0;  // no early stop: exactly 3 rounds
  std::unique_ptr<TreeBuilder> builder = MakeTreeBuilder("boost", config);
  ASSERT_NE(builder, nullptr);
  const BuildResult result = builder->Build(Agrawal(AgrawalFunction::kF1,
                                                    1500, 311));
  EXPECT_EQ(result.forest.size(), 3u);
  // BuildResult::tree is the forest's first member.
  EXPECT_EQ(SerializeTree(result.tree), SerializeTree(result.forest[0]));
}

// The acceptance contract: on functions a depth-capped single tree
// cannot nail, boosting the SAME weak learner must close part of the
// gap on held-out data.
TEST(Boost, BeatsItsOwnWeakLearnerOnHoldout) {
  for (const AgrawalFunction f :
       {AgrawalFunction::kF2, AgrawalFunction::kF7}) {
    const Dataset train = Agrawal(f, 6000, 401);
    const Dataset test = Agrawal(f, 3000, 402);

    BoostOptions opts;
    opts.boost.rounds = 25;
    opts.boost.weak_depth = 3;  // weak enough to leave headroom
    const BuildResult boosted = BoostBuilder(opts).Build(train);
    ASSERT_FALSE(boosted.forest.empty());

    // The single-tree baseline: one weak learner of the same shape.
    CmpOptions weak = CmpBOptions();
    weak.base.max_depth = 3;
    weak.base.prune = false;
    const BuildResult single = CmpBuilder(weak).Build(train);

    const auto accuracy_of = [&test](const DecisionTree& tree) {
      int64_t hits = 0;
      for (RecordId r = 0; r < test.num_records(); ++r) {
        hits += tree.Classify(test, r) == test.label(r) ? 1 : 0;
      }
      return static_cast<double>(hits) /
             static_cast<double>(test.num_records());
    };
    const double single_acc = accuracy_of(single.tree);
    const double boost_acc = HoldoutAccuracy(boosted.forest, test);
    EXPECT_GT(boost_acc, single_acc)
        << "function " << static_cast<int>(f) << ": boost " << boost_acc
        << " vs single " << single_acc;
  }
}

// No RNG anywhere in the pipeline: the forest bytes cannot depend on
// the thread count, and a rerun reproduces them exactly.
TEST(Boost, ForestBytesInvariantAcrossThreadsAndReruns) {
  const Dataset train = Agrawal(AgrawalFunction::kF2, 4000, 421);
  BoostOptions opts;
  opts.boost.rounds = 8;
  const auto build = [&train](BoostOptions o, int threads) {
    o.base.num_threads = threads;
    return SerializeForest(BoostBuilder(o).Build(train).forest);
  };
  const std::string reference = build(opts, 1);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(build(opts, 2), reference);
  EXPECT_EQ(build(opts, 4), reference);
  EXPECT_EQ(build(opts, 1), reference) << "rerun";
}

TEST(Boost, EarlyStopsDeterministically) {
  // Labels independent of the attributes: after the intercept round the
  // holdout log-loss cannot keep improving, so the patience window must
  // truncate the forest well short of the round budget — identically on
  // every run.
  Schema schema({{"x", AttrKind::kNumeric, 0}, {"y", AttrKind::kNumeric, 0}},
                {"neg", "pos"});
  Dataset noise(schema);
  uint64_t state = 0x9E3779B97F4A7C15ULL;
  const auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 2000; ++i) {
    const double x = static_cast<double>(next() % 1000);
    const double y = static_cast<double>(next() % 1000);
    noise.Append({x, y}, {}, static_cast<ClassId>(next() % 2));
  }
  BoostOptions opts;
  opts.boost.rounds = 40;
  opts.boost.patience = 3;
  const BuildResult first = BoostBuilder(opts).Build(noise);
  EXPECT_LT(first.forest.size(), 40u) << "early stop never triggered";
  ASSERT_FALSE(first.forest.empty());
  const BuildResult second = BoostBuilder(opts).Build(noise);
  EXPECT_EQ(first.forest.size(), second.forest.size());
  EXPECT_EQ(SerializeForest(first.forest), SerializeForest(second.forest));
}

TEST(Boost, NonBinaryProblemsThrow) {
  Schema schema({{"x", AttrKind::kNumeric, 0}}, {"a", "b", "c"});
  Dataset three(schema);
  for (int i = 0; i < 30; ++i) {
    three.Append({static_cast<double>(i)}, {}, static_cast<ClassId>(i % 3));
  }
  EXPECT_THROW(BoostBuilder().Build(three), std::invalid_argument);
}

TEST(Boost, LeafValueEncodingRoundTrips) {
  constexpr int64_t S = BoostBuilder::kLeafValueScale;
  constexpr double R = BoostBuilder::kLeafValueRange;
  // Quantization step is 2R/S ~ 2e-6; decode must invert encode within
  // half a step across the value range, and saturate cleanly at +-R.
  for (const double v : {-15.9, -4.0, -0.37, 0.0, 1e-6, 2.5, 15.9}) {
    const int64_t c1 =
        std::llround((v + R) / (2.0 * R) * static_cast<double>(S));
    EXPECT_NEAR(BoostBuilder::DecodeLeafValue(S - c1, c1), v,
                2.0 * R / static_cast<double>(S));
  }
  EXPECT_DOUBLE_EQ(BoostBuilder::DecodeLeafValue(S, 0), -R);
  EXPECT_DOUBLE_EQ(BoostBuilder::DecodeLeafValue(0, S), R);
}

TEST(Boost, ForestSerializationRoundTrips) {
  const Dataset train = Agrawal(AgrawalFunction::kF1, 1200, 431);
  BoostOptions opts;
  opts.boost.rounds = 4;
  opts.boost.holdout = 0.0;
  const BuildResult result = BoostBuilder(opts).Build(train);
  const std::string text = SerializeForest(result.forest);
  std::vector<DecisionTree> loaded;
  ASSERT_TRUE(DeserializeForest(text, &loaded));
  ASSERT_EQ(loaded.size(), result.forest.size());
  EXPECT_EQ(SerializeForest(loaded), text);
  // LoadTrees-style sniffing: a single serialized tree is NOT a forest.
  EXPECT_FALSE(DeserializeForest(SerializeTree(result.tree), &loaded));
}

// The inference contract the leaf encoding exists for: kAverageProb
// over the compiled blob reproduces sign(sum of leaf values) — the same
// labels as scoring the additive model directly, through bytes that
// round-tripped PackModelBlob.
TEST(Boost, BlobEnsembleScoringMatchesAdditiveModel) {
  const Dataset train = Agrawal(AgrawalFunction::kF2, 4000, 441);
  const Dataset test = Agrawal(AgrawalFunction::kF2, 1500, 442);
  BoostOptions opts;
  opts.boost.rounds = 10;
  const BuildResult result = BoostBuilder(opts).Build(train);
  ASSERT_GT(result.forest.size(), 1u);

  std::vector<const DecisionTree*> ptrs;
  for (const DecisionTree& t : result.forest) ptrs.push_back(&t);
  std::string error;
  CompiledModel model = CompileModel(ptrs, &error);
  ASSERT_FALSE(model.empty()) << error;
  ASSERT_EQ(model.num_trees(), static_cast<int>(result.forest.size()));

  const BatchPredictor predictor(std::move(model.trees),
                                 VoteKind::kAverageProb);
  const BatchResult batch = predictor.Predict(test);
  ASSERT_EQ(batch.labels.size(), static_cast<size_t>(test.num_records()));
  for (RecordId r = 0; r < test.num_records(); ++r) {
    const double f = AdditiveScore(result.forest, test, r);
    // At f == 0 the averaged probabilities tie and kAverageProb takes
    // the lower class id, matching the additive model's 0-threshold
    // only by convention; skip the measure-zero boundary.
    if (f == 0.0) continue;
    EXPECT_EQ(batch.labels[r], f > 0.0 ? 1 : 0) << "record " << r;
  }
}

}  // namespace
}  // namespace cmp