#include "stream/stream_train.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "cmp/cmp.h"
#include "common/class_counts.h"
#include "datagen/agrawal.h"
#include "datagen/drift.h"
#include "exact/exact.h"
#include "io/block_source.h"
#include "io/sketch_sidecar.h"
#include "stream/refit.h"
#include "tree/evaluate.h"
#include "tree/observer.h"
#include "tree/serialize.h"

namespace cmp {
namespace {

Dataset MakeData(AgrawalFunction function, int64_t records, uint64_t seed) {
  AgrawalOptions o;
  o.function = function;
  o.num_records = records;
  o.seed = seed;
  return GenerateAgrawal(o);
}

double Accuracy(const DecisionTree& tree, const Dataset& ds) {
  const Evaluation eval = Evaluate(tree, ds);
  return static_cast<double>(eval.correct) /
         static_cast<double>(eval.total);
}

// Captures per-pass observability, including the new sketch fields.
class RecordingObserver : public TrainObserver {
 public:
  void OnPass(const PassObservation& pass) override {
    max_sketch_bytes = std::max(max_sketch_bytes, pass.sketch_bytes);
    total_refit_regrown += pass.refit_leaves_regrown;
    passes++;
  }
  int64_t max_sketch_bytes = 0;
  int64_t total_refit_regrown = 0;
  int passes = 0;
};

BuildResult TrainStream(const Dataset& ds, int threads, int64_t block,
                        SketchSidecar* sidecar,
                        TrainObserver* observer = nullptr) {
  StreamOptions o;
  o.base.num_threads = threads;
  o.base.observer = observer;
  DatasetBlockSource source(ds, block);
  BuildResult result;
  std::string error;
  EXPECT_TRUE(StreamTrain(source, o, &result, sidecar, &error)) << error;
  return result;
}

TEST(StreamTrain, ByteIdenticalAcrossThreadsBlocksAndReruns) {
  const Dataset ds = MakeData(AgrawalFunction::kF2, 20000, 3);
  SketchSidecar sc1, sc2;
  const std::string base =
      SerializeTree(TrainStream(ds, 1, 0, &sc1).tree);
  EXPECT_EQ(base, SerializeTree(TrainStream(ds, 4, 0, &sc2).tree))
      << "thread count changed the tree";
  EXPECT_EQ(base, SerializeTree(TrainStream(ds, 2, 777, &sc2).tree))
      << "block size changed the tree";
  EXPECT_EQ(base, SerializeTree(TrainStream(ds, 1, 4096, &sc2).tree))
      << "rerun/block changed the tree";
  // The sidecar is equally deterministic (same leaves, same bytes).
  const std::vector<uint8_t> sidecar_bytes = SerializeSketchSidecar(sc1);
  SketchSidecar sc3;
  TrainStream(ds, 8, 123, &sc3);
  EXPECT_EQ(sidecar_bytes, SerializeSketchSidecar(sc3));
}

TEST(StreamTrain, RegistryBuilderMatchesDirectCall) {
  const Dataset ds = MakeData(AgrawalFunction::kF2, 8000, 5);
  StreamOptions o;
  StreamBuilder builder(o);
  const BuildResult via_builder = builder.Build(ds);
  SketchSidecar sidecar;
  const BuildResult direct = TrainStream(ds, 1, 0, &sidecar);
  EXPECT_EQ(SerializeTree(via_builder.tree), SerializeTree(direct.tree));
  EXPECT_EQ(SerializeSketchSidecar(builder.sidecar()),
            SerializeSketchSidecar(sidecar));
}

TEST(StreamTrain, AccuracyWithinOnePointOfBatchCmp) {
  for (AgrawalFunction f :
       {AgrawalFunction::kF2, AgrawalFunction::kF7}) {
    const Dataset train = MakeData(f, 30000, 1);
    const Dataset test = MakeData(f, 10000, 2);

    CmpBuilder batch(CmpFullOptions());
    const double batch_acc = Accuracy(batch.Build(train).tree, test);

    SketchSidecar sidecar;
    const double stream_acc =
        Accuracy(TrainStream(train, 1, 0, &sidecar).tree, test);

    EXPECT_GE(stream_acc, batch_acc - 0.01)
        << "f=" << static_cast<int>(f) << " batch=" << batch_acc
        << " stream=" << stream_acc;
  }
}

TEST(StreamTrain, SketchMemoryIsSublinear) {
  // Raw numeric data is 6 doubles/record; the sketch state the trainer
  // holds must stay a small fraction of it and grow far slower than n.
  RecordingObserver small_obs, large_obs;
  SketchSidecar sidecar;
  const Dataset small = MakeData(AgrawalFunction::kF7, 20000, 9);
  const Dataset large = MakeData(AgrawalFunction::kF7, 80000, 9);
  TrainStream(small, 1, 0, &sidecar, &small_obs);
  TrainStream(large, 1, 0, &sidecar, &large_obs);

  ASSERT_GT(small_obs.max_sketch_bytes, 0);
  ASSERT_GT(large_obs.max_sketch_bytes, 0);
  const int64_t large_raw = large.num_records() * 6 * 8;
  EXPECT_LT(large_obs.max_sketch_bytes, large_raw / 2);
  // 4x the records must cost far less than 4x the sketch bytes
  // (O(k log n) per node, and deeper frontiers stay bounded).
  EXPECT_LT(large_obs.max_sketch_bytes, 3 * small_obs.max_sketch_bytes);
}

TEST(StreamTrain, EmptyStream) {
  Dataset ds(AgrawalSchema());
  SketchSidecar sidecar;
  const BuildResult result = TrainStream(ds, 1, 0, &sidecar);
  ASSERT_EQ(result.tree.num_nodes(), 1);
  EXPECT_TRUE(result.tree.node(0).is_leaf);
}

// -- Incremental refit --------------------------------------------------

struct RefitRun {
  DecisionTree tree;
  SketchSidecar sidecar;
  RefitStats stats;
};

RefitRun TrainThenRefit(const Dataset& first, const Dataset& second,
                        double drift_threshold = 0.15,
                        TrainObserver* observer = nullptr) {
  RefitRun run;
  const BuildResult result = TrainStream(first, 1, 0, &run.sidecar);
  run.tree = result.tree;
  RefitOptions o;
  o.drift_threshold = drift_threshold;
  o.stream.base.observer = observer;
  DatasetBlockSource source(second);
  BuildStats build_stats;
  std::string error;
  EXPECT_TRUE(RefitTree(&run.tree, &run.sidecar, source, o, &build_stats,
                        &run.stats, &error))
      << error;
  return run;
}

TEST(Refit, RecoversAccuracyAfterConceptDrift) {
  // Train on F2, then the concept suddenly becomes F7 (the drifting
  // generator's covariates are identical — only labels change).
  DriftOptions d;
  d.before = AgrawalFunction::kF2;
  d.after = AgrawalFunction::kF7;
  d.num_records = 60000;
  d.drift_at = 30000;
  d.seed = 4;
  const Dataset all = GenerateDriftingAgrawal(d);
  Dataset first(all.schema()), second(all.schema());
  std::vector<double> nv(6);
  std::vector<int32_t> cv(3);
  for (RecordId r = 0; r < all.num_records(); ++r) {
    for (AttrId a = 0, n = 0, c = 0; a < all.schema().num_attrs(); ++a) {
      if (all.schema().attr(a).kind == AttrKind::kNumeric) {
        nv[n++] = all.numeric(a, r);
      } else {
        cv[c++] = all.categorical(a, r);
      }
    }
    (r < d.drift_at ? first : second).Append(nv, cv, all.label(r));
  }

  const Dataset holdout = MakeData(AgrawalFunction::kF7, 10000, 99);
  RecordingObserver obs;
  RefitRun run = TrainThenRefit(first, second, 0.15, &obs);

  SketchSidecar pre_sidecar;
  const double before =
      Accuracy(TrainStream(first, 1, 0, &pre_sidecar).tree, holdout);
  const double after = Accuracy(run.tree, holdout);
  EXPECT_GT(run.stats.leaves_regrown, 0);
  EXPECT_EQ(obs.total_refit_regrown, run.stats.leaves_regrown);
  EXPECT_GT(after, before + 0.15) << "refit did not recover from drift";
  EXPECT_GT(after, 0.90);
}

TEST(Refit, InteriorNodeBytesUntouched) {
  const Dataset first = MakeData(AgrawalFunction::kF2, 20000, 6);
  const Dataset second = MakeData(AgrawalFunction::kF7, 20000, 7);

  SketchSidecar sidecar;
  const BuildResult base = TrainStream(first, 1, 0, &sidecar);
  const int old_nodes = base.tree.num_nodes();

  DecisionTree tree = base.tree;
  RefitOptions o;
  DatasetBlockSource source(second);
  BuildStats build_stats;
  RefitStats refit_stats;
  std::string error;
  ASSERT_TRUE(RefitTree(&tree, &sidecar, source, o, &build_stats,
                        &refit_stats, &error))
      << error;

  // New nodes only ever append; pre-existing interior nodes keep their
  // exact split bytes (leaves may flip to interior or update counts).
  ASSERT_GE(tree.num_nodes(), old_nodes);
  for (NodeId id = 0; id < old_nodes; ++id) {
    const TreeNode& was = base.tree.node(id);
    const TreeNode& now = tree.node(id);
    if (was.is_leaf) continue;
    EXPECT_FALSE(now.is_leaf);
    EXPECT_EQ(was.split.kind, now.split.kind) << "node " << id;
    EXPECT_EQ(was.split.attr, now.split.attr) << "node " << id;
    EXPECT_EQ(was.split.threshold, now.split.threshold) << "node " << id;
    EXPECT_EQ(was.split.attr2, now.split.attr2) << "node " << id;
    EXPECT_EQ(was.split.a, now.split.a) << "node " << id;
    EXPECT_EQ(was.split.b, now.split.b) << "node " << id;
    EXPECT_EQ(was.split.c, now.split.c) << "node " << id;
    EXPECT_EQ(was.split.left_subset, now.split.left_subset) << "node " << id;
    EXPECT_EQ(was.left, now.left);
    EXPECT_EQ(was.right, now.right);
    EXPECT_EQ(was.depth, now.depth);
  }
  EXPECT_GT(refit_stats.leaves_regrown, 0);
}

TEST(Refit, DeterministicAcrossThreadCounts) {
  const Dataset first = MakeData(AgrawalFunction::kF2, 15000, 8);
  const Dataset second = MakeData(AgrawalFunction::kF7, 15000, 9);

  auto run = [&](int threads) {
    SketchSidecar sidecar;
    const BuildResult base = TrainStream(first, 1, 0, &sidecar);
    DecisionTree tree = base.tree;
    RefitOptions o;
    o.stream.base.num_threads = threads;
    DatasetBlockSource source(second, threads * 531);
    BuildStats bs;
    RefitStats rs;
    std::string error;
    EXPECT_TRUE(
        RefitTree(&tree, &sidecar, source, o, &bs, &rs, &error))
        << error;
    return SerializeTree(tree) + "\n====\n" +
           std::string(reinterpret_cast<const char*>(
                           SerializeSketchSidecar(sidecar).data()),
                       SerializeSketchSidecar(sidecar).size());
  };
  const std::string one = run(1);
  EXPECT_EQ(one, run(4));
  EXPECT_EQ(one, run(1));
}

TEST(Refit, RegrownLeafSplitsOnItsNewRecords) {
  // A drifted leaf with few new records is regrown exactly over them,
  // while its counts keep the old mass. Its first split must still be
  // the exact best split of the new records alone.
  const Dataset first = MakeData(AgrawalFunction::kF2, 20000, 6);
  const Dataset second = MakeData(AgrawalFunction::kF7, 20000, 7);
  SketchSidecar sidecar;
  const BuildResult base = TrainStream(first, 1, 0, &sidecar);

  DecisionTree tree = base.tree;
  RefitOptions o;
  DatasetBlockSource source(second);
  BuildStats bs;
  RefitStats rs;
  std::string error;
  ASSERT_TRUE(RefitTree(&tree, &sidecar, source, o, &bs, &rs, &error))
      << error;

  std::vector<std::vector<RecordId>> routed(base.tree.num_nodes());
  for (RecordId r = 0; r < second.num_records(); ++r) {
    NodeId id = 0;
    while (!base.tree.node(id).is_leaf) {
      const TreeNode& cur = base.tree.node(id);
      id = cur.split.RoutesLeft(second, r) ? cur.left : cur.right;
    }
    routed[id].push_back(r);
  }
  int checked = 0;
  for (NodeId id = 0; id < base.tree.num_nodes(); ++id) {
    const std::vector<RecordId>& rids = routed[id];
    if (!base.tree.node(id).is_leaf || tree.node(id).is_leaf ||
        static_cast<int64_t>(rids.size()) >
            o.stream.base.in_memory_threshold) {
      continue;
    }
    ASSERT_GT(CountSum(base.tree.node(id).class_counts), 0);
    const ExactSplit want = FindBestSplitExact(second, rids);
    ASSERT_TRUE(want.valid);
    const Split& got = tree.node(id).split;
    EXPECT_EQ(got.kind, want.split.kind) << "node " << id;
    EXPECT_EQ(got.attr, want.split.attr) << "node " << id;
    EXPECT_EQ(got.threshold, want.split.threshold) << "node " << id;
    EXPECT_EQ(got.left_subset, want.split.left_subset) << "node " << id;
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

TEST(Refit, AbsorbsStationaryDataWithoutRegrowing) {
  // Same concept, fresh records: distributions at the leaves barely
  // move, so a reasonable threshold regrows nothing and the tree keeps
  // its shape (counts and sidecar still advance).
  const Dataset first = MakeData(AgrawalFunction::kF2, 20000, 10);
  const Dataset second = MakeData(AgrawalFunction::kF2, 20000, 11);
  SketchSidecar sidecar;
  const BuildResult base = TrainStream(first, 1, 0, &sidecar);
  const int64_t seen_before = sidecar.records_seen;

  DecisionTree tree = base.tree;
  RefitOptions o;
  o.drift_threshold = 0.45;
  DatasetBlockSource source(second);
  BuildStats bs;
  RefitStats rs;
  std::string error;
  ASSERT_TRUE(RefitTree(&tree, &sidecar, source, o, &bs, &rs, &error))
      << error;
  EXPECT_EQ(rs.leaves_regrown, 0);
  EXPECT_EQ(tree.num_nodes(), base.tree.num_nodes());
  EXPECT_EQ(sidecar.records_seen, seen_before + second.num_records());
  EXPECT_GT(rs.leaves_touched, 0);
  // The leaves absorbed every new record (interior counts are part of
  // the untouched interior bytes and intentionally stay at their
  // training-time values).
  int64_t total = 0;
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    if (!tree.node(id).is_leaf) continue;
    for (int64_t c : tree.node(id).class_counts) total += c;
  }
  EXPECT_EQ(total, first.num_records() + second.num_records());
}

TEST(Refit, ComposableTwice) {
  // refit(refit(tree)) keeps working off the updated sidecar.
  const Dataset first = MakeData(AgrawalFunction::kF2, 10000, 12);
  const Dataset second = MakeData(AgrawalFunction::kF7, 10000, 13);
  const Dataset third = MakeData(AgrawalFunction::kF7, 10000, 14);

  SketchSidecar sidecar;
  const BuildResult base = TrainStream(first, 1, 0, &sidecar);
  DecisionTree tree = base.tree;
  RefitOptions o;
  BuildStats bs;
  RefitStats rs;
  std::string error;
  DatasetBlockSource s2(second);
  ASSERT_TRUE(RefitTree(&tree, &sidecar, s2, o, &bs, &rs, &error)) << error;
  DatasetBlockSource s3(third);
  ASSERT_TRUE(RefitTree(&tree, &sidecar, s3, o, &bs, &rs, &error)) << error;
  EXPECT_EQ(sidecar.records_seen, 30000);

  const Dataset holdout = MakeData(AgrawalFunction::kF7, 5000, 15);
  EXPECT_GT(Accuracy(tree, holdout), 0.9);
}

TEST(Refit, RejectsMismatchedSidecar) {
  const Dataset first = MakeData(AgrawalFunction::kF2, 5000, 16);
  SketchSidecar sidecar;
  const BuildResult base = TrainStream(first, 1, 0, &sidecar);

  // A sidecar whose leaf keys do not exist as leaves in the tree.
  SketchSidecar bogus = sidecar;
  ASSERT_FALSE(bogus.leaves.empty());
  bogus.leaves.front().node = base.tree.num_nodes() + 7;
  DecisionTree tree = base.tree;
  RefitOptions o;
  DatasetBlockSource source(first);
  BuildStats bs;
  RefitStats rs;
  std::string error;
  EXPECT_FALSE(RefitTree(&tree, &bogus, source, o, &bs, &rs, &error));
  EXPECT_FALSE(error.empty());

  // A schema-incompatible sidecar.
  SketchSidecar wrong_schema = sidecar;
  wrong_schema.num_classes = 5;
  error.clear();
  EXPECT_FALSE(
      RefitTree(&tree, &wrong_schema, source, o, &bs, &rs, &error));
  EXPECT_FALSE(error.empty());
}

// -- The drifting generator itself --------------------------------------

TEST(DriftGenerator, CovariatesMatchStationaryStream) {
  DriftOptions d;
  d.before = AgrawalFunction::kF2;
  d.after = AgrawalFunction::kF7;
  d.num_records = 5000;
  d.drift_at = 2500;
  d.seed = 21;
  const Dataset drifted = GenerateDriftingAgrawal(d);

  AgrawalOptions a;
  a.function = AgrawalFunction::kF2;
  a.num_records = 5000;
  a.seed = 21;
  const Dataset stationary = GenerateAgrawal(a);

  ASSERT_EQ(drifted.num_records(), stationary.num_records());
  int64_t label_changes_before = 0, label_changes_after = 0;
  for (RecordId r = 0; r < drifted.num_records(); ++r) {
    for (AttrId at = 0; at < drifted.schema().num_attrs(); ++at) {
      if (drifted.schema().attr(at).kind == AttrKind::kNumeric) {
        ASSERT_EQ(drifted.numeric(at, r), stationary.numeric(at, r));
      } else {
        ASSERT_EQ(drifted.categorical(at, r), stationary.categorical(at, r));
      }
    }
    const bool differs = drifted.label(r) != stationary.label(r);
    (r < d.drift_at ? label_changes_before : label_changes_after) +=
        differs ? 1 : 0;
  }
  EXPECT_EQ(label_changes_before, 0) << "labels drifted before drift_at";
  EXPECT_GT(label_changes_after, 0) << "no concept shift happened";
}

TEST(DriftGenerator, BoundaryValues) {
  DriftOptions d;
  d.before = AgrawalFunction::kF1;
  d.after = AgrawalFunction::kF7;
  d.num_records = 1000;
  d.seed = 22;

  d.drift_at = 0;  // whole stream on `after`
  const Dataset all_after = GenerateDriftingAgrawal(d);
  AgrawalOptions a;
  a.function = AgrawalFunction::kF7;
  a.num_records = 1000;
  a.seed = 22;
  const Dataset expect_after = GenerateAgrawal(a);
  for (RecordId r = 0; r < 1000; ++r) {
    ASSERT_EQ(all_after.label(r), expect_after.label(r));
  }

  d.drift_at = 1000;  // never drifts
  const Dataset all_before = GenerateDriftingAgrawal(d);
  a.function = AgrawalFunction::kF1;
  const Dataset expect_before = GenerateAgrawal(a);
  for (RecordId r = 0; r < 1000; ++r) {
    ASSERT_EQ(all_before.label(r), expect_before.label(r));
  }
}

}  // namespace
}  // namespace cmp
