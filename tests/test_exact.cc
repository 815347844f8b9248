#include "exact/exact.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>

#include "common/class_counts.h"
#include "common/random.h"
#include "datagen/agrawal.h"
#include "datagen/loan_example.h"
#include "gini/categorical.h"
#include "gini/gini.h"
#include "hist/histogram1d.h"
#include "pruning/mdl.h"
#include "tree/evaluate.h"
#include "tree/serialize.h"

namespace cmp {
namespace {

std::vector<RecordId> AllRids(const Dataset& ds) {
  std::vector<RecordId> rids(ds.num_records());
  for (RecordId r = 0; r < ds.num_records(); ++r) rids[r] = r;
  return rids;
}

TEST(FindBestSplitExact, LoanExampleRootSplit) {
  // On the Figure 1 data the best univariate root split is age <= 20
  // (separating the two youngest "No" applicants) or salary-based; it
  // must strictly improve on the parent gini of 0.5.
  const Dataset ds = LoanExampleDataset();
  const ExactSplit best = FindBestSplitExact(ds, AllRids(ds));
  ASSERT_TRUE(best.valid);
  EXPECT_LT(best.gini, 0.5);
}

TEST(FindBestSplitExact, MatchesBruteForceOnRandomData) {
  // Brute force over every attribute/threshold must agree with the
  // implementation's best gini.
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF2;
  gen.num_records = 300;
  gen.seed = 17;
  const Dataset ds = GenerateAgrawal(gen);
  const std::vector<RecordId> rids = AllRids(ds);
  const ExactSplit best = FindBestSplitExact(ds, rids);
  ASSERT_TRUE(best.valid);

  const std::vector<int64_t> totals = ds.ClassCounts();
  double brute = 1.0;
  for (AttrId a = 0; a < ds.num_attrs(); ++a) {
    if (!ds.schema().is_numeric(a)) continue;
    for (RecordId i : rids) {
      const double threshold = ds.numeric(a, i);
      std::vector<int64_t> below(ds.num_classes(), 0);
      int64_t below_n = 0;
      for (RecordId r : rids) {
        if (ds.numeric(a, r) <= threshold) {
          below[ds.label(r)]++;
          below_n++;
        }
      }
      if (below_n == 0 || below_n == ds.num_records()) continue;
      brute = std::min(brute, BoundaryGini(below, totals));
    }
  }
  EXPECT_LE(best.gini, brute + 1e-12);
}

TEST(FindBestSplitExact, PureSetHasNoUsefulSplit) {
  Dataset ds(LoanExampleSchema());
  for (int i = 0; i < 10; ++i) {
    ds.Append({static_cast<double>(i), 100.0 * i, 0.0}, {}, 1);
  }
  const ExactSplit best = FindBestSplitExact(ds, AllRids(ds));
  // A split may exist but cannot improve on gini 0.
  if (best.valid) {
    EXPECT_DOUBLE_EQ(best.gini, 0.0);
  }
}

TEST(ExactBuilder, PerfectOnSeparableData) {
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF1;  // pure age bands
  gen.num_records = 5000;
  gen.seed = 21;
  const Dataset ds = GenerateAgrawal(gen);
  ExactBuilder builder;
  const BuildResult result = builder.Build(ds);
  EXPECT_GT(Evaluate(result.tree, ds).Accuracy(), 0.999);
  // F1 needs only two age splits.
  EXPECT_LE(result.tree.Depth(), 4);
}

TEST(ExactBuilder, RespectsMaxDepth) {
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF7;
  gen.num_records = 3000;
  gen.seed = 25;
  const Dataset ds = GenerateAgrawal(gen);
  BuilderOptions options;
  options.max_depth = 3;
  ExactBuilder builder(options);
  const BuildResult result = builder.Build(ds);
  EXPECT_LE(result.tree.Depth(), 3);
}

TEST(ExactBuilder, RespectsMinSplitRecords) {
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF2;
  gen.num_records = 1000;
  gen.seed = 27;
  const Dataset ds = GenerateAgrawal(gen);
  BuilderOptions options;
  options.min_split_records = 400;
  options.prune = false;
  ExactBuilder builder(options);
  const BuildResult result = builder.Build(ds);
  // Any internal node must have had >= 400 records.
  for (NodeId id = 0; id < result.tree.num_nodes(); ++id) {
    const TreeNode& n = result.tree.node(id);
    if (!n.is_leaf) {
      int64_t total = 0;
      for (int64_t c : n.class_counts) total += c;
      EXPECT_GE(total, 400);
    }
  }
}

TEST(ExactBuilder, UsesCategoricalSplitsWhenDiscriminative) {
  // Build a dataset where only the categorical attribute matters.
  Schema schema({{"noise", AttrKind::kNumeric, 0},
                 {"key", AttrKind::kCategorical, 4}},
                {"no", "yes"});
  Dataset ds(schema);
  Rng rng(29);
  for (int i = 0; i < 2000; ++i) {
    const int32_t key = static_cast<int32_t>(rng.UniformInt(0, 3));
    ds.Append({rng.Uniform(0, 1)}, {key}, key < 2 ? 0 : 1);
  }
  ExactBuilder builder;
  const BuildResult result = builder.Build(ds);
  ASSERT_FALSE(result.tree.node(0).is_leaf);
  EXPECT_EQ(result.tree.node(0).split.kind, Split::Kind::kCategorical);
  EXPECT_DOUBLE_EQ(Evaluate(result.tree, ds).Accuracy(), 1.0);
}

TEST(BuildExactSubtree, EmptyRidsMakesLeaf) {
  const Dataset ds = LoanExampleDataset();
  DecisionTree tree(ds.schema());
  TreeNode root;
  root.class_counts = {0, 0};
  const NodeId root_id = tree.AddNode(root);
  BuildExactSubtree(ds, {}, BuilderOptions{}, &tree, root_id);
  EXPECT_TRUE(tree.node(root_id).is_leaf);
}

// Numeric attribute `a` of `rids` as list entries (value; label above
// position in `rids`), sorted with the comparator the presorted lists
// are defined by: value, then label, then position. −0.0 == 0.0, so the
// two tie and fall to label and position.
std::vector<PresortedPartition::ListEntry> ComparatorSortedList(
    const Dataset& ds, AttrId a, const std::vector<RecordId>& rids) {
  std::vector<PresortedPartition::ListEntry> list;
  for (size_t i = 0; i < rids.size(); ++i) {
    list.push_back({ds.numeric(a, rids[i]),
                    (static_cast<uint64_t>(ds.label(rids[i])) << 32) | i});
  }
  std::sort(list.begin(), list.end(),
            [](const PresortedPartition::ListEntry& x,
               const PresortedPartition::ListEntry& y) {
              return x.value < y.value ||
                     (x.value == y.value && x.key < y.key);
            });
  return list;
}

// The per-node-sort exact builder that presorted attribute lists
// replaced: every node sorts each numeric attribute's entries with the
// comparator and scores each distinct-value boundary with BoundaryGini;
// children get fresh rid vectors, whose positions keep the parent's
// relative order. BuildExactSubtree must grow the same subtree and
// charge the same modeled sort work.
ExactSplit OracleSplit(const Dataset& ds, const std::vector<RecordId>& rids,
                       ScanTracker* tracker) {
  const Schema& schema = ds.schema();
  const int nc = schema.num_classes();
  std::vector<int64_t> totals(nc, 0);
  for (RecordId r : rids) totals[ds.label(r)]++;
  ExactSplit best;
  best.gini = std::numeric_limits<double>::infinity();
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    ExactSplit cur;
    cur.gini = std::numeric_limits<double>::infinity();
    if (schema.is_numeric(a)) {
      if (tracker != nullptr) {
        tracker->ChargeSort(static_cast<int64_t>(rids.size()));
      }
      const std::vector<PresortedPartition::ListEntry> column =
          ComparatorSortedList(ds, a, rids);
      std::vector<int64_t> below(nc, 0);
      for (size_t i = 0; i + 1 < column.size(); ++i) {
        below[column[i].key >> 32]++;
        if (column[i].value == column[i + 1].value) continue;
        const double g = BoundaryGini(below, totals);
        if (g < cur.gini) {
          cur.gini = g;
          cur.split = Split::Numeric(a, column[i].value);
          cur.valid = true;
        }
      }
    } else {
      Histogram1D hist(schema.attr(a).cardinality, nc);
      for (RecordId r : rids) hist.Add(ds.categorical(a, r), ds.label(r));
      const CategoricalSplit cs = BestCategoricalSplit(hist);
      if (cs.valid) {
        cur.gini = cs.gini;
        cur.split = Split::Categorical(a, cs.left_subset);
        cur.valid = true;
      }
    }
    if (cur.valid && cur.gini < best.gini) best = cur;
  }
  if (!best.valid) best.gini = Gini(totals);
  return best;
}

void OracleSubtree(const Dataset& ds, const std::vector<RecordId>& rids,
                   const BuilderOptions& options, DecisionTree* tree,
                   NodeId id, ScanTracker* tracker) {
  const std::vector<int64_t> counts = tree->node(id).class_counts;
  const int depth = tree->node(id).depth;
  const bool stop =
      IsPure(counts) ||
      static_cast<int64_t>(rids.size()) < options.min_split_records ||
      depth >= options.max_depth ||
      (options.prune &&
       ShouldPruneBeforeExpand(counts, ds.schema().num_attrs()));
  if (!stop) {
    const ExactSplit best = OracleSplit(ds, rids, tracker);
    if (best.valid && best.gini < Gini(counts) - 1e-12) {
      std::vector<RecordId> side[2];
      for (RecordId r : rids) {
        side[best.split.RoutesLeft(ds, r) ? 0 : 1].push_back(r);
      }
      if (!side[0].empty() && !side[1].empty()) {
        NodeId child[2];
        for (int k = 0; k < 2; ++k) {
          TreeNode node;
          node.depth = depth + 1;
          node.class_counts.assign(ds.num_classes(), 0);
          for (RecordId r : side[k]) node.class_counts[ds.label(r)]++;
          node.leaf_class = Majority(node.class_counts);
          child[k] = tree->AddNode(std::move(node));
        }
        TreeNode& node = tree->mutable_node(id);
        node.is_leaf = false;
        node.split = best.split;
        node.left = child[0];
        node.right = child[1];
        OracleSubtree(ds, side[0], options, tree, child[0], tracker);
        OracleSubtree(ds, side[1], options, tree, child[1], tracker);
        return;
      }
    }
  }
  TreeNode& node = tree->mutable_node(id);
  node.is_leaf = true;
  node.leaf_class = Majority(node.class_counts);
}

// A table built to stress the presorted lists: heavy value ties, ±inf
// and ±1e308, categorical cardinalities on both sides of the exhaustive
// limit (12), and labels that depend on several attributes plus noise.
Dataset TieHeavyTable(int num_classes, int64_t num_records, uint64_t seed) {
  std::vector<AttrInfo> attrs = {{"ties", AttrKind::kNumeric, 0},
                                 {"extremes", AttrKind::kNumeric, 0},
                                 {"smooth", AttrKind::kNumeric, 0}};
  for (int card : {2, 9, 12, 13, 20}) {
    std::string name = "cat";
    name += std::to_string(card);
    attrs.push_back({name, AttrKind::kCategorical, card});
  }
  std::vector<std::string> classes;
  for (int c = 0; c < num_classes; ++c) {
    std::string name = "c";
    name += std::to_string(c);
    classes.push_back(name);
  }
  Dataset ds(Schema(attrs, classes));
  const double kExtremes[] = {-std::numeric_limits<double>::infinity(),
                              -1e308, -1.0, 0.0, 0.5, 1e308,
                              std::numeric_limits<double>::infinity()};
  Rng rng(seed);
  for (int64_t i = 0; i < num_records; ++i) {
    const double ties = static_cast<double>(rng.UniformInt(0, 6));
    const double extreme = kExtremes[rng.UniformInt(0, 6)];
    const double smooth = rng.Uniform(-3.0, 3.0);
    std::vector<int32_t> cats;
    for (int card : {2, 9, 12, 13, 20}) {
      cats.push_back(static_cast<int32_t>(rng.UniformInt(0, card - 1)));
    }
    int64_t signal = static_cast<int64_t>(ties) + cats[1] / 3 + cats[4] % 4 +
                     (extreme > 0.0 ? 2 : 0) + (smooth > 1.0 ? 1 : 0);
    if (rng.Bernoulli(0.15)) signal += rng.UniformInt(0, num_classes - 1);
    ds.Append({ties, extreme, smooth}, cats,
              static_cast<ClassId>(signal % num_classes));
  }
  return ds;
}

struct SubtreeRun {
  std::string tree;
  int num_nodes = 0;
  int64_t sort_comparisons = 0;
};

// Grows the subtree of `rids` under a root at depth `root_depth` that is
// node 1 of its tree, with BuildExactSubtree or with the oracle. `seed`,
// when given, is class mass the root counts on top of its records, as a
// refit root carries its leaf's history.
SubtreeRun GrowSubtree(const Dataset& ds, const std::vector<RecordId>& rids,
                       const BuilderOptions& options, int root_depth,
                       ThreadPool* pool, bool oracle,
                       const std::vector<int64_t>& seed = {}) {
  DecisionTree tree(ds.schema());
  TreeNode parent;
  parent.class_counts.assign(ds.num_classes(), 0);
  tree.AddNode(parent);
  TreeNode root;
  root.depth = root_depth;
  root.class_counts.assign(ds.num_classes(), 0);
  for (RecordId r : rids) root.class_counts[ds.label(r)]++;
  for (size_t c = 0; c < seed.size(); ++c) root.class_counts[c] += seed[c];
  root.leaf_class = Majority(root.class_counts);
  const NodeId root_id = tree.AddNode(std::move(root));
  BuildStats stats;
  ScanTracker tracker(&stats);
  if (oracle) {
    OracleSubtree(ds, rids, options, &tree, root_id, &tracker);
  } else {
    BuildExactSubtree(ds, rids, options, &tree, root_id, &tracker, pool);
  }
  return {SerializeTree(tree), tree.num_nodes(), stats.sort_comparisons};
}

TEST(BuildExactSubtree, PresortedListsMatchPerNodeSortOracle) {
  ThreadPool serial(1);
  ThreadPool four(4);
  int grown = 0;
  for (int num_classes : {2, 3, 7, 11}) {
    const Dataset ds = TieHeavyTable(num_classes, 700, 100 + num_classes);
    // Every record, then an ascending non-contiguous subset.
    std::vector<std::vector<RecordId>> subsets(2);
    Rng pick(num_classes);
    for (RecordId r = 0; r < ds.num_records(); ++r) {
      subsets[0].push_back(r);
      if (pick.Bernoulli(0.6)) subsets[1].push_back(r);
    }
    std::vector<BuilderOptions> configs(4);
    configs[0].prune = false;
    configs[1].min_split_records = 40;
    configs[1].prune = false;
    configs[2].max_depth = 5;
    configs[2].prune = false;
    configs[3].prune = true;
    for (size_t s = 0; s < subsets.size(); ++s) {
      for (size_t c = 0; c < configs.size(); ++c) {
        const int root_depth = static_cast<int>(c % 2) * 2;
        const SubtreeRun want = GrowSubtree(ds, subsets[s], configs[c],
                                            root_depth, nullptr, true);
        for (ThreadPool* pool : {&serial, &four}) {
          SCOPED_TRACE(testing::Message()
                       << "classes " << num_classes << " subset " << s
                       << " config " << c << " threads "
                       << pool->parallelism());
          const SubtreeRun got = GrowSubtree(ds, subsets[s], configs[c],
                                             root_depth, pool, false);
          EXPECT_EQ(got.tree, want.tree);
          EXPECT_EQ(got.sort_comparisons, want.sort_comparisons);
        }
        if (want.num_nodes > 9) ++grown;
      }
    }
  }
  // The tables are hard enough that every configuration grows a real tree.
  EXPECT_EQ(grown, 32);
}

// A root whose class counts also hold mass from outside its records (a
// refit root keeps its leaf's history) is still searched on its records'
// own class counts; the extra mass only enters its stop and gain tests.
TEST(BuildExactSubtree, SeededRootScoresItsOwnRecords) {
  ThreadPool four(4);
  int grown = 0;
  for (AgrawalFunction f : {AgrawalFunction::kF2, AgrawalFunction::kF5,
                            AgrawalFunction::kF7}) {
    AgrawalOptions gen;
    gen.function = f;
    gen.num_records = 1000;
    gen.seed = 31;
    const Dataset ds = GenerateAgrawal(gen);
    const std::vector<RecordId> rids = AllRids(ds);
    // Three times the records' own mass: the root's gini, and so its
    // gain test, stays that of its records.
    std::vector<int64_t> seed(ds.num_classes(), 0);
    for (RecordId r : rids) seed[ds.label(r)] += 3;
    for (bool prune : {false, true}) {
      BuilderOptions options;
      options.prune = prune;
      SCOPED_TRACE(testing::Message() << "function " << static_cast<int>(f)
                                      << " prune " << prune);
      const SubtreeRun want =
          GrowSubtree(ds, rids, options, 0, nullptr, true, seed);
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
        const SubtreeRun got =
            GrowSubtree(ds, rids, options, 0, pool, false, seed);
        EXPECT_EQ(got.tree, want.tree);
        EXPECT_EQ(got.sort_comparisons, want.sort_comparisons);
      }
      if (want.num_nodes > 9) ++grown;
    }
  }
  EXPECT_EQ(grown, 6);
}

// Numeric columns that stress the radix sort's key: ±0.0 under mixed
// labels; long runs of duplicates, most of them negative; subnormals,
// ±DBL_MAX and ±inf among ordinary values. Labels follow the columns
// loosely, so trees split on all three.
Dataset RadixAdversarialTable(int64_t num_records, uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kMin = std::numeric_limits<double>::min();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const double kZeros[] = {-0.0, 0.0, -0.0, 0.0, -1.0, 1.0};
  const double kExtremes[] = {-kInf, -kMax,      -1.5,     -kMin,
                              -3 * kTiny, -kTiny, -0.0,    0.0,
                              kTiny,      7 * kTiny, kMin / 3, kMin,
                              2.0,        kMax,      kInf};
  Dataset ds(Schema({{"zeros", AttrKind::kNumeric, 0},
                     {"runs", AttrKind::kNumeric, 0},
                     {"extremes", AttrKind::kNumeric, 0},
                     {"cat", AttrKind::kCategorical, 5}},
                    {"c0", "c1", "c2"}));
  Rng rng(seed);
  for (int64_t i = 0; i < num_records; ++i) {
    const double zero = kZeros[rng.UniformInt(0, 5)];
    const double run = static_cast<double>((i / 97) % 7) - 4.0;
    const double extreme = kExtremes[rng.UniformInt(0, 14)];
    const int32_t cat = static_cast<int32_t>(rng.UniformInt(0, 4));
    int64_t label = (std::signbit(zero) ? 1 : 0) + (run < -1.0 ? 1 : 0) +
                    (extreme > 0.0 ? 1 : 0);
    if (rng.Bernoulli(0.2)) label += rng.UniformInt(0, 2);
    ds.Append({zero, run, extreme}, {cat}, static_cast<ClassId>(label % 3));
  }
  return ds;
}

// Partition sizes for the radix tests: the degenerate ones, an odd
// handful, and more records than 16 bits count.
constexpr int64_t kRadixSizes[] = {0, 1, 2, 3, 700, 65537};

// A serial partition sorts its lists with a radix sort, a fanned-out one
// with std::sort. Either way each list must equal the comparator's sort
// entry for entry, value bits included (so −0.0 and 0.0 land where the
// comparator puts them).
TEST(PresortedPartition, ListsEqualComparatorSortSerialAndFannedOut) {
  ThreadPool four(4);
  for (const int64_t n : kRadixSizes) {
    const Dataset ds = RadixAdversarialTable(n + n / 4, 50 + n);
    // An ascending subset, so local indices differ from record ids.
    std::vector<RecordId> rids;
    for (RecordId r = 0; r < ds.num_records(); ++r) {
      if (static_cast<int64_t>(rids.size()) < n && (r % 5 != 3 || r >= n)) {
        rids.push_back(r);
      }
    }
    ASSERT_EQ(static_cast<int64_t>(rids.size()), n);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
      const PresortedPartition partition(ds, rids, pool);
      for (AttrId a = 0; a < 3; ++a) {
        SCOPED_TRACE(testing::Message() << "n " << n << " attr " << a
                                        << " pool " << (pool != nullptr));
        const std::vector<PresortedPartition::ListEntry> want =
            ComparatorSortedList(ds, a, rids);
        const std::vector<PresortedPartition::ListEntry>& got =
            partition.list(a);
        ASSERT_EQ(got.size(), want.size());
        int64_t mismatches = 0;
        for (size_t i = 0; i < want.size(); ++i) {
          if (std::bit_cast<uint64_t>(got[i].value) !=
                  std::bit_cast<uint64_t>(want[i].value) ||
              got[i].key != want[i].key) {
            ++mismatches;
          }
        }
        EXPECT_EQ(mismatches, 0);
      }
    }
  }
}

// The same tables grown into trees: BuildExactSubtree on radix-sorted
// (serial) and std::sort-ed (fanned-out) lists must equal the per-node
// comparator sort, thresholds' bits included.
TEST(BuildExactSubtree, RadixSortedListsMatchComparatorOracle) {
  ThreadPool four(4);
  int grown = 0;
  for (const int64_t n : kRadixSizes) {
    const Dataset ds = RadixAdversarialTable(n, 90 + n);
    BuilderOptions options;
    options.prune = false;
    options.max_depth = 7;
    const SubtreeRun want =
        GrowSubtree(ds, AllRids(ds), options, 0, nullptr, true);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &four}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " pool "
                                      << (pool != nullptr));
      const SubtreeRun got =
          GrowSubtree(ds, AllRids(ds), options, 0, pool, false);
      EXPECT_EQ(got.tree, want.tree);
      EXPECT_EQ(got.sort_comparisons, want.sort_comparisons);
    }
    if (want.num_nodes > 9) ++grown;
  }
  EXPECT_EQ(grown, 2);
}

}  // namespace
}  // namespace cmp
