// The parallel-training determinism contract: for every builder that
// honors BuilderOptions::num_threads, the built tree is BIT-IDENTICAL
// for any thread count — same splits, same node ids, same hexfloat
// thresholds, byte-for-byte equal serialization. The contract holds by
// construction (per-shard integer histograms merged in a fixed order,
// all floating-point math on post-merge state, serial-order node
// grafting); these tests pin it down empirically across the CMP
// variants, numeric + categorical data, pruning on and off, and the
// in-memory exact-finish path.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "cmp/cmp.h"
#include "common/thread_pool.h"
#include "datagen/agrawal.h"
#include "io/block_source.h"
#include "rainforest/rainforest.h"
#include "tree/builder.h"
#include "tree/observer.h"
#include "tree/serialize.h"

namespace cmp {
namespace {

Dataset MakeData(AgrawalFunction f, int64_t n, uint64_t seed) {
  AgrawalOptions gen;
  gen.function = f;
  gen.num_records = n;
  gen.seed = seed;
  return GenerateAgrawal(gen);
}

const int kThreadCounts[] = {1, 2, 4, 8};

// Serializes the tree built with the given thread count. The shard
// count is pinned to the thread count: the auto setting caps shards at
// the machine's hardware concurrency, which on a small CI runner would
// quietly collapse every build to one shard and stop exercising the
// multi-shard mirror/merge path this suite exists to verify.
std::string BuildSerialized(CmpOptions o, const Dataset& train, int threads) {
  o.base.num_threads = threads;
  o.scan_shards = threads;
  CmpBuilder builder(o);
  return SerializeTree(builder.Build(train).tree);
}

struct VariantCase {
  CmpVariant variant;
  bool prune;
  const char* name;
};

class ParallelDeterminismTest : public ::testing::TestWithParam<VariantCase> {
};

// The core contract: CMP-S / CMP-B / CMP, pruning on and off, on data
// with both numeric and categorical attributes (Agrawal F3 splits on
// age bands AND the categorical elevel; F2 exercises pendings deeply).
TEST_P(ParallelDeterminismTest, BitIdenticalAcrossThreadCounts) {
  const VariantCase& c = GetParam();
  for (const AgrawalFunction f : {AgrawalFunction::kF2,
                                  AgrawalFunction::kF3}) {
    const Dataset train = MakeData(f, 12000, 211);
    CmpOptions o;
    o.variant = c.variant;
    o.base.prune = c.prune;
    const std::string reference = BuildSerialized(o, train, 1);
    ASSERT_FALSE(reference.empty());
    for (const int threads : kThreadCounts) {
      EXPECT_EQ(BuildSerialized(o, train, threads), reference)
          << c.name << " with " << threads << " threads";
    }
  }
}

// The in-memory exact-finish path: a low threshold pushes most of the
// tree through collect work items (parallel local builds grafted back),
// a zero threshold disables the switch entirely. Both must reproduce
// the single-threaded bytes.
TEST_P(ParallelDeterminismTest, InMemoryThresholdPathsBitIdentical) {
  const VariantCase& c = GetParam();
  const Dataset train = MakeData(AgrawalFunction::kF7, 9000, 223);
  for (const int64_t threshold : {int64_t{0}, int64_t{512}}) {
    CmpOptions o;
    o.variant = c.variant;
    o.base.prune = c.prune;
    o.base.in_memory_threshold = threshold;
    const std::string reference = BuildSerialized(o, train, 1);
    for (const int threads : kThreadCounts) {
      EXPECT_EQ(BuildSerialized(o, train, threads), reference)
          << c.name << " threshold " << threshold << " with " << threads
          << " threads";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, ParallelDeterminismTest,
    ::testing::Values(VariantCase{CmpVariant::kS, true, "CMP-S/prune"},
                      VariantCase{CmpVariant::kS, false, "CMP-S/noprune"},
                      VariantCase{CmpVariant::kB, true, "CMP-B/prune"},
                      VariantCase{CmpVariant::kB, false, "CMP-B/noprune"},
                      VariantCase{CmpVariant::kFull, true, "CMP/prune"},
                      VariantCase{CmpVariant::kFull, false, "CMP/noprune"}),
    [](const ::testing::TestParamInfo<VariantCase>& info) {
      std::string n = info.param.name;
      for (char& ch : n) {
        if (ch == '-' || ch == '/') ch = '_';
      }
      return n;
    });

// Every BuildStats counter except the wall-clock fields, as text.
std::string Counters(const BuildStats& s) {
  std::string out;
  for (const int64_t v :
       {s.dataset_scans, s.records_read, s.bytes_read, s.bytes_written,
        s.buffered_records, s.sort_comparisons, s.peak_memory_bytes,
        s.tree_nodes, s.tree_depth, s.predictions_total,
        s.predictions_correct, s.root_alive_intervals}) {
    out += std::to_string(v);
    out += ' ';
  }
  return out;
}

// The exact reference builder fans its per-attribute split search over
// the same pool, and SLIQ, SPRINT and RainForest grow their presorted
// partition on it; they must obey the same contract, counters included.
// A lowered in-memory switch puts their level-by-level splits on the
// path as well as their depth-first finish. RainForest is built directly:
// its switch also reads the AVC buffer, which the registry leaves at the
// default that collects this table at the root.
TEST(ParallelDeterminism, ExactBuilderBitIdentical) {
  const Dataset train = MakeData(AgrawalFunction::kF2, 4000, 227);
  for (const std::string algo : {"exact", "sliq", "sprint", "rainforest"}) {
    for (const bool prune : {true, false}) {
      std::string reference;
      std::string reference_counters;
      for (const int threads : kThreadCounts) {
        BuilderConfig config;
        config.base.prune = prune;
        config.base.num_threads = threads;
        config.base.in_memory_threshold = 512;
        RainForestOptions rf;
        rf.base = config.base;
        rf.avc_buffer_entries = train.schema().num_attrs();
        const BuildResult r = algo == "rainforest"
                                  ? RainForestBuilder(rf).Build(train)
                                  : MakeTreeBuilder(algo, config)->Build(train);
        const std::string bytes = SerializeTree(r.tree);
        if (threads == 1) {
          reference = bytes;
          reference_counters = Counters(r.stats);
          ASSERT_FALSE(reference.empty());
        } else {
          EXPECT_EQ(bytes, reference)
              << algo << ", prune=" << prune << ", " << threads
              << " threads";
          EXPECT_EQ(Counters(r.stats), reference_counters)
              << algo << ", prune=" << prune << ", " << threads
              << " threads";
        }
      }
    }
  }
}

// CMP scores the Y attributes of a node's matrices on the pool and
// reduces them serially in ascending attribute order. Agrawal F7 at 60k
// rows takes linear splits, so the parallel search and its tie rule are
// on the path: the tree must carry a linear split and be byte-identical,
// with the same counts of scored lines and of skipped searches, at every
// thread count. Some searches must be skipped, so the bound is on the
// path too.
TEST(ParallelDeterminism, LinearSplitSearchBitIdentical) {
  const Dataset train = MakeData(AgrawalFunction::kF7, 60000, 239);
  std::string reference;
  int64_t reference_lines = 0;
  int64_t reference_skipped = 0;
  for (const int threads : {1, 2, 4}) {
    CmpOptions o;
    o.base.num_threads = threads;
    o.scan_shards = threads;
    TrainStatsCollector stats;
    o.base.observer = &stats;
    const BuildResult r = CmpBuilder(o).Build(train);
    int64_t lines = 0;
    int64_t skipped = 0;
    for (const PassObservation& p : stats.passes()) {
      lines += p.lines_evaluated;
      skipped += p.lines_skipped;
    }
    const std::string bytes = SerializeTree(r.tree);
    if (threads == 1) {
      int linear = 0;
      for (NodeId id = 0; id < r.tree.num_nodes(); ++id) {
        const TreeNode& node = r.tree.node(id);
        if (!node.is_leaf && node.split.kind == Split::Kind::kLinear) {
          ++linear;
        }
      }
      ASSERT_GE(linear, 1);
      ASSERT_GT(lines, 0);
      ASSERT_GT(skipped, 0);
      reference = bytes;
      reference_lines = lines;
      reference_skipped = skipped;
    } else {
      EXPECT_EQ(bytes, reference) << threads << " threads";
      EXPECT_EQ(lines, reference_lines) << threads << " threads";
      EXPECT_EQ(skipped, reference_skipped) << threads << " threads";
    }
  }
}

using CounterList = std::vector<std::pair<std::string, int64_t>>;

CounterList FinalCounters(const BuildStats& s) {
  return CounterList{{"dataset_scans", s.dataset_scans},
                     {"records_read", s.records_read},
                     {"bytes_read", s.bytes_read},
                     {"bytes_written", s.bytes_written},
                     {"buffered_records", s.buffered_records},
                     {"sort_comparisons", s.sort_comparisons},
                     {"peak_memory_bytes", s.peak_memory_bytes},
                     {"tree_nodes", s.tree_nodes},
                     {"tree_depth", s.tree_depth},
                     {"predictions_total", s.predictions_total},
                     {"predictions_correct", s.predictions_correct},
                     {"root_alive_intervals", s.root_alive_intervals}};
}

CounterList PassCounters(const PassObservation& p) {
  return CounterList{{"pass", p.pass},
                     {"records_scanned", p.records_scanned},
                     {"records_routed", p.records_routed},
                     {"bytes_read", p.bytes_read},
                     {"frontier_fresh", p.frontier_fresh},
                     {"frontier_pending", p.frontier_pending},
                     {"frontier_collect", p.frontier_collect},
                     {"alive_intervals", p.alive_intervals},
                     {"buffered_records", p.buffered_records},
                     {"buffer_bytes", p.buffer_bytes},
                     {"tree_nodes", p.tree_nodes},
                     {"lines_evaluated", p.lines_evaluated},
                     {"lines_skipped", p.lines_skipped},
                     {"code_cache_bytes", p.code_cache_bytes},
                     {"sibling_subtractions", p.sibling_subtractions},
                     {"sketch_bytes", p.sketch_bytes},
                     {"refit_leaves_regrown", p.refit_leaves_regrown}};
}

// A CMP build's serialized tree, final counters and per-pass counters.
struct CountedRun {
  std::string tree;
  CounterList final_stats;
  std::vector<CounterList> passes;
  std::vector<PassObservation> observed;
};

// Builds with `threads` threads (and as many scan shards), in memory
// when `block` is 0 and streamed in blocks of `block` records otherwise.
CountedRun BuildCounted(CmpOptions o, const Dataset& train, int threads,
                        int64_t block) {
  o.base.num_threads = threads;
  o.scan_shards = threads;
  TrainStatsCollector collector;
  o.base.observer = &collector;
  CmpBuilder builder(o);
  BuildResult result;
  if (block > 0) {
    DatasetBlockSource source(train, block);
    result = builder.BuildStreamed(source);
  } else {
    result = builder.Build(train);
  }
  CountedRun run{SerializeTree(result.tree), FinalCounters(result.stats), {},
                 collector.passes()};
  for (const PassObservation& p : collector.passes()) {
    run.passes.push_back(PassCounters(p));
  }
  return run;
}

void ExpectSameRun(const CountedRun& run, const CountedRun& reference,
                   const std::string& where) {
  EXPECT_EQ(run.tree, reference.tree) << where;
  EXPECT_EQ(run.final_stats, reference.final_stats) << where;
  ASSERT_EQ(run.passes.size(), reference.passes.size()) << where;
  for (size_t i = 0; i < run.passes.size(); ++i) {
    EXPECT_EQ(run.passes[i], reference.passes[i]) << where << " pass " << i;
  }
}

// Every counter of a build other than its seconds is a property of the
// data and the tree, not of the thread count: the final BuildStats and
// each pass's observation must equal the 1-thread build's, in memory and
// streamed. A pass's round runs its collected partitions and its fresh
// and pending nodes as one set of tasks with their own stats, handed out
// largest first and folded back in work-list order (collects, then
// fresh, then pending). On F7 some rounds mix at least two collects with
// at least two plan tasks, so the hand-out order differs from the graft
// order; an odd thread count makes it differ most. Only the build root's
// growth may set root_alive_intervals, so a fold that takes it from any
// other task shows up here.
TEST(ParallelDeterminism, BuildCountersIndependentOfThreadCount) {
  // F7 takes linear splits; F2 resolves pendings deeply.
  struct DataCase {
    AgrawalFunction function;
    int64_t rows;
    bool mixed_rounds;
  };
  const DataCase data_cases[] = {{AgrawalFunction::kF7, 60000, true},
                                 {AgrawalFunction::kF2, 20000, false}};
  int64_t roots_with_alive = 0;
  for (const DataCase& data : data_cases) {
    const Dataset train = MakeData(data.function, data.rows, 241);
    for (const auto& [variant, name] :
         {std::pair<CmpVariant, const char*>{CmpVariant::kS, "CMP-S"},
          std::pair<CmpVariant, const char*>{CmpVariant::kB, "CMP-B"},
          std::pair<CmpVariant, const char*>{CmpVariant::kFull, "CMP"}}) {
      CmpOptions o;
      o.variant = variant;
      for (const int64_t block : {int64_t{0}, int64_t{700}, int64_t{777}}) {
        std::string at = "F";
        at += std::to_string(static_cast<int>(data.function));
        at += std::string(" ") + name;
        at += block > 0 ? " streamed at " + std::to_string(block) + ", "
                        : std::string(" in memory, ");
        const CountedRun reference = BuildCounted(o, train, 1, block);
        ASSERT_GT(reference.passes.size(), 1u);
        // root_alive_intervals is the last final counter.
        if (reference.final_stats.back().second > 0) ++roots_with_alive;
        if (data.mixed_rounds) {
          int mixed = 0;
          for (const PassObservation& p : reference.observed) {
            if (p.frontier_collect >= 2 &&
                p.frontier_fresh + p.frontier_pending >= 2) {
              ++mixed;
            }
          }
          EXPECT_GT(mixed, 0) << at;
        }
        for (const int threads : {2, 3, 4, 8}) {
          ExpectSameRun(BuildCounted(o, train, threads, block), reference,
                        at + std::to_string(threads) + " threads");
        }
      }
    }
  }
  // The root-id rule is on the path: some roots resolve with alive
  // intervals.
  EXPECT_GT(roots_with_alive, 0);
}

// A table no larger than the in-memory switch is collected at the root:
// its one round has one task, which runs on the caller and fans the
// partition's attributes out over the pool.
TEST(ParallelDeterminism, CollectOnlyBuildBitIdentical) {
  const Dataset train = MakeData(AgrawalFunction::kF7, 3000, 257);
  for (const CmpVariant variant :
       {CmpVariant::kS, CmpVariant::kB, CmpVariant::kFull}) {
    CmpOptions o;
    o.variant = variant;
    ASSERT_LE(train.num_records(), o.base.in_memory_threshold);
    const CountedRun reference = BuildCounted(o, train, 1, 0);
    ASSERT_EQ(reference.observed.size(), 1u);
    EXPECT_EQ(reference.observed[0].frontier_collect, 1);
    ExpectSameRun(BuildCounted(o, train, 4, 0), reference, "4 threads");
  }
}

// An injected shared pool (the no-oversubscription path) must behave
// exactly like a builder-owned pool of the same size.
TEST(ParallelDeterminism, InjectedPoolMatchesOwnedPool) {
  const Dataset train = MakeData(AgrawalFunction::kF2, 8000, 229);
  CmpOptions o;
  const std::string reference = BuildSerialized(o, train, 1);
  ThreadPool shared(4);
  CmpBuilder builder(o, &shared);
  EXPECT_EQ(SerializeTree(builder.Build(train).tree), reference);
  // The pool survives the build and stays usable.
  std::vector<int> hits(100, 0);
  shared.ParallelFor(100, 1, [&hits](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) hits[i]++;
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// num_threads = 0 resolves to hardware_concurrency; whatever that is on
// the machine running the tests, the bytes must not change.
TEST(ParallelDeterminism, HardwareConcurrencyBitIdentical) {
  const Dataset train = MakeData(AgrawalFunction::kF6, 8000, 233);
  CmpOptions o;
  EXPECT_EQ(BuildSerialized(o, train, 0), BuildSerialized(o, train, 1));
}

}  // namespace
}  // namespace cmp
