// Golden-tree regression fixtures: every algorithm retrains on a fixed
// synthetic dataset and its serialized tree is byte-compared against a
// committed fixture under tests/golden/. Any refactor that changes a
// single split threshold, node id, or class count — even one that only
// reorders floating-point operations — fails here before it can silently
// alter model outputs.
//
// To regenerate after an INTENTIONAL behavior change:
//   CMP_UPDATE_GOLDEN=1 ./test_golden
// then review and commit the rewritten files under tests/golden/.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "clouds/clouds.h"
#include "cmp/cmp.h"
#include "datagen/agrawal.h"
#include "exact/exact.h"
#include "rainforest/rainforest.h"
#include "sliq/sliq.h"
#include "sprint/sprint.h"
#include "tree/builder.h"
#include "tree/observer.h"
#include "tree/serialize.h"

namespace cmp {
namespace {

Dataset GoldenData() {
  // Mixed numeric/categorical predicates (F5 uses salary, zipcode,
  // hvalue) on enough records to force several scan rounds for the
  // grid-based builders once the in-memory switch is lowered.
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF2;
  gen.num_records = 6000;
  gen.seed = 71;
  return GenerateAgrawal(gen);
}

std::string GoldenPath(const std::string& name) {
  return std::string(CMP_GOLDEN_DIR) + "/" + name + ".tree";
}

// Compares `contents` with the committed fixture at `path`, or rewrites
// the fixture under CMP_UPDATE_GOLDEN.
void CheckFixture(const std::string& name, const std::string& path,
                  const std::string& contents) {
  if (std::getenv("CMP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os.good()) << "cannot write " << path;
    os << contents;
    ASSERT_TRUE(os.good());
    std::cout << "updated " << path << " (" << contents.size()
              << " bytes)\n";
    return;
  }
  std::ifstream is(path, std::ios::binary);
  ASSERT_TRUE(is.good()) << "missing fixture " << path
                         << " (regenerate with CMP_UPDATE_GOLDEN=1)";
  std::ostringstream buffer;
  buffer << is.rdbuf();
  EXPECT_EQ(buffer.str(), contents)
      << name << ": retrained output differs from committed fixture "
      << path << " — an algorithm change leaked into model outputs";
}

void CheckGolden(const std::string& name, const DecisionTree& tree) {
  CheckFixture(name, GoldenPath(name), SerializeTree(tree));
}

// 64-bit FNV-1a.
uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

// CMP variants with the in-memory switch lowered so pending splits,
// buffer flushes and multi-level growth all execute before the exact
// finisher takes over.
CmpOptions ScanHeavy(CmpOptions o) {
  o.base.in_memory_threshold = 512;
  return o;
}

TEST(Golden, CmpS) {
  CmpBuilder builder(ScanHeavy(CmpSOptions()));
  CheckGolden("cmp_s", builder.Build(GoldenData()).tree);
}

TEST(Golden, CmpB) {
  CmpBuilder builder(ScanHeavy(CmpBOptions()));
  CheckGolden("cmp_b", builder.Build(GoldenData()).tree);
}

TEST(Golden, CmpFull) {
  CmpBuilder builder(ScanHeavy(CmpFullOptions()));
  CheckGolden("cmp_full", builder.Build(GoldenData()).tree);
}

TEST(Golden, CmpFullDefaultThreshold) {
  // The default configuration (large in-memory switch) exercises the
  // exact-finish handoff at the root partition level.
  CmpBuilder builder(CmpFullOptions());
  CheckGolden("cmp_full_default", builder.Build(GoldenData()).tree);
}

TEST(Golden, CmpFullLinear) {
  // GoldenData takes no linear split; F7's linear predicate does, so
  // this fixture pins the line search and its full-resolution refine.
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF7;
  gen.num_records = 60000;
  gen.seed = 239;
  CmpBuilder builder(CmpFullOptions());
  const DecisionTree tree = builder.Build(GenerateAgrawal(gen)).tree;
  int linear = 0;
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    const TreeNode& node = tree.node(id);
    if (!node.is_leaf && node.split.kind == Split::Kind::kLinear) ++linear;
  }
  EXPECT_GE(linear, 1);
  CheckGolden("cmp_full_linear", tree);
}

TEST(Golden, CmpSNoPrune) {
  CmpOptions o = ScanHeavy(CmpSOptions());
  o.base.prune = false;
  CmpBuilder builder(o);
  CheckGolden("cmp_s_noprune", builder.Build(GoldenData()).tree);
}

TEST(Golden, Sprint) {
  SprintOptions o;
  SprintBuilder builder(o);
  CheckGolden("sprint", builder.Build(GoldenData()).tree);
}

TEST(Golden, Sliq) {
  SliqOptions o;
  o.base.in_memory_threshold = 512;
  SliqBuilder builder(o);
  CheckGolden("sliq", builder.Build(GoldenData()).tree);
}

TEST(Golden, Clouds) {
  CloudsOptions o;
  o.base.in_memory_threshold = 512;
  CloudsBuilder builder(o);
  CheckGolden("clouds", builder.Build(GoldenData()).tree);
}

TEST(Golden, RainForest) {
  RainForestOptions o;
  RainForestBuilder builder(o);
  CheckGolden("rainforest", builder.Build(GoldenData()).tree);
}

TEST(Golden, Exact) {
  ExactBuilder builder;
  CheckGolden("exact", builder.Build(GoldenData()).tree);
}

// A hash of the serialized tree and every BuildStats counter except the
// wall-clock fields, as one fixture line's tail.
std::string CounterFields(const BuildResult& r) {
  const BuildStats& s = r.stats;
  std::ostringstream out;
  out << " tree=" << std::hex << Fnv1a(SerializeTree(r.tree)) << std::dec
      << " scans=" << s.dataset_scans << " records_read=" << s.records_read
      << " bytes_read=" << s.bytes_read
      << " bytes_written=" << s.bytes_written
      << " buffered=" << s.buffered_records
      << " sort_cmps=" << s.sort_comparisons
      << " peak_mem=" << s.peak_memory_bytes << " nodes=" << s.tree_nodes
      << " depth=" << s.tree_depth << " predictions=" << s.predictions_total
      << "/" << s.predictions_correct
      << " root_alive=" << s.root_alive_intervals;
  return out.str();
}

// The exact-finishing baselines' trees and cost counters across every
// Agrawal function, in-memory switch and prune setting. The paper-figure
// benches read these counters (scans, bytes read and written, sorts,
// peak memory), so a refactor of the baselines must leave each one, and
// each tree, unchanged. A line holds a hash of the serialized tree and
// every BuildStats counter except the wall-clock fields.
TEST(Golden, BaselineCounters) {
  std::ostringstream out;
  for (int f = 1; f <= 11; ++f) {
    AgrawalOptions gen;
    gen.function = static_cast<AgrawalFunction>(f);
    gen.num_records = 3000;
    gen.seed = 71;
    const Dataset train = GenerateAgrawal(gen);
    for (const char* algo : {"sliq", "sprint", "exact", "clouds",
                             "rainforest"}) {
      for (const int64_t threshold :
           {int64_t{0}, int64_t{512}, BuilderOptions().in_memory_threshold}) {
        for (const bool prune : {true, false}) {
          BuilderConfig config;
          config.base.in_memory_threshold = threshold;
          config.base.prune = prune;
          const std::unique_ptr<TreeBuilder> builder =
              MakeTreeBuilder(algo, config);
          ASSERT_NE(builder, nullptr) << algo;
          out << algo << " F" << f << " threshold=" << threshold
              << " prune=" << prune << CounterFields(builder->Build(train))
              << "\n";
        }
      }
    }
  }
  CheckFixture("BaselineCounters",
               std::string(CMP_GOLDEN_DIR) + "/baseline_counters.txt",
               out.str());
}

// Every PassObservation field except the wall-clock ones, one pass per
// line.
class PassFields : public TrainObserver {
 public:
  void OnPass(const PassObservation& p) override {
    text_ << p.pass << ' ' << p.lines_evaluated << ' ' << p.records_scanned
          << ' ' << p.bytes_read << ' ' << p.frontier_fresh << ' '
          << p.frontier_pending << ' ' << p.frontier_collect << ' '
          << p.alive_intervals << ' ' << p.buffered_records << ' '
          << p.buffer_bytes << ' ' << p.tree_nodes << ' ' << p.records_routed
          << ' ' << p.code_cache_bytes << ' ' << p.sibling_subtractions << ' '
          << p.sketch_bytes << ' ' << p.refit_leaves_regrown << '\n';
  }
  std::string text() const { return text_.str(); }

 private:
  std::ostringstream text_;
};

// RainForest's AVC levels, which BaselineCounters never reaches: with
// the default buffer its in-memory switch (buffer / attributes) collects
// every 3,000-row table at the root. These buffers move the switch to 1,
// 1,000 and 750 records of the nine attributes, so the levels, their
// batches and the collected partitions all run. Each line adds a hash of
// the per-pass fields, and the tree hash pins the breadth-first node
// order the levels give.
TEST(Golden, RainForestLevels) {
  std::ostringstream out;
  for (int f = 1; f <= 11; ++f) {
    AgrawalOptions gen;
    gen.function = static_cast<AgrawalFunction>(f);
    gen.num_records = 3000;
    gen.seed = 71;
    const Dataset train = GenerateAgrawal(gen);
    const int64_t rows = train.num_records();
    for (const int64_t buffer : {int64_t{9}, 3 * rows, 9 * rows / 4}) {
      for (const int64_t threshold : {int64_t{0}, int64_t{512}}) {
        for (const bool prune : {true, false}) {
          PassFields passes;
          RainForestOptions o;
          o.avc_buffer_entries = buffer;
          o.base.in_memory_threshold = threshold;
          o.base.prune = prune;
          o.base.observer = &passes;
          const BuildResult r = RainForestBuilder(o).Build(train);
          out << "rainforest F" << f << " buffer=" << buffer
              << " threshold=" << threshold << " prune=" << prune
              << CounterFields(r) << " passes=" << std::hex
              << Fnv1a(passes.text()) << std::dec << "\n";
        }
      }
    }
  }
  CheckFixture("RainForestLevels",
               std::string(CMP_GOLDEN_DIR) + "/rainforest_levels.txt",
               out.str());
}

}  // namespace
}  // namespace cmp
