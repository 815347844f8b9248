// The scan pass routes only live records: each tile keeps the records
// that still reach a sink, grouped into runs by the node they reached
// on the previous pass, ascending within each node. These tests drive
// real builds pass by pass and check, against a serial record-major
// descent, that
//  - a pass routes exactly the records the previous pass sent to a sink
//    (every record on the first pass) and reports that count as
//    records_routed, the same for every shard count, store and block
//    size;
//  - after each pass the live lists hold exactly those records, every
//    run's records sit at the node the serial descent reached (the
//    runs are the build's only record->node state), and each node's
//    records appear in ascending record order.
// The checked passes must include a run that crosses a route-shard
// boundary and a tile holding several runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "cmp/cmp.h"
#include "cmp/record_store.h"
#include "cmp/scan_pass.h"
#include "cmp/split_plan.h"
#include "cmp/variant_policy.h"
#include "common/class_counts.h"
#include "common/thread_pool.h"
#include "datagen/agrawal.h"
#include "exact/exact.h"
#include "hist/grid_builder.h"
#include "io/block_source.h"
#include "tree/observer.h"

namespace cmp {
namespace {

// What the checked passes exercised.
struct LiveCoverage {
  int64_t passes = 0;
  int64_t shard_crossing_runs = 0;  // runs the next pass splits across shards
  int64_t multi_run_tiles = 0;      // tiles holding more than one run
  int64_t left_the_list = 0;        // records that reached a finished leaf
};

// Serial record-major descent of every record from `nid` through
// `tree`, advancing `nid` (the test's own record->node map): marks the
// records whose reached node has work this pass — those the pass sends
// to a sink — and returns how many there are.
int64_t SentToASink(const Dataset& ds, const DecisionTree& tree,
                    const FrontierQueues& work, std::vector<NodeId>* nid,
                    std::vector<char>* sent) {
  std::vector<char> has_work(tree.num_nodes(), 0);
  for (const FreshWork& w : work.fresh) has_work[w.node] = 1;
  for (const PendingWork& w : work.pending) has_work[w.node] = 1;
  for (const CollectWork& w : work.collect) has_work[w.node] = 1;
  int64_t count = 0;
  sent->assign(nid->size(), 0);
  for (RecordId r = 0; r < ds.num_records(); ++r) {
    NodeId id = (*nid)[r];
    while (true) {
      const TreeNode& node = tree.node(id);
      if (node.is_leaf || node.left == kInvalidNode) break;
      id = node.split.RoutesLeft(ds, r) ? node.left : node.right;
    }
    (*nid)[r] = id;
    if (has_work[id]) {
      (*sent)[r] = 1;
      ++count;
    }
  }
  return count;
}

// Checks the live lists `scan` keeps for its next pass: exactly the
// records flagged in `sent`, each run's records at the node the
// descent reached (`nid`), each node's records ascending, adjacent runs
// at different nodes. Records at finished leaves are not listed, so
// their nodes drop out of the comparison: the build keeps none. Counts
// the runs a pass at `shards` route shards splits across shards.
template <class Store>
void ExpectLiveLists(const ScanPass<Store>& scan, const std::vector<char>& sent,
                     const std::vector<NodeId>& nid, int shards,
                     const std::string& where, LiveCoverage* cov) {
  const std::vector<LiveOffset>& offsets = scan.live_offsets();
  const std::vector<LiveRun>& runs = scan.live_runs();
  std::vector<char> listed(sent.size(), 0);
  std::vector<RecordId> last_of_node(
      *std::max_element(nid.begin(), nid.end()) + 1, -1);
  for (const LiveTile& tile : scan.live_tiles()) {
    ASSERT_LE(tile.first_run + tile.num_runs, runs.size()) << where;
    ASSERT_EQ(tile.live == 0, tile.num_runs == 0) << where;
    if (tile.num_runs > 1) ++cov->multi_run_tiles;
    const int64_t here = std::min<int64_t>(shards, tile.live);
    const int64_t chunk = here > 0 ? (tile.live + here - 1) / here : 0;
    for (uint32_t i = 0; i < tile.num_runs; ++i) {
      const LiveRun& run = runs[tile.first_run + i];
      const uint32_t end = i + 1 < tile.num_runs
                               ? runs[tile.first_run + i + 1].begin
                               : tile.live;
      ASSERT_LT(run.begin, end) << where << " empty run";
      if (i == 0) {
        ASSERT_EQ(run.begin, 0u) << where;
      } else {
        ASSERT_NE(run.node, runs[tile.first_run + i - 1].node)
            << where << " adjacent runs at one node";
      }
      if (run.begin / chunk != (end - 1) / chunk) ++cov->shard_crossing_runs;
      for (uint32_t p = run.begin; p < end; ++p) {
        const RecordId r = tile.begin + offsets[tile.begin + p];
        ASSERT_EQ(nid[r], run.node) << where << " record " << r;
        ASSERT_FALSE(listed[r]) << where << " record " << r << " listed twice";
        listed[r] = 1;
        ASSERT_LT(last_of_node[run.node], r) << where << " node " << run.node;
        last_of_node[run.node] = r;
      }
    }
  }
  for (size_t r = 0; r < sent.size(); ++r) {
    ASSERT_EQ(listed[r], sent[r]) << where << " record " << r;
    if (!sent[r]) ++cov->left_the_list;
  }
}

// Drives a CMP build pass by pass (the CmpBuild loop, serially),
// checking each pass's records_routed and the live lists it leaves.
// Returns records_routed per pass.
template <class Store>
std::vector<int64_t> BuildCheckingLiveLists(const Dataset& ds, Store& store,
                                            BlockSource& source,
                                            const CmpOptions& o, int shards,
                                            ThreadPool* pool,
                                            const std::string& where,
                                            LiveCoverage* cov) {
  const Schema& schema = ds.schema();
  const int64_t n = ds.num_records();
  const std::vector<AttrId> numeric_attrs = schema.NumericAttrs();
  std::vector<IntervalGrid> grids(schema.num_attrs());
  std::vector<std::vector<char>> interior(schema.num_attrs());
  store.StartCodes();
  for (const AttrId a : numeric_attrs) {
    BorrowedColumn column(ds.numeric_column(a).data(), n);
    AttrGridResult setup;
    EXPECT_TRUE(DiscretizeColumn(column, o.intervals, kSetupChunkRecords,
                                 store.numeric_codes(a), &setup));
    grids[a] = std::move(setup.grid);
    interior[a] = std::move(setup.interior);
  }
  store.FinishCodes(grids, std::min(n, kScanTileRecords), pool);

  BuildResult result;
  result.tree = DecisionTree(schema);
  ScanTracker tracker(&result.stats);
  TreeNode root;
  root.depth = 0;
  root.class_counts = ds.ClassCounts();
  root.leaf_class = Majority(root.class_counts);
  const NodeId root_id = result.tree.AddNode(std::move(root));
  std::vector<NodeId> nid(n, root_id);

  const VariantPolicy policy = VariantPolicy::For(o.variant);
  const SplitPlanner planner(schema, o, policy, grids, interior,
                             numeric_attrs, pool);
  FrontierQueues work;
  FrontierQueues next;
  SplitExecutor<Store> executor(planner, store, o, &result, &tracker, pool,
                                &next);
  ScanPass<Store> scan(store, source, grids, result.tree, pool, &tracker,
                       shards);
  if (planner.bivariate()) {
    const AttrId x = numeric_attrs.front();
    work.fresh.push_back(
        {root_id, HistBundle::MakeBivariate(schema, grids, x, 0,
                                            grids[x].num_intervals())});
  } else {
    work.fresh.push_back({root_id, HistBundle::MakeUnivariate(schema, grids)});
  }

  std::vector<int64_t> routed;
  int64_t want_routed = n;
  std::vector<char> sent;
  for (int pass = 0; !work.Empty(); ++pass) {
    const std::string at = where + " pass " + std::to_string(pass);
    const int64_t sends = SentToASink(ds, result.tree, work, &nid, &sent);
    PassObservation po;
    scan.Run(work, &po);
    EXPECT_EQ(po.records_routed, want_routed) << at;
    ExpectLiveLists(scan, sent, nid, shards, at, cov);
    if (::testing::Test::HasFailure()) return routed;
    routed.push_back(po.records_routed);
    want_routed = sends;
    ++cov->passes;

    // The serial in-place walk CmpBuilder's round of tasks must
    // reproduce: each collect finished at its node, then the fresh nodes
    // and the pendings in work-list order.
    next.Clear();
    for (const CollectWork& w : work.collect) {
      tracker.ChargeBuffered(static_cast<int64_t>(w.rids.size()));
      BuildExactSubtree(ds, w.rids, o.base, &result.tree, w.node, &tracker,
                        pool);
    }
    for (FreshWork& w : work.fresh) {
      executor.GrowNode(w.node, std::move(w.bundle));
    }
    for (PendingWork& w : work.pending) {
      executor.ResolvePending(w.node, w.pending.get(),
                              result.tree.node(w.node).depth);
    }
    if constexpr (Store::kStreaming) store.ClearStash();
    work = std::move(next);
    next.Clear();
  }
  return routed;
}

class ScanPassLiveTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    AgrawalOptions gen;
    gen.function = AgrawalFunction::kF4;
    gen.perturbation = 0.05;
    // More records than one tile, so the second tile starts mid-table.
    gen.num_records = kScanTileRecords + 4464;
    gen.seed = 5;
    data_ = new Dataset(GenerateAgrawal(gen));
  }
  static void TearDownTestSuite() {
    delete data_;
    data_ = nullptr;
  }

  // Checks every pass of `o` at route shards 1-4, over the in-memory
  // store and the streamed one at blocks 7000 (a partial block per tile
  // boundary) and 69999 (larger than a tile, one record short of the
  // table); records_routed must be the same in all of them and in
  // CmpBuilder's own build.
  LiveCoverage CheckVariant(CmpOptions o) {
    ThreadPool pool(4);
    LiveCoverage cov;
    TrainStatsCollector stats;
    o.base.observer = &stats;
    CmpBuilder(o).Build(*data_);
    o.base.observer = nullptr;
    std::vector<int64_t> reference;
    for (const PassObservation& p : stats.passes()) {
      reference.push_back(p.records_routed);
    }
    EXPECT_EQ(reference.front(), data_->num_records());
    for (const int shards : {1, 2, 3, 4}) {
      for (const int64_t block : {int64_t{0}, int64_t{7000}, int64_t{69999}}) {
        const std::string where =
            (block == 0 ? std::string("memory")
                        : "stream block=" + std::to_string(block)) +
            " shards=" + std::to_string(shards);
        std::vector<int64_t> routed;
        if (block == 0) {
          DatasetBlockSource source(*data_);
          InMemoryStore store(*data_);
          routed = BuildCheckingLiveLists(*data_, store, source, o, shards,
                                          &pool, where, &cov);
        } else {
          DatasetBlockSource source(*data_, block);
          StreamStore store(data_->schema(), data_->num_records());
          routed = BuildCheckingLiveLists(*data_, store, source, o, shards,
                                          &pool, where, &cov);
        }
        EXPECT_EQ(routed, reference) << where;
        if (HasFailure()) return cov;
      }
    }
    return cov;
  }

  static Dataset* data_;
};

Dataset* ScanPassLiveTest::data_ = nullptr;

void ExpectCoverage(const LiveCoverage& cov) {
  EXPECT_GT(cov.passes, 2);
  EXPECT_GT(cov.shard_crossing_runs, 0);
  EXPECT_GT(cov.multi_run_tiles, 0);
  EXPECT_GT(cov.left_the_list, 0);
}

TEST_F(ScanPassLiveTest, CmpSRoutesWhatThePreviousPassSentToASink) {
  ExpectCoverage(CheckVariant(CmpSOptions()));
}

TEST_F(ScanPassLiveTest, CmpBRoutesWhatThePreviousPassSentToASink) {
  ExpectCoverage(CheckVariant(CmpBOptions()));
}

TEST_F(ScanPassLiveTest, CmpRoutesWhatThePreviousPassSentToASink) {
  ExpectCoverage(CheckVariant(CmpFullOptions()));
}

}  // namespace
}  // namespace cmp
