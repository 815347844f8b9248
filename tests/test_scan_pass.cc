// The scan pass (route each tile's records to their sinks, then fill
// every histogram from one writer) must leave exactly the state of the
// serial record-major scan: bundle cells, segment and exact-side counts,
// pending buffers in order, collect lists, and live runs that put every
// live record at the node the serial scan's descent reached.
// `oracle::RecordMajorScan` is that serial scan, kept here as the
// reference; it finds every interval with IntervalOf on the raw values,
// so it checks the stores' bin codes too. Every pass of real builds is
// checked against it — CMP, CMP-B (nested pendings, kExact sub-splits)
// and CMP-S; 1-4 route shards; more records than one tile; in-memory and
// streamed stores with blocks that do not divide the tile.
#include "cmp/scan_pass.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cmp/cmp.h"
#include "cmp/record_store.h"
#include "cmp/split_plan.h"
#include "cmp/variant_policy.h"
#include "common/class_counts.h"
#include "common/thread_pool.h"
#include "datagen/agrawal.h"
#include "exact/exact.h"
#include "hist/grid_builder.h"
#include "io/block_source.h"
#include "pruning/mdl.h"
#include "tree/serialize.h"

namespace cmp {
namespace oracle {

// Routes record `r` through a pending split, record-major: every count
// and histogram is bumped as the record descends. Returns true if the
// record was set aside in a (possibly nested) pending buffer.
template <class Store>
bool RoutePending(Pending* p, const Store& store,
                  const std::vector<IntervalGrid>& grids, RecordId r) {
  const double v = store.numeric(p->attr, r);
  const int iv = grids[p->attr].IntervalOf(v);
  int k = 0;
  for (int a : p->alive) {
    if (iv == a) {
      p->buffer.push_back({r, v, store.label(r)});
      return true;
    }
    if (iv > a) ++k;
  }
  Segment& seg = p->segments[k];
  seg.counts[store.label(r)]++;
  switch (seg.plan) {
    case PlanKind::kGrow:
      if (seg.bundle_fresh) seg.bundle.Add(store, grids, r);
      break;
    case PlanKind::kPending:
      return oracle::RoutePending(seg.sub.get(), store, grids, r);
    case PlanKind::kExact:
      if (seg.exact_split.RoutesLeft(store, r)) {
        seg.exact_left_counts[store.label(r)]++;
        seg.exact_left.Add(store, grids, r);
      } else {
        seg.exact_right_counts[store.label(r)]++;
        seg.exact_right.Add(store, grids, r);
      }
      break;
  }
  return false;
}

// One serial pass over every record of `store`, in ascending order, in
// the record-major form the tiled scan replaced.
template <class Store>
void RecordMajorScan(const Store& store, const std::vector<IntervalGrid>& grids,
                     const DecisionTree& tree, std::vector<NodeId>* nid,
                     FrontierQueues* work) {
  const int num_nodes = tree.num_nodes();
  std::vector<int> fresh(num_nodes, -1);
  std::vector<int> pending(num_nodes, -1);
  std::vector<int> collect(num_nodes, -1);
  for (size_t i = 0; i < work->fresh.size(); ++i) {
    fresh[work->fresh[i].node] = static_cast<int>(i);
  }
  for (size_t i = 0; i < work->pending.size(); ++i) {
    pending[work->pending[i].node] = static_cast<int>(i);
  }
  for (size_t i = 0; i < work->collect.size(); ++i) {
    collect[work->collect[i].node] = static_cast<int>(i);
  }
  for (RecordId r = 0; r < store.num_records(); ++r) {
    NodeId id = (*nid)[r];
    // Descend through every split resolved since the last scan.
    while (true) {
      const TreeNode& node = tree.node(id);
      if (node.is_leaf || node.left == kInvalidNode) break;
      id = node.split.RoutesLeft(store, r) ? node.left : node.right;
    }
    (*nid)[r] = id;
    if (id < num_nodes) {
      const int fs = fresh[id];
      if (fs >= 0) {
        work->fresh[fs].bundle.Add(store, grids, r);
        continue;
      }
      const int ps = pending[id];
      if (ps >= 0) {
        oracle::RoutePending(work->pending[ps].pending.get(), store, grids, r);
        continue;
      }
      const int cs = collect[id];
      if (cs >= 0) work->collect[cs].rids.push_back(r);
    }
  }
}

}  // namespace oracle

namespace {

std::unique_ptr<Pending> ClonePending(const Pending& p) {
  auto out = std::make_unique<Pending>();
  out->attr = p.attr;
  out->alive = p.alive;
  out->buffer = p.buffer;
  out->segments.resize(p.segments.size());
  for (size_t k = 0; k < p.segments.size(); ++k) {
    const Segment& src = p.segments[k];
    Segment& dst = out->segments[k];
    dst.counts = src.counts;
    dst.range_lo = src.range_lo;
    dst.range_hi = src.range_hi;
    dst.plan = src.plan;
    dst.bundle = src.bundle;
    dst.bundle_fresh = src.bundle_fresh;
    if (src.sub != nullptr) dst.sub = ClonePending(*src.sub);
    dst.exact_split = src.exact_split;
    dst.exact_left = src.exact_left;
    dst.exact_right = src.exact_right;
    dst.exact_left_counts = src.exact_left_counts;
    dst.exact_right_counts = src.exact_right_counts;
  }
  return out;
}

FrontierQueues Clone(const FrontierQueues& work) {
  FrontierQueues out;
  for (const FreshWork& w : work.fresh) out.fresh.push_back({w.node, w.bundle});
  for (const PendingWork& w : work.pending) {
    out.pending.push_back({w.node, ClonePending(*w.pending)});
  }
  for (const CollectWork& w : work.collect) {
    out.collect.push_back({w.node, w.rids});
  }
  return out;
}

void ExpectSameBundle(const HistBundle& got, const HistBundle& want,
                      int num_attrs, const std::string& where) {
  ASSERT_EQ(got.bivariate(), want.bivariate()) << where;
  ASSERT_EQ(got.MemoryBytes(), want.MemoryBytes()) << where;
  for (AttrId a = 0; a < num_attrs; ++a) {
    if (!got.HasHistogram(a)) continue;
    if (got.bivariate()) {
      const HistogramMatrix& g = got.matrix(a);
      const HistogramMatrix& w = want.matrix(a);
      const size_t bytes = static_cast<size_t>(g.x_intervals()) *
                           g.y_intervals() * g.num_classes() * sizeof(int64_t);
      EXPECT_EQ(std::memcmp(g.data(), w.data(), bytes), 0)
          << where << " matrix of attr " << a;
    } else {
      const Histogram1D g = got.HistFor(a);
      const Histogram1D w = want.HistFor(a);
      const size_t bytes = static_cast<size_t>(g.num_intervals()) *
                           g.num_classes() * sizeof(int64_t);
      EXPECT_EQ(std::memcmp(g.data(), w.data(), bytes), 0)
          << where << " histogram of attr " << a;
    }
  }
}

// What the checked passes exercised, so a dataset change that stops
// producing nested pendings or exact sub-splits cannot pass silently.
struct Coverage {
  int64_t passes = 0;
  int64_t nested_pendings = 0;
  int64_t exact_segments = 0;
  int64_t derived_segments = 0;
  int64_t buffered = 0;
  int64_t collected = 0;
  // Rounds whose largest-first hand-out would renumber nodes if the
  // tasks were grafted in that order.
  int64_t reordered_rounds = 0;
};

void ExpectSamePending(const Pending& got, const Pending& want, int num_attrs,
                       const std::string& where, Coverage* cov) {
  ASSERT_EQ(got.attr, want.attr) << where;
  ASSERT_EQ(got.alive, want.alive) << where;
  ASSERT_EQ(got.buffer.size(), want.buffer.size()) << where;
  for (size_t i = 0; i < got.buffer.size(); ++i) {
    ASSERT_EQ(got.buffer[i].rid, want.buffer[i].rid) << where << " buf " << i;
    ASSERT_EQ(std::memcmp(&got.buffer[i].value, &want.buffer[i].value,
                          sizeof(double)),
              0)
        << where << " buf " << i;
    ASSERT_EQ(got.buffer[i].label, want.buffer[i].label)
        << where << " buf " << i;
  }
  cov->buffered += static_cast<int64_t>(got.buffer.size());
  ASSERT_EQ(got.segments.size(), want.segments.size()) << where;
  for (size_t k = 0; k < got.segments.size(); ++k) {
    const Segment& g = got.segments[k];
    const Segment& w = want.segments[k];
    const std::string at = where + " seg " + std::to_string(k);
    ASSERT_EQ(g.plan, w.plan) << at;
    EXPECT_EQ(g.counts, w.counts) << at;
    if (!g.bundle_fresh) ++cov->derived_segments;
    switch (g.plan) {
      case PlanKind::kGrow:
        ExpectSameBundle(g.bundle, w.bundle, num_attrs, at);
        break;
      case PlanKind::kPending:
        ++cov->nested_pendings;
        ExpectSamePending(*g.sub, *w.sub, num_attrs, at + " sub", cov);
        break;
      case PlanKind::kExact:
        ++cov->exact_segments;
        EXPECT_EQ(g.exact_left_counts, w.exact_left_counts) << at;
        EXPECT_EQ(g.exact_right_counts, w.exact_right_counts) << at;
        ExpectSameBundle(g.exact_left, w.exact_left, num_attrs, at + " left");
        ExpectSameBundle(g.exact_right, w.exact_right, num_attrs,
                         at + " right");
        break;
    }
  }
}

void ExpectSameState(const FrontierQueues& got, const FrontierQueues& want,
                     int num_attrs, const std::string& where, Coverage* cov) {
  ASSERT_EQ(got.fresh.size(), want.fresh.size()) << where;
  for (size_t i = 0; i < got.fresh.size(); ++i) {
    ExpectSameBundle(got.fresh[i].bundle, want.fresh[i].bundle, num_attrs,
                     where + " fresh " + std::to_string(i));
  }
  ASSERT_EQ(got.pending.size(), want.pending.size()) << where;
  for (size_t i = 0; i < got.pending.size(); ++i) {
    ExpectSamePending(*got.pending[i].pending, *want.pending[i].pending,
                      num_attrs, where + " pending " + std::to_string(i), cov);
  }
  ASSERT_EQ(got.collect.size(), want.collect.size()) << where;
  for (size_t i = 0; i < got.collect.size(); ++i) {
    EXPECT_EQ(got.collect[i].rids, want.collect[i].rids)
        << where << " collect " << i;
    cov->collected += static_cast<int64_t>(got.collect[i].rids.size());
  }
}

// Every record in `scan`'s live lists sits in a run at the node the
// oracle's descent reached (`nid`). Records at finished leaves are not
// listed, since the build keeps no node for them, so they drop out of
// the comparison.
template <class Store>
void ExpectLiveNodes(const ScanPass<Store>& scan,
                     const std::vector<NodeId>& nid, const std::string& where) {
  const std::vector<LiveOffset>& offsets = scan.live_offsets();
  const std::vector<LiveRun>& runs = scan.live_runs();
  for (const LiveTile& tile : scan.live_tiles()) {
    for (uint32_t i = 0; i < tile.num_runs; ++i) {
      const LiveRun& run = runs[tile.first_run + i];
      const uint32_t end = i + 1 < tile.num_runs
                               ? runs[tile.first_run + i + 1].begin
                               : tile.live;
      for (uint32_t p = run.begin; p < end; ++p) {
        const RecordId r = tile.begin + offsets[tile.begin + p];
        ASSERT_EQ(nid[r], run.node) << where << " record " << r;
      }
    }
  }
}

// Drives a CMP build pass by pass (the CmpBuild loop, serially), checking
// the state after every ScanPass::Run against the oracle's scan of a
// copy of the same work lists. The oracle keeps its own record->node
// map, `nid`. Sets up `store`'s codes the way the build
// driver does. Returns the finished, pruned tree.
template <class Store>
std::string BuildCheckingEveryPass(const Dataset& ds, Store& store,
                                   BlockSource& source, const CmpOptions& o,
                                   int shards, ThreadPool* pool,
                                   const std::string& where, Coverage* cov) {
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

  const InMemoryStore oracle_store(ds);
  for (int pass = 0; !work.Empty(); ++pass) {
    FrontierQueues want = Clone(work);
    oracle::RecordMajorScan(oracle_store, grids, result.tree, &nid, &want);
    PassObservation po;
    scan.Run(work, &po);
    const std::string at = where + " pass " + std::to_string(pass);
    ExpectLiveNodes(scan, nid, at);
    ExpectSameState(work, want, schema.num_attrs(), at, cov);
    EXPECT_GE(po.route_seconds, 0.0);
    EXPECT_GE(po.kernel_seconds, 0.0);
    if (::testing::Test::HasFailure()) return "";
    ++cov->passes;

    // The serial in-place walk CmpBuilder's round of tasks must
    // reproduce: each collect finished at its node, then the fresh nodes
    // and the pendings in work-list order. `records` and `grew` note each
    // task's size and whether it added tree nodes.
    std::vector<int64_t> records;
    std::vector<bool> grew;
    auto walk = [&](int64_t size, auto&& task) {
      const int64_t before = result.tree.num_nodes();
      records.push_back(size);
      task();
      grew.push_back(result.tree.num_nodes() > before);
    };
    next.Clear();
    for (const CollectWork& w : work.collect) {
      walk(static_cast<int64_t>(w.rids.size()), [&] {
        tracker.ChargeBuffered(static_cast<int64_t>(w.rids.size()));
        BuildExactSubtree(ds, w.rids, o.base, &result.tree, w.node, &tracker,
                          pool);
      });
    }
    for (FreshWork& w : work.fresh) {
      walk(CountSum(result.tree.node(w.node).class_counts),
           [&] { executor.GrowNode(w.node, std::move(w.bundle)); });
    }
    for (PendingWork& w : work.pending) {
      walk(CountSum(result.tree.node(w.node).class_counts), [&] {
        executor.ResolvePending(w.node, w.pending.get(),
                                result.tree.node(w.node).depth);
      });
    }
    // CmpBuilder hands the tasks out largest first and grafts them in
    // work-list order; node ids tell the two apart when a task that grew
    // the tree holds more records than an earlier one that did too.
    int64_t biggest = -1;  // the largest earlier task that grew the tree
    bool reordered = false;
    for (size_t j = 0; j < records.size(); ++j) {
      if (!grew[j]) continue;
      reordered |= biggest >= 0 && records[j] > biggest;
      biggest = std::max(biggest, records[j]);
    }
    cov->reordered_rounds += reordered;
    if constexpr (Store::kStreaming) store.ClearStash();
    work = std::move(next);
    next.Clear();
  }
  if (o.base.prune) PruneTreeMdl(&result.tree);
  return SerializeTree(result.tree);
}

class ScanPassOracleTest : public ::testing::Test {
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

  // Checks every pass of `o` over the in-memory and streamed stores, for
  // each route shard count, and that the driven build's serial walk
  // gives CmpBuilder's tree, whose rounds run as tasks grafted back in
  // work-list order, at 1 and 4 threads.
  Coverage CheckVariant(CmpOptions o) {
    ThreadPool pool(4);
    Coverage cov;
    const std::string reference = SerializeTree(CmpBuilder(o).Build(*data_).tree);
    CmpOptions threaded = o;
    threaded.base.num_threads = 4;
    EXPECT_EQ(SerializeTree(CmpBuilder(threaded).Build(*data_).tree),
              reference);
    for (const int shards : {1, 2, 3, 4}) {
      DatasetBlockSource source(*data_);
      InMemoryStore store(*data_);
      const std::string where = "memory shards=" + std::to_string(shards);
      EXPECT_EQ(BuildCheckingEveryPass(*data_, store, source, o, shards,
                                       &pool, where, &cov),
                reference)
          << where;
      if (HasFailure()) return cov;
    }
    // 7000 leaves a partial block per tile boundary; 69999 is a block
    // larger than the tile that ends one record short of the table.
    for (const auto& [block, shards] :
         {std::pair<int64_t, int>{7000, 3}, std::pair<int64_t, int>{7000, 1},
          std::pair<int64_t, int>{69999, 4}}) {
      DatasetBlockSource source(*data_, block);
      StreamStore store(data_->schema(), data_->num_records());
      const std::string where = "stream block=" + std::to_string(block) +
                                " shards=" + std::to_string(shards);
      EXPECT_EQ(BuildCheckingEveryPass(*data_, store, source, o, shards,
                                       &pool, where, &cov),
                reference)
          << where;
      if (HasFailure()) return cov;
    }
    return cov;
  }

  static Dataset* data_;
};

Dataset* ScanPassOracleTest::data_ = nullptr;

TEST_F(ScanPassOracleTest, CmpSMatchesRecordMajorScanEveryPass) {
  const Coverage cov = CheckVariant(CmpSOptions());
  EXPECT_GT(cov.passes, 2);
  EXPECT_GT(cov.buffered, 0);
  EXPECT_GT(cov.collected, 0);
}

TEST_F(ScanPassOracleTest, CmpBMatchesRecordMajorScanEveryPass) {
  const Coverage cov = CheckVariant(CmpBOptions());
  EXPECT_GT(cov.passes, 2);
  EXPECT_GT(cov.nested_pendings, 0);
  EXPECT_GT(cov.exact_segments, 0);
  EXPECT_GT(cov.derived_segments, 0);
  EXPECT_GT(cov.buffered, 0);
  EXPECT_GT(cov.collected, 0);
}

TEST_F(ScanPassOracleTest, CmpMatchesRecordMajorScanEveryPass) {
  const Coverage cov = CheckVariant(CmpFullOptions());
  EXPECT_GT(cov.passes, 2);
  EXPECT_GT(cov.exact_segments, 0);
  EXPECT_GT(cov.buffered, 0);
  EXPECT_GT(cov.collected, 0);
}

// Final MDL pruning compacts the tree in preorder, which hides the order
// in which nodes were numbered. Unpruned, the serial walk's node ids must
// be CmpBuilder's in rounds whose largest-first hand-out differs from
// their graft order.
TEST_F(ScanPassOracleTest, UnprunedCmpBNumbersNodesAsTheSerialWalk) {
  CmpOptions o = CmpBOptions();
  o.base.prune = false;
  const Coverage cov = CheckVariant(o);
  EXPECT_GT(cov.passes, 2);
  EXPECT_GT(cov.collected, 0);
  EXPECT_GT(cov.reordered_rounds, 0);
}

// The sink table flattens every pending plan: one buffer sink per
// pending, one sink per grow segment, two per exact segment, with each
// sink's count chain naming the segments enclosing it.
TEST(ScanPlanTest, FlattensNestedPendingsAndExactSides) {
  Pending inner;
  inner.attr = 1;
  inner.alive = {4};
  inner.segments.resize(2);
  for (Segment& s : inner.segments) s.counts.assign(2, 0);

  auto outer = std::make_unique<Pending>();
  outer->attr = 0;
  outer->alive = {3, 7};
  outer->segments.resize(3);
  for (Segment& s : outer->segments) s.counts.assign(2, 0);
  outer->segments[0].bundle_fresh = false;  // derived: counts only
  outer->segments[1].plan = PlanKind::kPending;
  outer->segments[1].sub = std::make_unique<Pending>(std::move(inner));
  outer->segments[2].plan = PlanKind::kExact;
  outer->segments[2].exact_left_counts.assign(2, 0);
  outer->segments[2].exact_right_counts.assign(2, 0);

  FrontierQueues work;
  work.fresh.push_back({0, HistBundle()});
  work.pending.push_back({1, std::move(outer)});
  work.collect.push_back({2, {}});
  const ScanPlan plan = BuildScanPlan(4, work);

  // fresh, outer buffer, seg 0, inner buffer, inner seg 0/1, exact L/R,
  // collect.
  ASSERT_EQ(plan.sinks.size(), 9u);
  EXPECT_EQ(plan.nodes[0].sink, 0);
  EXPECT_EQ(plan.nodes[1].pending, 0);
  EXPECT_EQ(plan.nodes[2].sink, 8);
  EXPECT_EQ(plan.nodes[3].sink, -1);
  EXPECT_EQ(plan.nodes[3].pending, -1);
  ASSERT_EQ(plan.pendings.size(), 2u);

  Pending& p = *work.pending[0].pending;
  const PendingRoute& top = plan.pendings[0];
  EXPECT_EQ(plan.sinks[top.buffer_sink].buffer, &p);
  EXPECT_TRUE(plan.sinks[top.buffer_sink].chain.empty());

  const SegmentRoute& derived = plan.segments[top.first_segment];
  EXPECT_EQ(plan.sinks[derived.sink].bundle, nullptr);
  EXPECT_EQ(plan.sinks[derived.sink].chain,
            std::vector<int64_t*>{p.segments[0].counts.data()});

  const SegmentRoute& nested = plan.segments[top.first_segment + 1];
  ASSERT_EQ(nested.plan, PlanKind::kPending);
  const PendingRoute& sub = plan.pendings[nested.sub];
  Pending& q = *p.segments[1].sub;
  EXPECT_EQ(plan.sinks[sub.buffer_sink].buffer, &q);
  EXPECT_EQ(plan.sinks[sub.buffer_sink].chain,
            std::vector<int64_t*>{p.segments[1].counts.data()});
  const SegmentRoute& grow = plan.segments[sub.first_segment + 1];
  EXPECT_EQ(plan.sinks[grow.sink].bundle, &q.segments[1].bundle);
  EXPECT_EQ(plan.sinks[grow.sink].chain,
            (std::vector<int64_t*>{p.segments[1].counts.data(),
                                   q.segments[1].counts.data()}));

  const SegmentRoute& exact = plan.segments[top.first_segment + 2];
  ASSERT_EQ(exact.plan, PlanKind::kExact);
  EXPECT_EQ(exact.split, &p.segments[2].exact_split);
  EXPECT_EQ(plan.sinks[exact.left].bundle, &p.segments[2].exact_left);
  EXPECT_EQ(plan.sinks[exact.right].bundle, &p.segments[2].exact_right);
  EXPECT_EQ(plan.sinks[exact.left].chain,
            (std::vector<int64_t*>{p.segments[2].counts.data(),
                                   p.segments[2].exact_left_counts.data()}));
  EXPECT_EQ(plan.sinks[exact.right].chain,
            (std::vector<int64_t*>{p.segments[2].counts.data(),
                                   p.segments[2].exact_right_counts.data()}));
  EXPECT_EQ(plan.sinks[8].collect, &work.collect[0].rids);
}

}  // namespace
}  // namespace cmp
