#ifndef CMP_CMP_SCAN_PASS_H_
#define CMP_CMP_SCAN_PASS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cmp/frontier.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "hist/bin_codes.h"
#include "hist/grids.h"
#include "io/block_source.h"
#include "io/scan.h"
#include "tree/observer.h"
#include "tree/split.h"
#include "tree/tree.h"

namespace cmp {

/// Scan execution of the CMP build pipeline: one full pass over the
/// training records, routing every record through the (read-only) tree
/// and the pending plans into exactly one terminal sink, then filling
/// the sinks. Handles the parallel and blocked-streaming mechanics
/// behind a single Run() call; what the sinks MEAN is the business of
/// the frontier and split-plan layers.
///
/// The pass works tile by tile, each tile in two phases:
///  - route: shards of the tile descend their records in parallel and
///    write, per sink, the ascending tile-relative offsets of the
///    records it received, plus per-sink class counts;
///  - accumulate: one task per (sink, attribute) histogram reads every
///    shard's offsets of that sink straight from the code columns (or,
///    with the cache off, from the resident block). Each histogram has
///    exactly one writer, so there are no per-shard copies to merge.
/// Buffers and collect lists are appended shard by shard per tile, and
/// the class counts are added into the sinks' count arrays once at the
/// end of the pass. Integer adds commute and shard order within a tile
/// is ascending record order, so the post-pass state — and the tree —
/// is byte-identical for every thread count, shard count, block size
/// and cache setting.

/// Records routed and then accumulated together. A tile lies inside the
/// resident block, and its records are named by 32-bit offsets from the
/// tile's first record, so the routing scratch is two 4-byte words per
/// tile record however large the table is.
constexpr int64_t kScanTileRecords = 65536;

/// One terminal sink of a pass: where a routed record ends up.
struct ScanSink {
  /// Histograms the record is added to (null for sinks that only count:
  /// derived segment bundles copied from their parent, buffers, collect
  /// lists).
  HistBundle* bundle = nullptr;
  /// Per-class count arrays each of the sink's records increments: its
  /// segment's counts, an exact side's counts, and the counts of every
  /// enclosing segment of a nested pending.
  std::vector<int64_t*> chain;
  /// Pending split whose buffer receives the records (alive-interval
  /// hits).
  Pending* buffer = nullptr;
  /// Collect list receiving the record ids.
  std::vector<RecordId>* collect = nullptr;
};

/// A pending split flattened for routing.
struct PendingRoute {
  AttrId attr = kInvalidAttr;
  const std::vector<int>* alive = nullptr;
  int buffer_sink = -1;
  int first_segment = 0;  // index of segment 0 in ScanPlan::segments
};

/// Where one segment of a pending split sends its records.
struct SegmentRoute {
  PlanKind plan = PlanKind::kGrow;
  int sink = -1;                 // kGrow
  int sub = -1;                  // kPending: index into ScanPlan::pendings
  const Split* split = nullptr;  // kExact
  int left = -1;                 // kExact sinks
  int right = -1;
};

/// A frontier node's first routing step: a terminal sink (fresh bundle
/// or collect list), a pending split, or neither (-1, -1).
struct NodeRoute {
  int sink = -1;
  int pending = -1;
};

/// The sinks and routing tables of one pass. Pointers borrow from the
/// work lists the plan was built from, which must not be resized while
/// the plan is in use.
struct ScanPlan {
  std::vector<ScanSink> sinks;
  std::vector<NodeRoute> nodes;  // indexed by NodeId
  std::vector<PendingRoute> pendings;
  std::vector<SegmentRoute> segments;
};

/// Flattens `work` into the sink table of a pass over a tree with
/// `num_nodes` nodes.
ScanPlan BuildScanPlan(int num_nodes, FrontierQueues& work);

template <class Store>
class ScanPass {
 public:
  /// All references are borrowed and must outlive the pass. `tree` is
  /// read-only during Run (records descend through splits resolved since
  /// the last scan); `nid` is the per-record frontier-node assignment
  /// and is advanced in place. `codes` (nullable) is the build's
  /// bin-code cache: when present and enabled, histograms fill through
  /// the hist/hist_kernels.h kernels and routing reads cached interval
  /// indices — byte-identical counts, fraction of the work.
  /// `scan_shards` sets the route shard count (0 = auto: four per
  /// worker, the workers being the pool parallelism capped at the
  /// hardware thread count; one shard on an inline pool).
  ScanPass(Store& store, BlockSource& source,
           const std::vector<IntervalGrid>& grids, const DecisionTree& tree,
           std::vector<NodeId>& nid, ThreadPool* pool, ScanTracker* tracker,
           const BinCodeCache* codes = nullptr, int scan_shards = 0)
      : store_(store),
        source_(source),
        schema_(store.schema()),
        grids_(grids),
        tree_(tree),
        nid_(nid),
        pool_(pool),
        tracker_(tracker),
        codes_(codes != nullptr && codes->enabled() ? codes : nullptr),
        scan_shards_(scan_shards) {}

  /// Runs one full pass, filling `work`'s bundles, pending segments and
  /// buffers, and collect lists. On return the accumulated state is
  /// byte-for-byte what a serial record-major scan would have produced
  /// (buffers and collect lists in ascending record order), for any
  /// thread count and block size, with or without the bin-code cache.
  /// Fills `po`'s route/kernel timers and cache counter when non-null.
  /// Throws on a mid-pass source failure.
  void Run(FrontierQueues& work, PassObservation* po = nullptr) {
    const int64_t n = source_.num_records();
    tracker_->ChargeScan(n, schema_);
    tracker_->ChargeWrite(n * static_cast<int64_t>(sizeof(NodeId)));

    {
      int64_t mem = GridsMemoryBytes(grids_) +
                    n * static_cast<int64_t>(sizeof(NodeId)) +
                    source_.resident_bytes();
      // The code cache is resident for the whole build (it is the point:
      // 1-2 bytes/value kept hot across passes), so it is part of every
      // pass's high-water mark.
      if (codes_ != nullptr) mem += codes_->MemoryBytes();
      for (const FreshWork& w : work.fresh) mem += w.bundle.MemoryBytes();
      for (const PendingWork& w : work.pending) {
        mem += w.pending->MemoryBytes();
      }
      tracker_->NotePeakMemory(mem);
    }

    plan_ = BuildScanPlan(tree_.num_nodes(), work);
    const int num_sinks = static_cast<int>(plan_.sinks.size());
    const int nc = schema_.num_classes();
    fill_sinks_.clear();
    drain_sinks_.clear();
    zero_fill_.clear();
    for (int s = 0; s < num_sinks; ++s) {
      const ScanSink& sink = plan_.sinks[s];
      if (sink.bundle != nullptr) {
        fill_sinks_.push_back(s);
        if (!sink.bundle->has_storage()) {
          sink.bundle->ReserveStorage();
          zero_fill_.push_back(sink.bundle);
        }
      }
      if (sink.buffer != nullptr || sink.collect != nullptr) {
        drain_sinks_.push_back(s);
      }
    }
    // Fresh bundles arrive shape-only: the plan that made them ran on
    // pool threads. Their storage was reserved just above, on this
    // thread, for the same reason as the scratch below; the pool then
    // writes the zeros.
    pool_->ParallelFor(static_cast<int64_t>(zero_fill_.size()), 1,
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t i = lo; i < hi; ++i) {
                           zero_fill_[i]->ZeroStorage();
                         }
                       });

    int shard_limit = scan_shards_;
    if (shard_limit <= 0) {
      int workers = pool_->parallelism();
      const unsigned hw = std::thread::hardware_concurrency();
      if (hw > 0) workers = std::min(workers, static_cast<int>(hw));
      shard_limit = workers > 1 ? workers * kShardsPerWorker : 1;
    }
    const int num_shards = static_cast<int>(std::min<int64_t>(
        std::max(shard_limit, 1), std::min(n, kScanTileRecords)));
    // All pass scratch is sized here, on the calling thread: allocated
    // inside pool tasks it would land in per-thread malloc arenas that
    // keep the memory after the pass frees it.
    shards_.resize(num_shards);
    for (Shard& sh : shards_) {
      sh.begin.assign(num_sinks + 1, 0);
      sh.cursor.assign(num_sinks, 0);
      sh.class_counts.assign(static_cast<size_t>(num_sinks) * nc, 0);
    }
    const int64_t tile_cap = std::min(n, kScanTileRecords);
    tile_sink_.resize(tile_cap);
    tile_offsets_.resize(tile_cap);
    route_seconds_ = 0.0;
    kernel_seconds_ = 0.0;

    source_.Reset();
    BlockView view;
    int64_t scanned = 0;
    while (source_.NextBlock(&view)) {
      store_.SetBlock(view);
      const RecordId end = view.begin + view.count;
      for (RecordId t = view.begin; t < end; t += kScanTileRecords) {
        ScanTile(t, std::min<int64_t>(kScanTileRecords, end - t), num_shards);
      }
      scanned += view.count;
    }
    store_.ClearBlock();
    if (source_.failed() || scanned != n) {
      throw std::runtime_error("cmp: table scan failed mid-pass");
    }

    // Each sink's class counts, summed in shard order, go into every
    // count array of its chain.
    std::vector<int64_t> totals(nc);
    for (int s = 0; s < num_sinks; ++s) {
      const std::vector<int64_t*>& chain = plan_.sinks[s].chain;
      if (chain.empty()) continue;
      std::fill(totals.begin(), totals.end(), 0);
      for (const Shard& sh : shards_) {
        for (int c = 0; c < nc; ++c) {
          totals[c] += sh.class_counts[static_cast<size_t>(s) * nc + c];
        }
      }
      for (int64_t* counts : chain) {
        for (int c = 0; c < nc; ++c) counts[c] += totals[c];
      }
    }

    if (po != nullptr) {
      po->route_seconds = route_seconds_;
      po->kernel_seconds = kernel_seconds_;
      if (codes_ != nullptr) po->code_cache_bytes = codes_->MemoryBytes();
    }

    // Buffered records count toward peak memory (they hold whole
    // records in a disk implementation). The streamed build really does
    // hold them: its stash is the disk implementation's side buffer.
    {
      int64_t buffered = 0;
      for (const PendingWork& w : work.pending) {
        buffered += static_cast<int64_t>(w.pending->buffer.size());
      }
      tracker_->NotePeakMemory(buffered * schema_.RecordBytes());
      if constexpr (Store::kStreaming) {
        tracker_->NotePeakMemory(store_.stash_bytes());
      }
    }
  }

 private:
  static constexpr int kNoSink = -1;
  /// Auto route shards per worker. Shards are handed out dynamically, so
  /// a worker the OS deschedules mid-phase holds up a quarter of its
  /// share of the tile instead of all of it.
  static constexpr int kShardsPerWorker = 4;

  /// One route shard's scratch. `begin[s]..begin[s + 1]` is the range of
  /// `tile_offsets_` holding the shard's records of sink s in the
  /// current tile; `class_counts` (sink-major) spans the whole pass.
  struct Shard {
    std::vector<uint32_t> begin;
    std::vector<uint32_t> cursor;
    std::vector<int64_t> class_counts;
  };

  /// One histogram of the accumulate phase: attribute `attr` of sink
  /// `sink`'s bundle, which receives `records` records in this tile.
  struct FillTask {
    int sink;
    AttrId attr;
    int64_t records;
  };

  void ScanTile(RecordId tile_begin, int64_t tile_n, int num_shards) {
    const int shards_here =
        static_cast<int>(std::min<int64_t>(num_shards, tile_n));
    const int64_t chunk = (tile_n + shards_here - 1) / shards_here;

    Timer route_timer;
    auto route = [&](int64_t s) {
      const int64_t lo = s * chunk;
      RouteRange(tile_begin, lo, std::min(tile_n, lo + chunk), &shards_[s]);
    };
    if (shards_here == 1) {
      route(0);
    } else {
      pool_->ParallelFor(shards_here, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t s = lo; s < hi; ++s) route(s);
      });
    }
    route_seconds_ += route_timer.Seconds();

    Timer kernel_timer;
    tasks_.clear();
    for (const int s : fill_sinks_) {
      int64_t records = 0;
      for (int h = 0; h < shards_here; ++h) {
        records += shards_[h].begin[s + 1] - shards_[h].begin[s];
      }
      if (records == 0) continue;
      for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
        if (plan_.sinks[s].bundle->HasHistogram(a)) {
          tasks_.push_back({s, a, records});
        }
      }
    }
    // Largest histograms first, handed out one at a time: the tasks
    // range from a whole tile to a handful of records.
    std::sort(tasks_.begin(), tasks_.end(),
              [](const FillTask& a, const FillTask& b) {
                return a.records > b.records;
              });
    const int workers = static_cast<int>(std::min<int64_t>(
        pool_->parallelism(), static_cast<int64_t>(tasks_.size())));
    if (workers <= 1) {
      for (const FillTask& t : tasks_) Fill(t, tile_begin, shards_here);
    } else {
      std::atomic<size_t> next{0};
      pool_->ParallelFor(workers, 1, [&](int64_t, int64_t) {
        for (size_t i = next++; i < tasks_.size(); i = next++) {
          Fill(tasks_[i], tile_begin, shards_here);
        }
      });
    }

    // Buffers and collect lists take the tile's records in shard order,
    // i.e. ascending record order; the streamed store stashes them while
    // their block is still resident, for the resolve phase to re-read.
    for (const int s : drain_sinks_) {
      const ScanSink& sink = plan_.sinks[s];
      for (int h = 0; h < shards_here; ++h) {
        const Shard& sh = shards_[h];
        for (uint32_t i = sh.begin[s]; i < sh.begin[s + 1]; ++i) {
          const RecordId r = tile_begin + tile_offsets_[i];
          if (sink.buffer != nullptr) {
            sink.buffer->buffer.push_back(
                {r, store_.numeric(sink.buffer->attr, r), store_.label(r)});
          } else {
            sink.collect->push_back(r);
          }
          if constexpr (Store::kStreaming) retain_.push_back(r);
        }
      }
    }
    kernel_seconds_ += kernel_timer.Seconds();
    if constexpr (Store::kStreaming) {
      store_.Stash(retain_);
      retain_.clear();
    }
  }

  /// Route phase of one shard: tile records [lo, hi) (tile-relative).
  /// Counts each sink's records and classes, then scatters the offsets
  /// into the shard's range of `tile_offsets_`, grouped by sink and
  /// ascending within each sink.
  void RouteRange(RecordId tile_begin, int64_t lo, int64_t hi, Shard* sh) {
    const int num_sinks = static_cast<int>(plan_.sinks.size());
    const int nc = schema_.num_classes();
    uint32_t* const begin = sh->begin.data();
    std::fill(begin, begin + num_sinks + 1, 0);
    int64_t* const class_counts = sh->class_counts.data();
    for (int64_t i = lo; i < hi; ++i) {
      const RecordId r = tile_begin + i;
      const int s = SinkOf(r);
      tile_sink_[i] = s;
      if (s == kNoSink) continue;
      ++begin[s + 1];
      const ClassId label = codes_ != nullptr ? codes_->label(r)
                                              : store_.label(r);
      ++class_counts[static_cast<size_t>(s) * nc + label];
    }
    begin[0] = static_cast<uint32_t>(lo);
    for (int s = 0; s < num_sinks; ++s) begin[s + 1] += begin[s];
    uint32_t* const cursor = sh->cursor.data();
    std::copy(begin, begin + num_sinks, cursor);
    for (int64_t i = lo; i < hi; ++i) {
      const int s = tile_sink_[i];
      if (s != kNoSink) tile_offsets_[cursor[s]++] = static_cast<uint32_t>(i);
    }
  }

  /// Descends record `r` through the splits resolved since the last scan
  /// (advancing nid_) and then through its node's pending plan, returning
  /// the terminal sink or kNoSink (a finished leaf).
  int SinkOf(RecordId r) {
    NodeId id = nid_[r];
    while (true) {
      const TreeNode& node = tree_.node(id);
      if (node.is_leaf || node.left == kInvalidNode) break;
      id = node.split.RoutesLeft(store_, r) ? node.left : node.right;
    }
    nid_[r] = id;
    const NodeRoute& route = plan_.nodes[id];
    int pi = route.pending;
    if (pi < 0) return route.sink;
    while (true) {
      const PendingRoute& p = plan_.pendings[pi];
      const int iv = codes_ != nullptr
                         ? codes_->code(p.attr, r)
                         : grids_[p.attr].IntervalOf(store_.numeric(p.attr, r));
      int k = 0;
      for (const int a : *p.alive) {
        if (iv == a) return p.buffer_sink;
        if (iv > a) ++k;
      }
      const SegmentRoute& seg = plan_.segments[p.first_segment + k];
      switch (seg.plan) {
        case PlanKind::kGrow:
          return seg.sink;
        case PlanKind::kPending:
          pi = seg.sub;
          break;
        case PlanKind::kExact:
          return seg.split->RoutesLeft(store_, r) ? seg.left : seg.right;
      }
    }
  }

  /// Accumulate phase of one histogram: every shard's records of the
  /// task's sink, in shard order.
  void Fill(const FillTask& t, RecordId tile_begin, int shards_here) {
    HistBundle* const bundle = plan_.sinks[t.sink].bundle;
    for (int h = 0; h < shards_here; ++h) {
      const Shard& sh = shards_[h];
      const uint32_t lo = sh.begin[t.sink];
      const size_t count = sh.begin[t.sink + 1] - lo;
      if (count == 0) continue;
      const uint32_t* offsets = tile_offsets_.data() + lo;
      if (codes_ != nullptr) {
        bundle->AccumulateCodedAttr(*codes_, t.attr, tile_begin, offsets,
                                    count);
      } else {
        bundle->AccumulateAttr(store_, grids_, t.attr, tile_begin, offsets,
                               count);
      }
    }
  }

  Store& store_;
  BlockSource& source_;
  const Schema& schema_;
  const std::vector<IntervalGrid>& grids_;
  const DecisionTree& tree_;
  std::vector<NodeId>& nid_;
  ThreadPool* pool_;  // borrowed, never null
  ScanTracker* tracker_;
  const BinCodeCache* codes_;  // null when the cache is disabled
  int scan_shards_;

  // Per-pass state, kept across passes so its buffers are reused.
  ScanPlan plan_;
  std::vector<int> fill_sinks_;   // sinks with histograms
  std::vector<int> drain_sinks_;  // buffer and collect sinks
  std::vector<Shard> shards_;
  std::vector<int32_t> tile_sink_;      // tile offset -> sink
  std::vector<uint32_t> tile_offsets_;  // grouped by shard, then sink
  std::vector<FillTask> tasks_;
  std::vector<HistBundle*> zero_fill_;  // bundles given storage this pass
  std::vector<RecordId> retain_;  // streamed: records to stash
  double route_seconds_ = 0.0;
  double kernel_seconds_ = 0.0;
};

}  // namespace cmp

#endif  // CMP_CMP_SCAN_PASS_H_
