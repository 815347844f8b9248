#ifndef CMP_CMP_SCAN_PASS_H_
#define CMP_CMP_SCAN_PASS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <limits>
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
/// training records, routing every live record through the (read-only)
/// tree and the pending plans into exactly one terminal sink, then
/// filling the sinks. Handles the parallel and blocked-streaming
/// mechanics behind a single Run() call; what the sinks MEAN is the
/// business of the frontier and split-plan layers.
///
/// Live lists. A record is live while it still reaches a sink. Each
/// tile keeps its live records as 16-bit tile-relative offsets, grouped
/// into runs by the frontier node they reached on the previous pass, in
/// ascending record order within each node. The first pass starts from
/// every record, in one run per tile at the root. A record that routes
/// to no sink (a finished leaf) leaves the list; no other record ever
/// does. Records at leaves are never visited again: nodes gain work only
/// as this round's work nodes or their new descendants, so a leaf
/// without work stays without work. The runs are the build's only
/// record->node state.
///
/// The pass works tile by tile, each tile in two phases:
///  - route: shards take contiguous chunks of the tile's live list and
///    descend their records in parallel, run by run. A run's node, its
///    resolved numeric split and both children's first plan step (a
///    sink, or a pending's code column and alive intervals) are hoisted
///    out of the record loop; anything else (categorical and linear
///    splits, multi-level descents, nested pendings, exact segments)
///    descends record by record. Each shard then writes, per sink, the
///    ascending offsets of the records it received, plus per-sink class
///    counts, and writes its survivors back stably grouped by the node
///    they reached (records at finished leaves go to one extra sink past
///    the real ones, so neither loop branches on them). The tile's new
///    list is the shards' survivors in shard order. Every node of this
///    pass refines one node of the last, so a stable regroup keeps each
///    node's records ascending;
///  - accumulate: one task per (sink, attribute) histogram reads every
///    shard's offsets of that sink straight from the tile's code columns.
///    Each histogram has exactly one writer, so there are no per-shard
///    copies to merge.
/// Every interval index the two phases read is a bin code from the
/// record store (record_store.h): the resident code matrix in memory, or
/// the tile's codes a streamed store writes for its live records, each
/// shard encoding its own chunk before routing it.
/// Buffers and collect lists are appended shard by shard per tile, and
/// the class counts are added into the sinks' count arrays once at the
/// end of the pass. Integer adds commute, and each sink's records arrive
/// in ascending record order, so the post-pass state — and the tree —
/// is byte-identical for every thread count, shard count and block
/// size. The cost model is the paper's: every pass charges
/// a full scan, and a streamed pass still reads every block.

/// Records routed and then accumulated together. A tile lies inside the
/// resident block, and its records are named by offsets from the tile's
/// first record: 16 bits in the live list, 32 in the routing scratch.
constexpr int64_t kScanTileRecords = 65536;

/// A live record's offset from its tile's first record.
using LiveOffset = uint16_t;
static_assert(kScanTileRecords <= int64_t{1} << 16,
              "live offsets must fit in 16 bits");

/// Consecutive entries of a tile's live list whose records all reached
/// `node` on the previous pass. The run ends where the tile's next run
/// begins (or at the end of the list).
struct LiveRun {
  NodeId node;
  uint32_t begin;  // position in the tile's live list
};

/// One tile's live list: `live` offsets stored at the tile's own record
/// range of the pass's offset array, in runs [first_run, first_run +
/// num_runs) of the pass's run array.
struct LiveTile {
  RecordId begin;  // the tile's first record
  uint32_t live;
  uint32_t first_run;
  uint32_t num_runs;
};

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
  /// Work nodes in sink order: `slot_node[k]` owns the contiguous sinks
  /// [slot_begin[k], slot_begin[k + 1]), and `sink_slot` maps each sink
  /// back to its slot.
  std::vector<NodeId> slot_node;
  std::vector<int> slot_begin;
  std::vector<int> sink_slot;
};

/// Flattens `work` into the sink table of a pass over a tree with
/// `num_nodes` nodes.
ScanPlan BuildScanPlan(int num_nodes, FrontierQueues& work);

template <class Store>
class ScanPass {
 public:
  /// All references are borrowed and must outlive the pass. `tree` is
  /// read-only during Run (records descend through splits resolved since
  /// the last scan), and node 0 is its root. `store`'s codes must be set
  /// up (record_store.h). `scan_shards` sets the route shard count (0 =
  /// auto: four per worker, the workers being the pool parallelism
  /// capped at the hardware thread count; one shard on an inline pool).
  ///
  /// One ScanPass serves every pass of a build: its live lists carry
  /// from pass to pass, so every pass must see the same blocks.
  ScanPass(Store& store, BlockSource& source,
           const std::vector<IntervalGrid>& grids, const DecisionTree& tree,
           ThreadPool* pool, ScanTracker* tracker, int scan_shards = 0)
      : store_(store),
        source_(source),
        schema_(store.schema()),
        grids_(grids),
        tree_(tree),
        pool_(pool),
        tracker_(tracker),
        scan_shards_(scan_shards) {
    // The live list is the first per-record allocation after setup, so
    // it is made here, before any pass. Allocated mid-pass instead, it
    // changed the heap layout enough that the next build in the same
    // process loaded its table at half speed (500k-row F2: 11 -> 22 ms).
    live_.reserve(source.num_records());
  }

  /// Runs one full pass, filling `work`'s bundles, pending segments and
  /// buffers, and collect lists. On return the accumulated state is
  /// byte-for-byte what a serial record-major scan would have produced
  /// (buffers and collect lists in ascending record order), for any
  /// thread count and block size.
  /// Fills `po`'s route/kernel timers, routed-record and code-byte
  /// counters when non-null. Throws on a mid-pass source failure.
  void Run(FrontierQueues& work, PassObservation* po = nullptr) {
    const int64_t n = source_.num_records();
    tracker_->ChargeScan(n, schema_);
    // The paper's per-record nid array, swapped out every pass: the live
    // runs replace it, but the cost model keeps its charge.
    tracker_->ChargeWrite(n * static_cast<int64_t>(sizeof(NodeId)));

    {
      // The live list is the only per-record state: one offset per
      // record, allocated once for the whole build. The store's codes
      // (the code matrix in memory, the tile columns streamed) are
      // resident for the whole build too.
      int64_t mem = GridsMemoryBytes(grids_) +
                    n * static_cast<int64_t>(sizeof(LiveOffset)) +
                    source_.resident_bytes() + store_.code_bytes();
      for (const FreshWork& w : work.fresh) mem += w.bundle.MemoryBytes();
      for (const PendingWork& w : work.pending) {
        mem += w.pending->MemoryBytes();
      }
      tracker_->NotePeakMemory(mem);
    }

    plan_ = BuildScanPlan(tree_.num_nodes(), work);
    const int num_sinks = static_cast<int>(plan_.sinks.size());
    const int num_slots = static_cast<int>(plan_.slot_node.size());
    const int nc = schema_.num_classes();
    // Records at nodes without work go to one extra sink, `drop_`, past
    // the real ones, so routing and scattering never branch on it: the
    // scatter puts a shard's dropped records after its survivors, and
    // no fill, drain or count reads them. Its slot is past the real
    // ones too.
    drop_ = num_sinks;
    for (NodeRoute& route : plan_.nodes) {
      if (route.sink < 0 && route.pending < 0) route.sink = drop_;
    }
    plan_.sink_slot.push_back(num_slots);
    segment_sinks_.resize(plan_.segments.size());
    for (size_t i = 0; i < plan_.segments.size(); ++i) {
      const SegmentRoute& seg = plan_.segments[i];
      segment_sinks_[i] = seg.plan == PlanKind::kGrow ? seg.sink : kDescend;
    }
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
      sh.begin.assign(num_sinks + 2, 0);
      sh.cursor.assign(num_sinks + 1, 0);
      sh.slot_cursor.assign(num_slots + 1, 0);
      sh.class_counts.assign(static_cast<size_t>(num_sinks + 1) * nc, 0);
    }
    const int64_t tile_cap = std::min(n, kScanTileRecords);
    tile_sink_.resize(tile_cap);
    tile_offsets_.resize(tile_cap);
    tile_kept_.resize(tile_cap);
    const bool first_pass = tiles_.empty();
    if (first_pass) live_.resize(n);
    next_runs_.clear();
    route_seconds_ = 0.0;
    kernel_seconds_ = 0.0;
    records_routed_ = 0;

    source_.Reset();
    BlockView view;
    int64_t scanned = 0;
    size_t tile_index = 0;
    while (source_.NextBlock(&view)) {
      store_.SetBlock(view);
      const RecordId end = view.begin + view.count;
      for (RecordId t = view.begin; t < end; t += kScanTileRecords) {
        const int64_t count = std::min<int64_t>(kScanTileRecords, end - t);
        if (first_pass) {
          StartTile(t, count);
        } else if (tile_index >= tiles_.size() ||
                   tiles_[tile_index].begin != t) {
          throw std::logic_error("cmp: scan blocks changed between passes");
        }
        store_.SetTile(t, count);
        ScanTile(view, &tiles_[tile_index++], num_shards);
      }
      scanned += view.count;
    }
    store_.ClearBlock();
    if (source_.failed() || scanned != n || tile_index != tiles_.size()) {
      throw std::runtime_error("cmp: table scan failed mid-pass");
    }
    runs_.swap(next_runs_);

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
      po->records_routed = records_routed_;
      po->code_cache_bytes = store_.code_bytes();
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

  /// The live lists the next pass will route, tile by tile in scan
  /// order: tile `t` holds `live_offsets()[t.begin + i]` for i below
  /// `t.live`, in `live_runs()[t.first_run ...]`. Empty before the first
  /// pass.
  const std::vector<LiveTile>& live_tiles() const { return tiles_; }
  const std::vector<LiveRun>& live_runs() const { return runs_; }
  const std::vector<LiveOffset>& live_offsets() const { return live_; }

 private:
  /// A segment whose records descend further (a nested pending or an
  /// exact split) in a hoisted step's sink table.
  static constexpr int kDescend = -2;
  /// Alive intervals a hoisted step holds; pendings with more route
  /// record by record.
  static constexpr int kHoistAlive = 4;
  /// Auto route shards per worker. Shards are handed out dynamically, so
  /// a worker the OS deschedules mid-phase holds up a quarter of its
  /// share of the tile instead of all of it.
  static constexpr int kShardsPerWorker = 4;

  /// One route shard's scratch. `begin[s]..begin[s + 1]` is the range of
  /// `tile_offsets_` holding the shard's records of sink s (drop_
  /// included) in the current tile; the same positions of `tile_kept_`
  /// hold the shard's survivors grouped by work-node slot, then its
  /// dropped records. `class_counts` (sink-major) spans the whole pass.
  struct Shard {
    std::vector<uint32_t> begin;
    std::vector<uint32_t> cursor;
    std::vector<uint32_t> slot_cursor;
    std::vector<int64_t> class_counts;
  };

  /// One histogram of the accumulate phase: attribute `attr` of sink
  /// `sink`'s bundle, which receives `records` records in this tile.
  struct FillTask {
    int sink;
    AttrId attr;
    int64_t records;
  };

  /// A settled node's first routing step with its lookups hoisted out
  /// of the record loop: a terminal sink (`sinks[0]`), or a pending
  /// split read through tile-relative columns. The alive intervals are
  /// padded to kHoistAlive with values no code reaches, so every record
  /// runs the same compares; a terminal step has no alive intervals.
  struct Step {
    bool terminal = true;
    CodeView codes;  // the split attribute's codes, from the tile's start
    int alive[kHoistAlive] = {};
    int sinks[kHoistAlive + 1] = {};  // per segment: sink or kDescend
    int buffer_sink = 0;
    int first_segment = 0;
  };

  /// First pass only: tile [begin, begin + count) starts with every
  /// record live, in one run at the root.
  void StartTile(RecordId begin, int64_t count) {
    tiles_.push_back({begin, static_cast<uint32_t>(count),
                      static_cast<uint32_t>(runs_.size()), 1});
    runs_.push_back({0, 0});
    for (int64_t i = 0; i < count; ++i) {
      live_[begin + i] = static_cast<LiveOffset>(i);
    }
  }

  void ScanTile(const BlockView& view, LiveTile* tile, int num_shards) {
    const RecordId tile_begin = tile->begin;
    const int64_t live = tile->live;
    const LiveRun* const runs = runs_.data() + tile->first_run;
    const int num_runs = static_cast<int>(tile->num_runs);
    records_routed_ += live;
    tile->first_run = static_cast<uint32_t>(next_runs_.size());
    tile->num_runs = 0;
    if (live == 0) return;
    const int shards_here =
        static_cast<int>(std::min<int64_t>(num_shards, live));
    const int64_t chunk = (live + shards_here - 1) / shards_here;

    Timer route_timer;
    const TileColumns cols(view, tile_begin);
    auto route = [&](int64_t s) {
      const int64_t lo = std::min(live, s * chunk);
      const int64_t hi = std::min(live, lo + chunk);
      store_.EncodeTile(live_.data() + tile_begin + lo, hi - lo);
      RouteRange(cols, runs, num_runs, live, lo, hi, &shards_[s]);
    };
    if (shards_here == 1) {
      route(0);
    } else {
      pool_->ParallelFor(shards_here, 1, [&](int64_t lo, int64_t hi) {
        for (int64_t s = lo; s < hi; ++s) route(s);
      });
    }
    KeepSurvivors(tile, shards_here, chunk);
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
      for (const FillTask& t : tasks_) Fill(t, shards_here);
    } else {
      std::atomic<size_t> next{0};
      pool_->ParallelFor(workers, 1, [&](int64_t, int64_t) {
        for (size_t i = next++; i < tasks_.size(); i = next++) {
          Fill(tasks_[i], shards_here);
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

  /// The resident block's columns, shifted to one tile's first record.
  /// The tile's codes and labels come from the store (store_.view(a),
  /// store_.labels()), which SetTile pointed at the same record.
  struct TileColumns {
    TileColumns(const BlockView& view, RecordId tile_begin)
        : view(view), shift(tile_begin - view.begin), tile_begin(tile_begin) {}

    const double* numeric(AttrId a) const { return view.numeric[a] + shift; }

    const BlockView& view;
    int64_t shift;
    RecordId tile_begin;
  };

  /// Route phase of one shard: positions [lo, hi) of the tile's live
  /// list, which holds `live` entries in `num_runs` runs. Counts each
  /// sink's records and classes, then scatters the offsets into the
  /// shard's range of `tile_offsets_`, grouped by sink and ascending
  /// within each sink, and the survivors into the same range of
  /// `tile_kept_`, grouped by work node and in list order within each.
  void RouteRange(const TileColumns& cols, const LiveRun* runs, int num_runs,
                  int64_t live, int64_t lo, int64_t hi, Shard* sh) {
    const LiveOffset* const list = live_.data() + cols.tile_begin;
    int i = static_cast<int>(
        std::upper_bound(runs, runs + num_runs, lo,
                         [](int64_t pos, const LiveRun& run) {
                           return pos < run.begin;
                         }) -
        runs) - 1;
    for (int64_t a = lo; a < hi; ++i) {
      const int64_t run_end = i + 1 < num_runs ? runs[i + 1].begin : live;
      const int64_t b = std::min(hi, run_end);
      RouteRun(cols, runs[i].node, list, a, b);
      a = b;
    }

    const int nc = schema_.num_classes();
    uint32_t* const begin = sh->begin.data();
    std::fill(begin, begin + drop_ + 2, 0);
    int64_t* const class_counts = sh->class_counts.data();
    const ClassId* const labels = store_.labels();
    const int32_t* const sinks = tile_sink_.data();
    for (int64_t p = lo; p < hi; ++p) {
      const int s = sinks[p];
      ++begin[s + 1];
      ++class_counts[static_cast<size_t>(s) * nc + labels[list[p]]];
    }
    begin[0] = static_cast<uint32_t>(lo);
    for (int s = 0; s <= drop_; ++s) begin[s + 1] += begin[s];
    uint32_t* const cursor = sh->cursor.data();
    std::copy(begin, begin + drop_ + 1, cursor);
    // A work node's sinks are contiguous, so its survivors start where
    // its first sink's records do; the dropped records follow them all.
    uint32_t* const slot_cursor = sh->slot_cursor.data();
    const int num_slots = static_cast<int>(plan_.slot_node.size());
    for (int k = 0; k <= num_slots; ++k) {
      slot_cursor[k] = begin[plan_.slot_begin[k]];
    }
    const int* const sink_slot = plan_.sink_slot.data();
    for (int64_t p = lo; p < hi; ++p) {
      const int s = sinks[p];
      const LiveOffset off = list[p];
      tile_offsets_[cursor[s]++] = off;
      tile_kept_[slot_cursor[sink_slot[s]]++] = off;
    }
  }

  /// Routes the live-list positions [a, b), whose records all reached
  /// `node` on the previous pass, writing each one's sink to
  /// `tile_sink_`.
  void RouteRun(const TileColumns& cols, NodeId node, const LiveOffset* list,
                int64_t a, int64_t b) {
    int32_t* const sinks = tile_sink_.data();
    const RecordId tile_begin = cols.tile_begin;
    const TreeNode& tn = tree_.node(node);
    Step steps[2];
    if (Settled(tn)) {
      if (MakeStep(node, &steps[0])) {
        const Step& step = steps[0];
        if (step.terminal) {
          std::fill(sinks + a, sinks + b, step.sinks[0]);
        } else {
          VisitCodes(step.codes, [&](const auto* codes) {
            for (int64_t p = a; p < b; ++p) {
              const LiveOffset off = list[p];
              sinks[p] = StepSink(step, codes[off], tile_begin, off);
            }
          });
        }
        return;
      }
    } else if (tn.split.kind == Split::Kind::kNumeric &&
               Settled(tree_.node(tn.left)) &&
               Settled(tree_.node(tn.right)) &&
               MakeStep(tn.left, &steps[0]) &&
               MakeStep(tn.right, &steps[1])) {
      const double* const values = cols.numeric(tn.split.attr);
      const double threshold = tn.split.threshold;
      if (steps[0].terminal && steps[1].terminal) {
        for (int64_t p = a; p < b; ++p) {
          const LiveOffset off = list[p];
          const int side = values[off] <= threshold ? 0 : 1;
          sinks[p] = steps[side].sinks[0];
        }
        return;
      }
      // Each record loads both sides' codes and keeps its own side's. A
      // terminal side has no code column, so it borrows its sibling's:
      // any code routes a terminal step to its sink.
      if (steps[0].terminal) steps[0].codes = steps[1].codes;
      if (steps[1].terminal) steps[1].codes = steps[0].codes;
      VisitCodes(steps[0].codes, [&](const auto* left) {
        VisitCodes(steps[1].codes, [&](const auto* right) {
          for (int64_t p = a; p < b; ++p) {
            const LiveOffset off = list[p];
            const int side = values[off] <= threshold ? 0 : 1;
            const int iv[2] = {static_cast<int>(left[off]),
                               static_cast<int>(right[off])};
            sinks[p] = StepSink(steps[side], iv[side], tile_begin, off);
          }
        });
      });
      return;
    }
    for (int64_t p = a; p < b; ++p) {
      sinks[p] = SinkOf(node, tile_begin + list[p]);
    }
  }

  /// A node with no split to descend through.
  static bool Settled(const TreeNode& node) {
    return node.is_leaf || node.left == kInvalidNode;
  }

  /// Hoists the first routing step of settled node `id` into `step`;
  /// false when its pending has more than kHoistAlive alive intervals.
  bool MakeStep(NodeId id, Step* step) const {
    const NodeRoute& route = plan_.nodes[id];
    std::fill(std::begin(step->alive), std::end(step->alive),
              std::numeric_limits<int>::max());
    std::fill(std::begin(step->sinks), std::end(step->sinks), drop_);
    if (route.pending < 0) {
      step->terminal = true;
      step->sinks[0] = route.sink;
      return true;
    }
    const PendingRoute& p = plan_.pendings[route.pending];
    const int num_alive = static_cast<int>(p.alive->size());
    if (num_alive > kHoistAlive) return false;
    step->terminal = false;
    step->codes = store_.view(p.attr);
    std::copy(p.alive->begin(), p.alive->end(), step->alive);
    std::copy(segment_sinks_.begin() + p.first_segment,
              segment_sinks_.begin() + p.first_segment + num_alive + 1,
              step->sinks);
    step->buffer_sink = p.buffer_sink;
    step->first_segment = p.first_segment;
    return true;
  }

  /// The sink of the record at `off` in the tile at `tile_begin`, which
  /// has reached the node `step` was made for and whose code on the
  /// step's attribute is `iv` (any code, for a terminal step).
  int StepSink(const Step& step, int iv, RecordId tile_begin,
               LiveOffset off) const {
    int k = 0;
    bool hit = false;
    for (int i = 0; i < kHoistAlive; ++i) {
      hit |= iv == step.alive[i];
      k += iv > step.alive[i];
    }
    const int sink = hit ? step.buffer_sink : step.sinks[k];
    if (sink != kDescend) return sink;
    return SegmentSink(plan_.segments[step.first_segment + k],
                       tile_begin + off);
  }

  /// Descends record `r` from node `id`, its run's, through the splits
  /// resolved since the last scan and then through its node's pending
  /// plan, returning the terminal sink (drop_ at a finished leaf).
  int SinkOf(NodeId id, RecordId r) const {
    while (!Settled(tree_.node(id))) {
      const TreeNode& node = tree_.node(id);
      id = node.split.RoutesLeft(store_, r) ? node.left : node.right;
    }
    const NodeRoute& route = plan_.nodes[id];
    return route.pending < 0 ? route.sink : PendingSink(route.pending, r);
  }

  int PendingSink(int pi, RecordId r) const {
    const PendingRoute& p = plan_.pendings[pi];
    const int iv = store_.code(p.attr, r);
    int k = 0;
    for (const int a : *p.alive) {
      if (iv == a) return p.buffer_sink;
      if (iv > a) ++k;
    }
    return SegmentSink(plan_.segments[p.first_segment + k], r);
  }

  int SegmentSink(const SegmentRoute& seg, RecordId r) const {
    switch (seg.plan) {
      case PlanKind::kGrow:
        return seg.sink;
      case PlanKind::kPending:
        return PendingSink(seg.sub, r);
      case PlanKind::kExact:
        return seg.split->RoutesLeft(store_, r) ? seg.left : seg.right;
    }
    return drop_;
  }

  /// Ends the route phase of a tile: its new live list is every shard's
  /// survivors in shard order, and its runs are each shard's work nodes
  /// with survivors, in slot order, with a run that continues across a
  /// shard boundary kept as one.
  void KeepSurvivors(LiveTile* tile, int shards_here, int64_t chunk) {
    LiveOffset* const list = live_.data() + tile->begin;
    const int num_sinks = static_cast<int>(plan_.sinks.size());
    const int num_slots = static_cast<int>(plan_.slot_node.size());
    uint32_t kept = 0;
    for (int h = 0; h < shards_here; ++h) {
      const uint32_t* const begin = shards_[h].begin.data();
      const uint32_t lo = static_cast<uint32_t>(std::min<int64_t>(
          tile->live, h * chunk));
      const uint32_t count = begin[num_sinks] - lo;
      std::copy(tile_kept_.begin() + lo, tile_kept_.begin() + lo + count,
                list + kept);
      for (int k = 0; k < num_slots; ++k) {
        const uint32_t first = begin[plan_.slot_begin[k]];
        if (first == begin[plan_.slot_begin[k + 1]]) continue;
        const NodeId node = plan_.slot_node[k];
        if (tile->num_runs > 0 && next_runs_.back().node == node) continue;
        next_runs_.push_back({node, kept + (first - lo)});
        ++tile->num_runs;
      }
      kept += count;
    }
    tile->live = kept;
  }

  /// Accumulate phase of one histogram: every shard's records of the
  /// task's sink, in shard order.
  void Fill(const FillTask& t, int shards_here) {
    HistBundle* const bundle = plan_.sinks[t.sink].bundle;
    for (int h = 0; h < shards_here; ++h) {
      const Shard& sh = shards_[h];
      const uint32_t lo = sh.begin[t.sink];
      const size_t count = sh.begin[t.sink + 1] - lo;
      if (count == 0) continue;
      bundle->AccumulateCodedAttr(store_, t.attr, 0,
                                  tile_offsets_.data() + lo, count);
    }
  }

  Store& store_;
  BlockSource& source_;
  const Schema& schema_;
  const std::vector<IntervalGrid>& grids_;
  const DecisionTree& tree_;
  ThreadPool* pool_;  // borrowed, never null
  ScanTracker* tracker_;
  int scan_shards_;

  // Live lists, carried from pass to pass.
  std::vector<LiveOffset> live_;  // tile t's list from t.begin, t.live long
  std::vector<LiveTile> tiles_;   // in scan order
  std::vector<LiveRun> runs_;     // this pass's runs, tile by tile
  std::vector<LiveRun> next_runs_;  // the next pass's

  // Per-pass state, kept across passes so its buffers are reused.
  ScanPlan plan_;
  std::vector<int> fill_sinks_;   // sinks with histograms
  std::vector<int> drain_sinks_;  // buffer and collect sinks
  std::vector<Shard> shards_;
  std::vector<int32_t> tile_sink_;      // live-list position -> sink
  std::vector<uint32_t> tile_offsets_;  // grouped by shard, then sink
  std::vector<LiveOffset> tile_kept_;   // grouped by shard, then node
  std::vector<FillTask> tasks_;
  std::vector<HistBundle*> zero_fill_;  // bundles given storage this pass
  std::vector<RecordId> retain_;  // streamed: records to stash
  std::vector<int> segment_sinks_;  // per plan segment: sink or kDescend
  int drop_ = 0;                      // the sink of records at leaves
  double route_seconds_ = 0.0;
  double kernel_seconds_ = 0.0;
  int64_t records_routed_ = 0;
};

}  // namespace cmp

#endif  // CMP_CMP_SCAN_PASS_H_
