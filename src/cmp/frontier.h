#ifndef CMP_CMP_FRONTIER_H_
#define CMP_CMP_FRONTIER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "cmp/bundle.h"
#include "hist/quantiles.h"
#include "tree/split.h"

namespace cmp {

/// Frontier/pending lifecycle of the CMP build pipeline: the structures
/// a scan accumulates into (fresh histogram bundles, pending approximate
/// splits with their segments and buffers, collect lists) and the
/// resolve-time operations on them — buffer sorting and the record-major
/// routing of flushed buffer records. Split *decisions* live one layer
/// up in split_plan.h; scan orchestration (which routes a pass's records
/// to these sinks and fills them) lives in scan_pass.h.

/// A record set aside because its split-attribute value falls in an alive
/// interval; the exact record is re-read from the (read-only) dataset at
/// flush time, so only the sort key and class are kept hot.
struct BufferedRecord {
  RecordId rid;
  double value;
  ClassId label;
};

constexpr int64_t kBufferedBytes = 20;  // rid + value + label on disk

struct Pending;

/// What a preliminary subnode (segment of a pending split) will become.
enum class PlanKind {
  /// Keep the (derived or fresh) bundle; analyze normally at resolution.
  kGrow,
  /// Nested pending split (CMP-B second-level split, Figure 8/10).
  kPending,
  /// Exact split decided from the derived sub-matrices; grandchild
  /// bundles fill during the scan.
  kExact,
};

/// One preliminary subnode of a pending split: the records strictly
/// between two alive intervals (or outside the outermost ones).
struct Segment {
  // Per-class counts of records routed here during the scan; for derived
  // bundles this equals the bundle totals once the buffer is flushed.
  std::vector<int64_t> counts;
  // Global X/interval range of the records this segment may receive
  // (including the partial alive columns filled by buffer flushes).
  int range_lo = 0;
  int range_hi = 0;

  PlanKind plan = PlanKind::kGrow;
  HistBundle bundle;             // kGrow
  bool bundle_fresh = true;      // fill during scan?
  std::unique_ptr<Pending> sub;  // kPending
  Split exact_split;             // kExact
  HistBundle exact_left;         // kExact: grandchild bundles
  HistBundle exact_right;
  std::vector<int64_t> exact_left_counts;  // kExact: routed counts
  std::vector<int64_t> exact_right_counts;
};

/// A pending (approximate) numeric split awaiting exact resolution at
/// the next scan.
struct Pending {
  AttrId attr = kInvalidAttr;
  // Alive interval indices on `attr` (global grid indices), ascending,
  // between 1 and max_alive entries.
  std::vector<int> alive;
  std::vector<Segment> segments;  // alive.size() + 1
  std::vector<BufferedRecord> buffer;
  int64_t MemoryBytes() const;
};

/// Sorts a pending buffer by (value, rid). The record id tiebreak makes
/// the order a total one: equal-valued records always route to the same
/// side of the resolved split, so the tree is unchanged, and the sorted
/// buffer is a unique permutation whatever order the scan appended it
/// in and whatever sort algorithm runs.
void SortBuffer(std::vector<BufferedRecord>* buffer);

/// Alive intervals across `p` and its nested sub-pendings (observer
/// metric).
int64_t CountAliveIntervals(const Pending& p);

/// Buffered records across `p` and its nested sub-pendings (observer
/// metric).
int64_t CountBufferedRecords(const Pending& p);

// ---------------------------------------------------------------------
// The frontier work lists: what the next scan must accumulate for every
// active node of the tree's growth frontier.

/// A node awaiting its first complete histogram bundle.
struct FreshWork {
  NodeId node;
  HistBundle bundle;
};

/// A node whose approximate split resolves after the next scan.
struct PendingWork {
  NodeId node;
  std::unique_ptr<Pending> pending;
};

/// A node whose partition fits in memory: its record ids are collected
/// during the next scan and the subtree is finished exactly.
struct CollectWork {
  NodeId node;
  std::vector<RecordId> rids;
};

/// One scan round's work lists. The build loop scans against the current
/// queues while split resolution emits into the next round's.
struct FrontierQueues {
  std::vector<FreshWork> fresh;
  std::vector<PendingWork> pending;
  std::vector<CollectWork> collect;

  bool Empty() const {
    return fresh.empty() && pending.empty() && collect.empty();
  }
  void Clear() {
    fresh.clear();
    pending.clear();
    collect.clear();
  }
};

// ---------------------------------------------------------------------
// Record-major routing through a resolved pending split's segments.
// Templated over the record store (record_store.h) like the rest of the
// pipeline; every interval index comes from the store's bin codes. The
// scan routes records through the same plan tree (ScanPass), but as a
// route phase over a tile followed by a per-histogram fill; these
// one-record-at-a-time forms serve the resolve-time buffer flushes,
// where records arrive in sorted-value order interleaved with routing.

template <class Store>
bool RoutePending(Pending* p, const Store& store, RecordId r);

/// Adds a record to whatever sits on one side of a resolved split: a
/// nested pending, an exact sub-split, or a plain bundle. Returns true if
/// the record was set aside in a nested pending's buffer. A flushed
/// record can land there; it was already stashed when it was first
/// buffered, so the nested resolve (later this round) can still read it.
template <class Store>
bool FlushIntoSegment(Segment* seg, const Store& store, RecordId r) {
  const ClassId label = store.label(r);
  seg->counts[label]++;
  switch (seg->plan) {
    case PlanKind::kGrow:
      seg->bundle.AddCoded(store, r);
      break;
    case PlanKind::kPending:
      return RoutePending(seg->sub.get(), store, r);
    case PlanKind::kExact:
      if (seg->exact_split.RoutesLeft(store, r)) {
        seg->exact_left_counts[label]++;
        seg->exact_left.AddCoded(store, r);
      } else {
        seg->exact_right_counts[label]++;
        seg->exact_right.AddCoded(store, r);
      }
      break;
  }
  return false;
}

/// Routes record `r` through a pending split (at most one nested
/// level). Returns true if the record was set aside in a (possibly
/// nested) pending buffer — i.e. it will be re-read at resolve time. A
/// record outside every alive interval goes into its segment as a flush
/// would, except that a derived (non-fresh) kGrow bundle only counts it:
/// the bundle was derived from parent matrices that already hold the
/// record.
template <class Store>
bool RoutePending(Pending* p, const Store& store, RecordId r) {
  const int iv = store.code(p->attr, r);
  int k = 0;
  for (int a : p->alive) {
    if (iv == a) {
      p->buffer.push_back({r, store.numeric(p->attr, r), store.label(r)});
      return true;
    }
    if (iv > a) ++k;
  }
  Segment& seg = p->segments[k];
  if (seg.plan == PlanKind::kGrow && !seg.bundle_fresh) {
    seg.counts[store.label(r)]++;
    return false;
  }
  return FlushIntoSegment(&seg, store, r);
}

}  // namespace cmp

#endif  // CMP_CMP_FRONTIER_H_
