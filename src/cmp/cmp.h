#ifndef CMP_CMP_CMP_H_
#define CMP_CMP_CMP_H_

#include <string>

#include "cmp/options.h"
#include "tree/builder.h"

namespace cmp {

/// The CMP family of decision-tree builders (Wang & Zaniolo, ICDE 2000).
///
/// All three variants share the same skeleton: numeric attributes are
/// discretized once into equal-depth intervals; per node, class
/// histograms over those intervals yield the exact gini at every interval
/// boundary plus a gradient-based lower bound per interval; the few
/// intervals that could beat the boundary minimum stay "alive". Unlike
/// CLOUDS, the exact split point inside the alive intervals is NOT found
/// with an extra pass: the node is preliminarily split around the alive
/// intervals, and during the NEXT scan (which builds the children's
/// histograms anyway) the records falling into alive intervals are set
/// aside in a buffer, sorted, and used to fix the exact split point —
/// after which the preliminary subnodes are merged into the final
/// children and the buffered records flushed into their histograms.
///
/// CMP-B replaces the per-attribute histograms with bivariate matrices
/// sharing a predicted X axis; when a split lands on the X axis the
/// children's matrices are sub-matrices of the parent's, so the children
/// can be split in the same round (two or more tree levels per scan).
/// CMP (full) additionally searches the matrices for linear-combination
/// splits a*x + b*y <= c.
class ThreadPool;
class BlockSource;

/// Construction is parallelized over `options.base.num_threads` workers
/// (records routed by contiguous shards, every histogram then filled by
/// one task, per-attribute gini scans fanned out, frontier nodes of one
/// level analyzed concurrently) with a hard determinism contract: the
/// built tree is bit-identical for every thread count. An optional
/// shared ThreadPool avoids oversubscription when training and inference
/// run in one process; when none is injected, Build creates its own.
class CmpBuilder : public TreeBuilder {
 public:
  explicit CmpBuilder(CmpOptions options = {}, ThreadPool* pool = nullptr)
      : options_(options), pool_(pool) {}

  BuildResult Build(const Dataset& train) override;

  /// Out-of-core build: trains from `source` block by block, never
  /// holding more than one prefetch window of records in memory (plus
  /// the per-round stash of buffered/collected records — the records
  /// the paper's algorithm itself sets aside). The resulting tree is
  /// byte-identical to Build() on the same records, for every block
  /// size and thread count. BuildStats.bytes_read reports bytes
  /// actually read from the source (real I/O, not the disk simulation).
  /// A pool with workers reads the next block ahead on one of them; an
  /// inline pool (one thread) reads synchronously.
  BuildResult BuildStreamed(BlockSource& source);

  std::string name() const override;

 private:
  CmpOptions options_;
  ThreadPool* pool_;  // borrowed; may be null (Build makes a local pool)
};

/// Convenience factories for the three paper variants.
CmpOptions CmpSOptions();
CmpOptions CmpBOptions();
CmpOptions CmpFullOptions();

}  // namespace cmp

#endif  // CMP_CMP_CMP_H_
