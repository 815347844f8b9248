#ifndef CMP_RAINFOREST_RAINFOREST_H_
#define CMP_RAINFOREST_RAINFOREST_H_

#include <string>

#include "tree/builder.h"

namespace cmp {

/// Options specific to RainForest.
struct RainForestOptions {
  BuilderOptions base;
  /// Size of the AVC-group buffer in entries, as in the paper's
  /// experiments (RF-Hybrid with a fixed 2.5 million entry buffer; with
  /// two classes and 4-byte counters that is the 20 MB of Figure 19).
  int64_t avc_buffer_entries = 2500000;
};

/// Reimplementation of RainForest (Gehrke, Ramakrishnan & Ganti, VLDB
/// 1998) in its RF-Hybrid flavor, the fastest baseline in the paper's
/// Figures 16-18.
///
/// RainForest's AVC-groups (per attribute: distinct value -> class
/// counts) keep every distinct value, so its splits are exact and its
/// tree is the exact builder's. The tree therefore grows breadth-first
/// over one PresortedPartition of all records (exact/exact.h), as
/// SPRINT's does: each level's nodes are split on their presorted lists,
/// and nodes within the in-memory switch are collected and finished
/// depth-first on the same partition.
///
/// What stays RainForest's own is its cost model. Per level, the active
/// nodes are packed greedily into batches whose AVC-groups (at most
/// records x attributes entries) fit the buffer, and each batch costs one
/// full scan; a level with only collected nodes still costs one. Each
/// collected partition is charged as buffered records. RF-Hybrid switches
/// to an in-memory build as soon as a partition fits in the buffer
/// (buffer / attributes records, or in_memory_threshold if larger), and
/// the fixed buffer is charged as peak memory — that memory-for-speed
/// trade is why the paper finds RainForest slightly faster than CMP but
/// at ~20 MB of memory (Figure 19).
class RainForestBuilder : public TreeBuilder {
 public:
  explicit RainForestBuilder(RainForestOptions options = {})
      : options_(options) {}

  BuildResult Build(const Dataset& train) override;
  std::string name() const override { return "RainForest"; }

 private:
  RainForestOptions options_;
};

}  // namespace cmp

#endif  // CMP_RAINFOREST_RAINFOREST_H_
