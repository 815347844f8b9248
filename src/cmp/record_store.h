#ifndef CMP_CMP_RECORD_STORE_H_
#define CMP_CMP_RECORD_STORE_H_

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/dataset.h"
#include "io/block_source.h"

namespace cmp {

/// Record stores adapt CmpBuild's per-record reads (numeric /
/// categorical / label by GLOBAL record id) to wherever the bytes
/// actually live. The builder is templated over the store: the
/// in-memory path keeps its direct column indexing, while the
/// out-of-core path serves reads from the currently resident block —
/// with the few records that must outlive block eviction (pending-
/// buffer and collect records, re-read during the resolve phase)
/// copied into a per-round stash while their block is still resident.

/// Direct view over an in-memory Dataset.
class InMemoryStore {
 public:
  static constexpr bool kStreaming = false;

  explicit InMemoryStore(const Dataset& ds) : ds_(ds) {}

  const Schema& schema() const { return ds_.schema(); }
  int64_t num_records() const { return ds_.num_records(); }
  double numeric(AttrId a, RecordId r) const { return ds_.numeric(a, r); }
  int32_t categorical(AttrId a, RecordId r) const {
    return ds_.categorical(a, r);
  }
  ClassId label(RecordId r) const { return ds_.label(r); }

  /// Non-null: setup reads whole columns and exact subtree finishing
  /// reads records from the dataset directly, with no materialization.
  const Dataset* dataset() const { return &ds_; }

  void SetBlock(const BlockView& view) { (void)view; }
  void ClearBlock() {}

 private:
  const Dataset& ds_;
};

/// Bounded-memory store for a streamed build. Reads inside the resident
/// block window hit the block's columns; reads outside it hit the stash
/// of explicitly retained records. Block columns are read concurrently
/// by scan tasks; Stash() must only be called between tiles (no
/// concurrent readers), and the stash is cleared once per round after
/// the resolve phase has consumed it.
class StreamStore {
 public:
  static constexpr bool kStreaming = true;

  StreamStore(const Schema& schema, int64_t num_records)
      : schema_(schema),
        num_records_(num_records),
        numeric_stash_(schema.num_attrs()),
        cat_stash_(schema.num_attrs()) {}

  const Schema& schema() const { return schema_; }
  int64_t num_records() const { return num_records_; }
  const Dataset* dataset() const { return nullptr; }

  void SetBlock(const BlockView& view) { view_ = &view; }
  void ClearBlock() { view_ = nullptr; }

  double numeric(AttrId a, RecordId r) const {
    const int64_t i = BlockIndex(r);
    if (i >= 0) return view_->numeric[a][i];
    return numeric_stash_[a][StashIndex(r)];
  }
  int32_t categorical(AttrId a, RecordId r) const {
    const int64_t i = BlockIndex(r);
    if (i >= 0) return view_->categorical[a][i];
    return cat_stash_[a][StashIndex(r)];
  }
  ClassId label(RecordId r) const {
    const int64_t i = BlockIndex(r);
    if (i >= 0) return view_->labels[i];
    return label_stash_[StashIndex(r)];
  }

  /// Copies `rids` (all inside the resident block) into the stash so
  /// they stay readable after the block is evicted. Already-stashed
  /// records are skipped.
  void Stash(const std::vector<RecordId>& rids) {
    for (RecordId r : rids) {
      const int64_t i = BlockIndex(r);
      assert(i >= 0);
      const auto [it, inserted] =
          stash_index_.emplace(r, static_cast<int64_t>(label_stash_.size()));
      (void)it;
      if (!inserted) continue;
      for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
        if (schema_.is_numeric(a)) {
          numeric_stash_[a].push_back(view_->numeric[a][i]);
        } else {
          cat_stash_[a].push_back(view_->categorical[a][i]);
        }
      }
      label_stash_.push_back(view_->labels[i]);
    }
  }

  void ClearStash() {
    stash_index_.clear();
    for (auto& col : numeric_stash_) col.clear();
    for (auto& col : cat_stash_) col.clear();
    label_stash_.clear();
  }

  int64_t stash_records() const {
    return static_cast<int64_t>(label_stash_.size());
  }
  int64_t stash_bytes() const {
    return stash_records() * schema_.RecordBytes();
  }

  /// Materializes the stashed records `rids` as a Dataset whose record
  /// i is global record rids[i] (callers pass rids in ascending order
  /// so the result reproduces the global record order).
  Dataset Materialize(const std::vector<RecordId>& rids) const {
    Dataset out(schema_);
    out.Reserve(static_cast<int64_t>(rids.size()));
    std::vector<double> nums;
    std::vector<int32_t> cats;
    for (RecordId r : rids) {
      nums.clear();
      cats.clear();
      const int64_t row = StashIndex(r);
      for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
        if (schema_.is_numeric(a)) {
          nums.push_back(numeric_stash_[a][row]);
        } else {
          cats.push_back(cat_stash_[a][row]);
        }
      }
      out.Append(nums, cats, label_stash_[row]);
    }
    return out;
  }

 private:
  // Local index of `r` in the resident block, or -1 when not resident.
  int64_t BlockIndex(RecordId r) const {
    if (view_ == nullptr) return -1;
    const int64_t i = r - view_->begin;
    return (i >= 0 && i < view_->count) ? i : -1;
  }

  int64_t StashIndex(RecordId r) const {
    const auto it = stash_index_.find(r);
    assert(it != stash_index_.end());
    return it->second;
  }

  const Schema& schema_;
  int64_t num_records_ = 0;
  const BlockView* view_ = nullptr;  // borrowed; owned by the scan loop

  // Columnar stash, rows indexed via stash_index_ (rid -> row).
  std::unordered_map<RecordId, int64_t> stash_index_;
  std::vector<std::vector<double>> numeric_stash_;
  std::vector<std::vector<int32_t>> cat_stash_;
  std::vector<ClassId> label_stash_;
};

}  // namespace cmp

#endif  // CMP_CMP_RECORD_STORE_H_
