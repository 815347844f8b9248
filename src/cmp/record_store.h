#ifndef CMP_CMP_RECORD_STORE_H_
#define CMP_CMP_RECORD_STORE_H_

#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/dataset.h"
#include "common/thread_pool.h"
#include "hist/bin_codes.h"
#include "io/block_source.h"

namespace cmp {

/// Record stores adapt CmpBuild's per-record reads (numeric /
/// categorical / label / bin code by GLOBAL record id) to wherever the
/// bytes actually live. The builder is templated over the store: the
/// in-memory path keeps its direct column indexing and a resident code
/// matrix, while the out-of-core path serves reads from the currently
/// resident block and encodes codes tile by tile — with the few records
/// that must outlive block eviction (pending-buffer and collect records,
/// re-read during the resolve phase) copied, codes included, into a
/// per-round stash while their block is still resident.
///
/// Both stores answer the same calls:
///  - setup: StartCodes, then numeric_codes once per numeric attribute
///    (concurrently for distinct ones) names where DiscretizeColumn
///    (hist/grid_builder.h) writes its codes, null for none, then
///    FinishCodes. A build that never scans histograms skips StartCodes,
///    so an in-memory store encodes nothing;
///  - scan: SetBlock, then per tile SetTile and EncodeTile (concurrently
///    on disjoint offsets). view(a) and labels() then read the tile's
///    columns from its first record on (the pair
///    HistBundle::AccumulateCodedAttr takes), and code(a, r) any of its
///    records;
///  - resolve: code(a, r) and label(r) of any record a scan kept.

/// Direct view over an in-memory Dataset, with the whole table's codes
/// resident in a BinCodeCache encoded once at setup.
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
  int code(AttrId a, RecordId r) const { return codes_.code(a, r); }

  /// Non-null: setup reads whole columns and exact subtree finishing
  /// reads records from the dataset directly, with no materialization.
  const Dataset* dataset() const { return &ds_; }

  void StartCodes() { codes_ = BinCodeCache(schema(), num_records()); }
  /// The code matrix's column for numeric attribute `a` once StartCodes
  /// has run: setup writes the whole table's codes there.
  CodeColumn* numeric_codes(AttrId a) {
    return codes_.enabled() ? codes_.mutable_column(a) : nullptr;
  }
  /// Encodes the categorical columns, one pool task per column; nothing
  /// without StartCodes. The scan reads the dataset's labels, so the
  /// matrix holds no label column.
  void FinishCodes(const std::vector<IntervalGrid>& /*grids*/,
                   int64_t /*tile_records*/, ThreadPool* pool) {
    if (!codes_.enabled()) return;
    const std::vector<AttrId> cat_attrs = schema().CategoricalAttrs();
    pool->ParallelFor(static_cast<int64_t>(cat_attrs.size()), 1,
                      [&](int64_t lo, int64_t hi) {
                        for (int64_t i = lo; i < hi; ++i) {
                          codes_.EncodeCategoricalColumn(
                              cat_attrs[i],
                              ds_.categorical_column(cat_attrs[i]));
                        }
                      });
  }
  /// Resident code bytes: the whole code matrix.
  int64_t code_bytes() const { return codes_.MemoryBytes(); }

  void SetBlock(const BlockView& /*view*/) {}
  void ClearBlock() {}
  void SetTile(RecordId begin, int64_t /*count*/) { tile_begin_ = begin; }
  void EncodeTile(const uint16_t* /*offsets*/, int64_t /*n*/) {}
  CodeView view(AttrId a) const {
    return codes_.view(a).Shifted(tile_begin_);
  }
  const ClassId* labels() const { return ds_.labels().data() + tile_begin_; }

 private:
  const Dataset& ds_;
  BinCodeCache codes_;
  RecordId tile_begin_ = 0;
};

/// Bounded-memory store for a streamed build. Reads inside the resident
/// block window hit the block's columns; reads outside it hit the stash
/// of explicitly retained records. It holds no code matrix: numeric
/// codes live in one tile-sized column per attribute, written for the
/// tile's live records only, and categorical codes are the block's own
/// int32 values, read in place at the 32-bit width. Block columns and
/// tile codes are read concurrently by scan tasks; SetTile and Stash()
/// must only be called between tiles (no concurrent readers), and the
/// stash is cleared once per round after the resolve phase has
/// consumed it.
class StreamStore {
 public:
  static constexpr bool kStreaming = true;

  StreamStore(const Schema& schema, int64_t num_records)
      : schema_(schema),
        num_records_(num_records),
        numeric_attrs_(schema.NumericAttrs()),
        tile_codes_(schema.num_attrs()),
        numeric_stash_(schema.num_attrs()),
        cat_stash_(schema.num_attrs()),
        code_stash_(schema.num_attrs()) {}

  const Schema& schema() const { return schema_; }
  int64_t num_records() const { return num_records_; }
  const Dataset* dataset() const { return nullptr; }

  void StartCodes() {}
  /// None: each pass encodes its tiles' live records (EncodeTile).
  CodeColumn* numeric_codes(AttrId /*a*/) { return nullptr; }
  /// Sizes one code column of `tile_records` entries per numeric
  /// attribute, at the width its grid needs.
  void FinishCodes(const std::vector<IntervalGrid>& grids,
                   int64_t tile_records, ThreadPool* /*pool*/) {
    grids_ = &grids;
    for (const AttrId a : numeric_attrs_) {
      tile_codes_[a].Resize(grids[a].num_intervals(), tile_records);
    }
  }
  /// Resident code bytes: the tile columns (stashed codes count in
  /// stash_bytes()).
  int64_t code_bytes() const {
    int64_t bytes = 0;
    for (const CodeColumn& c : tile_codes_) bytes += c.MemoryBytes();
    return bytes;
  }

  void SetBlock(const BlockView& view) { view_ = &view; }
  void ClearBlock() {
    view_ = nullptr;
    tile_count_ = 0;
  }

  /// Makes records [begin, begin + count) of the resident block the
  /// current tile.
  void SetTile(RecordId begin, int64_t count) {
    tile_begin_ = begin;
    tile_count_ = count;
  }

  /// Encodes every numeric code of the current tile's records at
  /// tile-relative `offsets`. Calls on disjoint offsets may run
  /// concurrently.
  void EncodeTile(const uint16_t* offsets, int64_t n) {
    const int64_t shift = tile_begin_ - view_->begin;
    for (const AttrId a : numeric_attrs_) {
      tile_codes_[a].EncodeAt((*grids_)[a], view_->numeric[a] + shift,
                              offsets, n);
    }
  }

  CodeView view(AttrId a) const {
    if (schema_.is_numeric(a)) return tile_codes_[a].view();
    // The block reader checks every categorical value against its
    // cardinality (io/stream.h), so reading them as unsigned keeps them.
    CodeView v;
    v.u32 = reinterpret_cast<const uint32_t*>(view_->categorical[a] +
                                              (tile_begin_ - view_->begin));
    return v;
  }
  const ClassId* labels() const {
    return view_->labels + (tile_begin_ - view_->begin);
  }

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
  /// The code of a record of the current tile (numeric codes encoded by
  /// EncodeTile) or of a stashed one.
  int code(AttrId a, RecordId r) const {
    const int64_t i = r - tile_begin_;
    const bool numeric = schema_.is_numeric(a);
    if (i >= 0 && i < tile_count_) {
      return numeric ? tile_codes_[a][i] : categorical(a, r);
    }
    const int64_t row = StashIndex(r);
    return numeric ? code_stash_[a][row] : cat_stash_[a][row];
  }

  /// Copies `rids` (all inside the current tile, their codes encoded)
  /// into the stash so they stay readable after the block is evicted.
  /// Already-stashed records are skipped.
  void Stash(const std::vector<RecordId>& rids) {
    for (RecordId r : rids) {
      const int64_t i = BlockIndex(r);
      assert(i >= 0 && r - tile_begin_ < tile_count_);
      const auto [it, inserted] =
          stash_index_.emplace(r, static_cast<int64_t>(label_stash_.size()));
      (void)it;
      if (!inserted) continue;
      for (AttrId a = 0; a < schema_.num_attrs(); ++a) {
        if (schema_.is_numeric(a)) {
          numeric_stash_[a].push_back(view_->numeric[a][i]);
          code_stash_[a].push_back(tile_codes_[a][r - tile_begin_]);
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
    for (auto& col : code_stash_) col.clear();
    label_stash_.clear();
  }

  int64_t stash_records() const {
    return static_cast<int64_t>(label_stash_.size());
  }
  /// Bytes of the stashed records and their numeric codes.
  int64_t stash_bytes() const {
    return stash_records() *
           (schema_.RecordBytes() +
            static_cast<int64_t>(numeric_attrs_.size() * sizeof(int32_t)));
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
  std::vector<AttrId> numeric_attrs_;
  const BlockView* view_ = nullptr;  // borrowed; owned by the scan loop
  const std::vector<IntervalGrid>* grids_ = nullptr;  // set by FinishCodes

  // The current tile, and its numeric codes by tile offset.
  RecordId tile_begin_ = 0;
  int64_t tile_count_ = 0;
  std::vector<CodeColumn> tile_codes_;  // indexed by AttrId

  // Columnar stash, rows indexed via stash_index_ (rid -> row).
  std::unordered_map<RecordId, int64_t> stash_index_;
  std::vector<std::vector<double>> numeric_stash_;
  std::vector<std::vector<int32_t>> cat_stash_;
  std::vector<std::vector<int32_t>> code_stash_;  // numeric attributes
  std::vector<ClassId> label_stash_;
};

}  // namespace cmp

#endif  // CMP_CMP_RECORD_STORE_H_
