#ifndef CMP_INFER_COMPILED_TREE_H_
#define CMP_INFER_COMPILED_TREE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/dataset.h"
#include "common/schema.h"
#include "common/types.h"
#include "io/model_blob.h"
#include "tree/tree.h"

namespace cmp {

struct TreeNodesView;
struct InferKernelOps;

/// Column-major (structure-of-arrays) view of a row block for the batch
/// kernels: one pointer per schema attribute, each column indexed by row.
/// Only the slot matching an attribute's kind is ever dereferenced, so
/// mismatched-kind entries may be null, and `categorical` itself may be
/// null for an all-numeric schema.
struct RowColumnsView {
  const double* const* numeric = nullptr;
  const int32_t* const* categorical = nullptr;
};

/// An immutable, cache-friendly compilation of a DecisionTree for batch
/// scoring.
///
/// The training-side DecisionTree is an array of fat TreeNode structs,
/// each dragging a Split (with its own heap-allocated categorical subset)
/// and a heap-allocated class_counts vector through cache on every
/// descent. CompiledTree re-lays the same tree out as structure-of-arrays:
/// three contiguous hot arrays (`int16 attr`, `float threshold`,
/// `int32 left/right`) drive the descent loop, and everything rare —
/// categorical subsets, linear-combination splits, thresholds that do not
/// round-trip through float — lives in small side tables reached through a
/// sentinel in `attr`. Node order is a layout choice (infer/layout.h):
/// depth-first preorder or cache-blocked breadth-first superblocks — the
/// only ordering invariant descent relies on is that children point
/// strictly forward, which FromBlob validates.
///
/// Storage: a CompiledTree is a *view*. All of its arrays live inside one
/// relocatable `.cmpb` blob (io/model_blob.h) which the tree keeps alive
/// through a shared_ptr — whether that blob was packed in memory by
/// Compile(), read in one gulp, or mmap'd straight off disk, the view
/// code is identical and the bytes are identical. Copying a CompiledTree
/// copies pointers and bumps the blob refcount, which is what lets a
/// serving process hand out a model version to in-flight batches and
/// retire the bytes only when the last batch drains.
///
/// Predictions are bit-exact with DecisionTree::Classify: numeric
/// comparisons stay in double (an inline float threshold is only used
/// when widening it back to double reproduces the trained threshold
/// exactly; otherwise the split is routed to the wide side table), and
/// linear-split coefficients are kept in double.
///
/// Per-node encoding, for node i (children interleaved so one indexed
/// load `children[2i + went_right]` replaces a branchy select — descent
/// direction becomes a data dependency, not a branch to mispredict):
///   attr[i] >= 0      numeric split on attribute attr[i]:
///                     value <= (double)threshold[i] routes left
///   attr[i] == kLeaf  leaf: children[2i] is the ClassId, children[2i+1]
///                     the leaf index into the probability table
///   attr[i] == kCat   categorical split: threshold[i] bit-casts to an
///                     index into cat_splits()
///   attr[i] == kLin   linear split a*x + b*y <= c: threshold[i]
///                     bit-casts to an index into lin_splits()
///   attr[i] == kWide  numeric split whose double threshold (or >int16
///                     attribute id) does not fit inline: threshold[i]
///                     bit-casts to an index into wide_splits()
class CompiledTree {
 public:
  static constexpr int16_t kLeaf = -1;
  static constexpr int16_t kCat = -2;
  static constexpr int16_t kLin = -3;
  static constexpr int16_t kWide = -4;

  /// One node's hot fields fused into a single 16-byte record, plus a
  /// parallel int32 attribute array (TreeNodesView::fused_attr), so a
  /// descent step touches one line for the split and one densely-packed
  /// line for the classification — where the blob sections would spread
  /// it over three or four (attr, threshold, children and — for most
  /// real trees — a wide side-table entry). Derived at bind time, never
  /// serialized. Two deliberate resolutions happen here:
  ///   - kWide nodes are folded into plain numeric form: the parallel
  ///     attr holds the side entry's attribute and `threshold` its
  ///     exact double cut, so the (typically dominant) wide population
  ///     costs the kernels nothing extra.
  ///   - inline float thresholds are pre-widened to double — the same
  ///     static_cast the scalar walker performs per visit — so compares
  ///     against `threshold` are byte-identical to the array walk.
  /// kCat/kLin keep their sentinel in the parallel attr and smuggle
  /// their side-table index through the (otherwise unused) threshold
  /// slot as a bit-cast int64. The vector tiers both service lanes and
  /// gather from these arrays; the scalar walkers stay on the blob
  /// sections (they are the reference).
  struct FusedNode {
    double threshold = 0.0;
    int32_t left = 0;
    int32_t right = 0;

    int32_t SideIndex() const {
      return static_cast<int32_t>(std::bit_cast<int64_t>(threshold));
    }
  };

  /// Categorical side entry: attribute plus a [offset, offset+card) slice
  /// of the shared membership-bit pool; bit v set routes value v left.
  struct CatSplit {
    int32_t attr = 0;
    int32_t offset = 0;
    int32_t card = 0;
  };

  /// Linear side entry: a*x + b*y <= c routes left (coefficients in
  /// double to match Split::RoutesLeft bit for bit).
  struct LinSplit {
    int32_t x = 0;
    int32_t y = 0;
    double a = 0.0;
    double b = 0.0;
    double c = 0.0;
  };

  /// Numeric side entry for thresholds float cannot represent.
  /// `reserved` names the bytes the compiler would otherwise insert as
  /// alignment padding: these structs are memcpy'd into the blob, and
  /// unnamed padding has indeterminate content — the same model would
  /// pack to different bytes run to run, breaking the byte-identical
  /// blob contract (PackModelBlob == SaveModelBlob == compile-from-text).
  struct WideSplit {
    int32_t attr = 0;
    int32_t reserved = 0;
    double threshold = 0.0;
  };

  CompiledTree() = default;

  /// Compiles `tree` into the flat layout, packed into an in-memory
  /// `.cmpb` blob (byte-identical to what SaveModelBlob writes for the
  /// same tree). Unreachable nodes are dropped; leaf class counts are
  /// normalized into per-class probabilities (a leaf with no recorded
  /// counts gets probability 1 on its predicted class). An empty input
  /// tree yields an empty() CompiledTree.
  static CompiledTree Compile(const DecisionTree& tree);

  /// Binds a view onto tree `tree_index` of a parsed blob, validating
  /// the section table and every node against the blob's own bounds
  /// (children in range and strictly forward — descent on a hostile
  /// blob cannot loop or index out of bounds; side-table and leaf
  /// indices in range; attribute ids valid for `schema`). On failure
  /// returns false, fills `error`, and leaves `out` empty.
  static bool FromBlob(std::shared_ptr<const ModelBlob> blob,
                       std::shared_ptr<const Schema> schema,
                       uint32_t tree_index, CompiledTree* out,
                       std::string* error);

  bool empty() const { return num_nodes_ == 0; }
  int num_nodes() const { return num_nodes_; }
  int num_leaves() const { return num_leaves_; }
  int32_t num_classes() const { return num_classes_; }
  /// Valid only for a non-empty tree.
  const Schema& schema() const { return *schema_; }
  std::shared_ptr<const Schema> shared_schema() const { return schema_; }
  /// The blob whose memory this view points into (null only for a
  /// default-constructed or empty tree).
  const std::shared_ptr<const ModelBlob>& storage() const { return storage_; }

  /// Index (into the leaf tables) of the leaf record `r` of `ds` lands in.
  int32_t LeafIndexOf(const Dataset& ds, RecordId r) const {
    return Descend(DatasetRow{&ds, r});
  }

  /// Batch descent: fills `out[0 .. end-begin)` with the leaf index of
  /// records [begin, end) of `ds`. Routes through the active vector tier
  /// (LeafIndicesOfColumns) — the dataset already stores columns, so the
  /// adapter is just an array of column pointers.
  void LeafIndicesOf(const Dataset& ds, RecordId begin, RecordId end,
                     int32_t* out) const;

  /// Batch descent over a column-major row block: fills
  /// `out[0 .. end-begin)` with the leaf index rows [begin, end) of
  /// `rows` land in, using the requested kernel tier (`ops` null means
  /// the active tier). Predictions are byte-identical to PredictRow
  /// under every tier; passing `ops` explicitly is for tests and benches
  /// that pin a tier regardless of the global dispatch.
  void LeafIndicesOfColumns(const RowColumnsView& rows, int64_t begin,
                            int64_t end, int32_t* out,
                            const InferKernelOps* ops = nullptr) const;

  /// The pre-SIMD batch path: template gang descent straight off the
  /// Dataset accessors, kept intact as the differential and benchmark
  /// baseline for the vector tiers (this was LeafIndicesOf before they
  /// existed).
  void LeafIndicesOfGang(const Dataset& ds, RecordId begin, RecordId end,
                         int32_t* out) const {
    DescendRange(begin, end, out,
                 [&ds](RecordId r) { return DatasetRow{&ds, r}; });
  }

  /// Same descent over a raw dense row: both arrays are indexed by AttrId
  /// and sized schema().num_attrs(); only the slot matching each
  /// attribute's kind is ever read. `categorical` may be null for an
  /// all-numeric schema.
  int32_t LeafIndexOfRow(const double* numeric,
                         const int32_t* categorical) const {
    return Descend(RawRow{numeric, categorical});
  }

  /// Predicted class for record `r` of `ds`; identical to
  /// DecisionTree::Classify on the source tree.
  ClassId Predict(const Dataset& ds, RecordId r) const {
    return leaf_class(LeafIndexOf(ds, r));
  }

  ClassId PredictRow(const double* numeric, const int32_t* categorical) const {
    return leaf_class(LeafIndexOfRow(numeric, categorical));
  }

  /// Majority class of leaf `leaf_index`.
  ClassId leaf_class(int32_t leaf_index) const {
    return leaf_class_[leaf_index];
  }

  /// `num_classes()` training-frequency probabilities for leaf
  /// `leaf_index`; non-negative, summing to 1.
  const float* leaf_probs(int32_t leaf_index) const {
    return leaf_probs_ +
           static_cast<size_t>(leaf_index) * static_cast<size_t>(num_classes_);
  }

  std::span<const CatSplit> cat_splits() const {
    return {cat_splits_, static_cast<size_t>(num_cat_)};
  }
  std::span<const LinSplit> lin_splits() const {
    return {lin_splits_, static_cast<size_t>(num_lin_)};
  }
  std::span<const WideSplit> wide_splits() const {
    return {wide_splits_, static_cast<size_t>(num_wide_)};
  }

  /// Rows descended in lockstep by the batch path.
  static constexpr int kLanes = 8;

  /// Raw-pointer snapshot of this tree's arrays, the form the per-ISA
  /// batch kernels (infer/infer_kernels.h) traverse. Defined inline
  /// after the class.
  TreeNodesView nodes_view() const;

 private:
  struct DatasetRow {
    const Dataset* ds;
    RecordId r;
    double Numeric(int32_t a) const { return ds->numeric(a, r); }
    int32_t Categorical(int32_t a) const { return ds->categorical(a, r); }
  };
  struct RawRow {
    const double* numeric;
    const int32_t* categorical;
    double Numeric(int32_t a) const { return numeric[a]; }
    int32_t Categorical(int32_t a) const { return categorical[a]; }
  };

  static int32_t SideIndex(float threshold) {
    return std::bit_cast<int32_t>(threshold);
  }

  /// One descent step of lane `id`; leaves hold still, so lanes that
  /// finish early are harmless no-ops until the whole gang is done. The
  /// child select is arithmetic (`2*id + went_right`), never a branch:
  /// only the split-kind dispatch branches, and that is near-perfectly
  /// predicted on trees dominated by one split kind. NaN feature values
  /// fail `<=` and route right, matching Split::RoutesLeft.
  template <typename Row>
  int32_t Step(int32_t id, const Row& row) const {
    const int16_t a = attr_[id];
    double x, t;
    if (a >= 0) {
      x = row.Numeric(a);
      t = static_cast<double>(threshold_[id]);
    } else if (a == kLeaf) {
      return id;
    } else if (a == kWide) {
      const WideSplit& s = wide_splits_[SideIndex(threshold_[id])];
      x = row.Numeric(s.attr);
      t = s.threshold;
    } else if (a == kLin) {
      const LinSplit& s = lin_splits_[SideIndex(threshold_[id])];
      x = s.a * row.Numeric(s.x) + s.b * row.Numeric(s.y);
      t = s.c;
    } else {
      const CatSplit& s = cat_splits_[SideIndex(threshold_[id])];
      const int32_t v = row.Categorical(s.attr);
      const bool in_left = v >= 0 && v < s.card && cat_bits_[s.offset + v];
      return children_[2 * id + static_cast<int32_t>(!in_left)];
    }
    return children_[2 * id + static_cast<int32_t>(!(x <= t))];
  }

  /// Single-row descent, used by Predict and for batch remainders.
  template <typename Row>
  int32_t Descend(const Row& row) const {
    int32_t id = 0;
    while (attr_[id] != kLeaf) id = Step(id, row);
    return children_[2 * id + 1];
  }

  /// Gang descent: kLanes rows walk the tree concurrently. Each lane's
  /// step is a short chain of dependent loads ending in a branchless
  /// select, so the lanes' chains overlap in the memory pipeline instead
  /// of serializing behind one row's cache misses. A lane that reaches a
  /// leaf immediately refills with the next row (no lockstep: short
  /// descents never wait for deep ones), until the range runs dry and the
  /// last in-flight lanes drain scalar.
  template <typename Index, typename RowAt>
  void DescendRange(Index begin, Index end, int32_t* out,
                    const RowAt& row_at) const {
    if (end - begin < static_cast<Index>(kLanes)) {
      for (Index i = begin; i < end; ++i) out[i - begin] = Descend(row_at(i));
      return;
    }
    int32_t ids[kLanes];
    Index rows[kLanes];
    Index next = begin;
    for (int l = 0; l < kLanes; ++l) {
      ids[l] = 0;
      rows[l] = next++;
    }
    bool done_lane[kLanes] = {};
    int retired = 0;  // lanes that found the range dry on refill
    while (retired == 0) {
      for (int l = 0; l < kLanes; ++l) ids[l] = Step(ids[l], row_at(rows[l]));
      for (int l = 0; l < kLanes; ++l) {
        if (attr_[ids[l]] != kLeaf) continue;
        out[rows[l] - begin] = children_[2 * ids[l] + 1];
        if (next < end) {
          ids[l] = 0;
          rows[l] = next++;
        } else {
          done_lane[l] = true;
          ++retired;
        }
      }
    }
    for (int l = 0; l < kLanes; ++l) {
      if (done_lane[l]) continue;
      int32_t id = ids[l];
      while (attr_[id] != kLeaf) id = Step(id, row_at(rows[l]));
      out[rows[l] - begin] = children_[2 * id + 1];
    }
  }

  // Cold identity; the schema is shared with every other tree bound to
  // the same blob.
  std::shared_ptr<const Schema> schema_;
  std::shared_ptr<const ModelBlob> storage_;
  int32_t num_classes_ = 0;
  int32_t num_nodes_ = 0;
  int32_t num_leaves_ = 0;

  // Hot structure-of-arrays node views into the blob (preorder, root at
  // 0). Children are interleaved: children_[2i] left, children_[2i+1]
  // right — for leaves, the class id and the leaf-table index
  // respectively.
  const int16_t* attr_ = nullptr;
  const float* threshold_ = nullptr;
  const int32_t* children_ = nullptr;

  // Cold side-table views.
  const CatSplit* cat_splits_ = nullptr;
  const uint8_t* cat_bits_ = nullptr;
  const LinSplit* lin_splits_ = nullptr;
  const WideSplit* wide_splits_ = nullptr;
  int32_t num_cat_ = 0;
  int64_t num_cat_bits_ = 0;
  int32_t num_lin_ = 0;
  int32_t num_wide_ = 0;

  // Leaf payload views, indexed by leaf index.
  const ClassId* leaf_class_ = nullptr;
  const float* leaf_probs_ = nullptr;  // num_leaves x num_classes, row-major

  // Bind-time fused node records and their parallel attribute array
  // (see FusedNode); shared so tree copies stay cheap. Null only for an
  // empty (default-constructed) tree. fused_attr_slots_ is one past the
  // largest numeric attribute any fused record references — the width a
  // kernel needs for a row-major feature staging buffer.
  std::shared_ptr<const std::vector<FusedNode>> fused_store_;
  std::shared_ptr<const std::vector<int32_t>> fused_attr_store_;
  int32_t fused_attr_slots_ = 0;
};

/// The hot arrays of one CompiledTree as plain pointers. This is what
/// the per-ISA kernels take: a translation unit compiled with -mavx2
/// must never inline CompiledTree methods (they would pick up AVX2
/// codegen and get called from non-AVX2 hosts via the baseline build),
/// so the kernels see only this POD view.
struct TreeNodesView {
  const int16_t* attr = nullptr;
  const float* threshold = nullptr;
  const int32_t* children = nullptr;
  const CompiledTree::CatSplit* cat_splits = nullptr;
  const uint8_t* cat_bits = nullptr;
  const CompiledTree::LinSplit* lin_splits = nullptr;
  const CompiledTree::WideSplit* wide_splits = nullptr;
  const CompiledTree::FusedNode* fused = nullptr;
  const int32_t* fused_attr = nullptr;
  // One past the largest numeric attribute id in `fused_attr`: the row
  // width of a row-major feature staging buffer covering every numeric
  // split in this tree.
  int32_t fused_attr_slots = 0;
};

inline TreeNodesView CompiledTree::nodes_view() const {
  return TreeNodesView{attr_,
                       threshold_,
                       children_,
                       cat_splits_,
                       cat_bits_,
                       lin_splits_,
                       wide_splits_,
                       fused_store_ != nullptr ? fused_store_->data()
                                               : nullptr,
                       fused_attr_store_ != nullptr
                           ? fused_attr_store_->data()
                           : nullptr,
                       fused_attr_slots_};
}

// The blob stores these structs raw; pin their layout so a blob written
// by any build of this library parses in any other.
static_assert(std::is_trivially_copyable_v<CompiledTree::CatSplit> &&
              sizeof(CompiledTree::CatSplit) == 12);
static_assert(std::is_trivially_copyable_v<CompiledTree::LinSplit> &&
              sizeof(CompiledTree::LinSplit) == 32);
static_assert(std::is_trivially_copyable_v<CompiledTree::WideSplit> &&
              sizeof(CompiledTree::WideSplit) == 16);
// Never serialized, but the vector kernels gather the threshold double
// and the {left,right} pair as the record's 8-byte halves, so the
// layout is load-bearing anyway.
static_assert(std::is_trivially_copyable_v<CompiledTree::FusedNode> &&
              sizeof(CompiledTree::FusedNode) == 16);

/// The mutable staging form of one compiled tree: plain vectors filled by
/// the compiler pass, then packed verbatim into blob sections. Exists so
/// the packer (infer/model_io.h) and Compile() share one compilation and
/// one byte layout.
struct CompiledTreeArrays {
  int32_t num_classes = 0;
  std::vector<int16_t> attr;
  std::vector<float> threshold;
  std::vector<int32_t> children;
  std::vector<CompiledTree::CatSplit> cat_splits;
  std::vector<uint8_t> cat_bits;
  std::vector<CompiledTree::LinSplit> lin_splits;
  std::vector<CompiledTree::WideSplit> wide_splits;
  std::vector<ClassId> leaf_class;
  std::vector<float> leaf_probs;
};

/// Flattens `tree` (non-empty) into preorder structure-of-arrays form;
/// the semantics (side tables, float-threshold gating, leaf-prob
/// normalization) are documented on CompiledTree.
CompiledTreeArrays CompileTreeToArrays(const DecisionTree& tree);

}  // namespace cmp

#endif  // CMP_INFER_COMPILED_TREE_H_
