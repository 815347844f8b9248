#include "infer/batch_predictor.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

namespace cmp {

BatchPredictor::BatchPredictor(const CompiledTree* tree, PredictOptions opts,
                               ThreadPool* pool)
    : BatchPredictor(std::vector<CompiledTree>{*tree}, VoteKind::kMajority,
                     opts, pool) {}

BatchPredictor::BatchPredictor(std::vector<CompiledTree> trees, VoteKind vote,
                               PredictOptions opts, ThreadPool* pool)
    : trees_(std::move(trees)), vote_(vote), opts_(opts), pool_(pool) {
  assert(!trees_.empty());
  for (const CompiledTree& t : trees_) {
    assert(!t.empty() && t.num_classes() == trees_.front().num_classes());
    (void)t;
  }
  if (opts_.block_size <= 0) opts_.block_size = 2048;
  opts_.top_k = std::clamp(opts_.top_k, 1, num_classes());
  if (pool_ == nullptr) {
    owned_ = std::make_unique<ThreadPool>(opts_.num_threads);
    pool_ = owned_.get();
  }
}

// Scoring is tree-interleaved: every tree batch-descends the whole row
// block (through the vector kernel tiers) before any row is combined, so
// the block's columns pass through cache once per tree rather than once
// per row x tree. The leaf indices land in one trees x block scratch
// matrix that the combine loop reads column-wise.
BatchResult BatchPredictor::Run(const RowColumnsView& view, int64_t n,
                                ThreadPool* pool) const {
  BatchResult out;
  const int32_t nc = num_classes();
  const int k = opts_.top_k;
  const bool abstain = opts_.abstain_threshold > 0.0;
  // Per-class scores are only worth filling when something reads them.
  const bool want_scores = opts_.want_probs || k > 1 || abstain;
  const int num_trees = this->num_trees();
  const double inv = 1.0 / static_cast<double>(num_trees);
  out.labels.assign(static_cast<size_t>(n), kInvalidClass);
  if (opts_.want_probs) {
    out.probs.assign(static_cast<size_t>(n) * static_cast<size_t>(nc), 0.0f);
  }
  if (k > 1) {
    out.topk.assign(static_cast<size_t>(n) * static_cast<size_t>(k),
                    kInvalidClass);
  }

  // Each block writes disjoint ranges of the pre-sized outputs, so the
  // workers need no synchronization beyond ParallelFor's completion.
  // Scratch is leased, not allocated: steady-state blocks reuse warm
  // buffers from the predictor's pool.
  auto score_block = [&](int64_t begin, int64_t end) {
    ScratchLease lease(&scratch_);
    PredictScratch& s = *lease;
    const size_t bn = static_cast<size_t>(end - begin);
    s.leaves.resize(num_trees * bn);
    for (int t = 0; t < num_trees; ++t) {
      trees_[t].LeafIndicesOfColumns(view, begin, end,
                                     s.leaves.data() + t * bn);
    }
    std::vector<double>& acc = s.acc;
    acc.resize(static_cast<size_t>(nc));
    std::vector<ClassId>& order = s.order;
    if (k > 1) order.resize(static_cast<size_t>(nc));
    for (int64_t i = begin; i < end; ++i) {
      const int32_t* leaves = s.leaves.data() + (i - begin);  // stride bn
      ClassId label = 0;
      if (num_trees == 1) {
        // A lone tree answers with its leaf's class and probabilities,
        // never a vote: a leaf loaded from text need not predict the
        // argmax of its counts, and a majority vote would flatten the
        // probabilities to one-hot.
        label = trees_[0].leaf_class(leaves[0]);
        if (!want_scores) {
          out.labels[i] = label;
          continue;
        }
        const float* p = trees_[0].leaf_probs(leaves[0]);
        std::copy(p, p + nc, acc.begin());
      } else {
        std::fill(acc.begin(), acc.end(), 0.0);
        for (int t = 0; t < num_trees; ++t) {
          const int32_t leaf = leaves[t * bn];
          if (vote_ == VoteKind::kMajority) {
            acc[trees_[t].leaf_class(leaf)] += 1.0;
          } else {
            const float* p = trees_[t].leaf_probs(leaf);
            for (int32_t c = 0; c < nc; ++c) acc[c] += p[c];
          }
        }
        for (ClassId c = 1; c < nc; ++c) {
          if (acc[c] > acc[label]) label = c;
        }
      }
      if (opts_.want_probs) {
        for (int32_t c = 0; c < nc; ++c) {
          out.probs[static_cast<size_t>(i) * nc + c] =
              static_cast<float>(acc[c] * inv);
        }
      }
      if (k > 1) {
        std::iota(order.begin(), order.end(), 0);
        std::sort(order.begin(), order.end(), [&](ClassId a, ClassId b) {
          return acc[a] != acc[b] ? acc[a] > acc[b] : a < b;
        });
        std::copy(order.begin(), order.begin() + k,
                  out.topk.begin() + static_cast<size_t>(i) * k);
      }
      out.labels[i] =
          abstain && acc[label] * inv < opts_.abstain_threshold
              ? kInvalidClass
              : label;
    }
  };

  ThreadPool* p = pool != nullptr ? pool : pool_;
  p->ParallelFor(n, opts_.block_size, score_block);
  if (abstain) {
    out.num_abstained = std::count(out.labels.begin(), out.labels.end(),
                                   kInvalidClass);
  }
  return out;
}

BatchResult BatchPredictor::Predict(const Dataset& ds, ThreadPool* pool) const {
  // The dataset is already columnar: build the per-attribute pointer
  // view once for the whole call, indexed by absolute record id.
  const Schema& schema = trees_.front().schema();
  const int32_t na = schema.num_attrs();
  std::vector<const double*> num(na, nullptr);
  std::vector<const int32_t*> cat(na, nullptr);
  bool any_cat = false;
  for (int32_t a = 0; a < na; ++a) {
    if (schema.is_numeric(a)) {
      num[a] = ds.numeric_column(a).data();
    } else {
      cat[a] = ds.categorical_column(a).data();
      any_cat = true;
    }
  }
  return Run({num.data(), any_cat ? cat.data() : nullptr},
             ds.num_records(), pool);
}

BatchResult BatchPredictor::PredictColumns(
    const double* const* numeric_cols, const int32_t* const* categorical_cols,
    int64_t n) const {
  return Run({numeric_cols, categorical_cols}, n, nullptr);
}

}  // namespace cmp
