#ifndef CMP_BOOST_BOOST_H_
#define CMP_BOOST_BOOST_H_

#include <cstdint>
#include <string>

#include "tree/builder.h"

namespace cmp {

/// Options of the gradient-boosted CMP meta-builder.
struct BoostOptions {
  BuilderOptions base;
  /// Interval budget of each weak CMP-B build.
  int intervals = 100;
  /// Boosting knobs (same defaults as BoostConfig in tree/builder.h).
  BoostConfig boost;
};

/// Gradient-boosted CMP trees for BINARY problems (two classes; any
/// other class count throws std::invalid_argument from Build, which
/// cmptool maps to its training-failure exit code).
///
/// Each round fits a depth-capped, unpruned CMP-B tree as the weak
/// learner and turns it into one stage of an additive logistic model
/// F(x) = sum of leaf values:
///
///  1. p_i = sigmoid(F(x_i)); residual r_i = y_i - p_i.
///  2. The weak tree is trained on a |r_i|-weighted resample of the
///     training records (deterministic largest-remainder apportionment,
///     ties to the lower record id — no RNG anywhere, so the whole
///     build inherits CMP's bit-identical-across-threads contract).
///  3. Each leaf gets the Newton step gamma = sum(r_i) / sum(p_i(1-p_i))
///     over the training records reaching it, clipped to +-4, times the
///     shrinkage. The intercept F0 = log-odds of the training base rate
///     is folded into the first round's leaf values.
///  4. A deterministic tail holdout (the LAST holdout fraction of the
///     input, never resampled into training) tracks log-loss; after
///     `patience` rounds without improvement the build stops and the
///     ensemble is truncated to the best round.
///
/// Member trees are ordinary DecisionTrees: each leaf's value v is
/// encoded in its class_counts as {S - c, c} with
/// c = round((v + R) / 2R * S), so the per-tree probability of class 1
/// is an affine function of v and BatchPredictor's kAverageProb vote
/// (infer/batch_predictor.h) reproduces sign(sum v) — scoring a saved boost
/// forest needs no new inference code, and the .cmpb / cmpserve path
/// works unchanged. The first tree keeps the weak learner's majority
/// leaf classes, so BuildResult::tree classifies sensibly on its own.
class BoostBuilder : public TreeBuilder {
 public:
  /// Leaf-value encoding constants (R and S above). R bounds |v|: the
  /// Newton step is clipped to 4 and |F0| <= log(2n+1), so values are
  /// clamped into +-R before quantization; S fixes the quantization at
  /// 2R / S ~ 2e-6 per tree.
  static constexpr double kLeafValueRange = 16.0;
  static constexpr int64_t kLeafValueScale = int64_t{1} << 24;

  explicit BoostBuilder(BoostOptions options = {}) : options_(options) {}

  BuildResult Build(const Dataset& train) override;

  std::string name() const override { return "Boost"; }

  /// Decodes a leaf's class_counts back to its additive value (inverse
  /// of the encoding above; exposed for tests).
  static double DecodeLeafValue(int64_t count0, int64_t count1);

 private:
  BoostOptions options_;
};

}  // namespace cmp

#endif  // CMP_BOOST_BOOST_H_
