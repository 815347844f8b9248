#include "boost/boost.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "cmp/cmp.h"
#include "tree/observer.h"

namespace cmp {

namespace {

double Sigmoid(double v) { return 1.0 / (1.0 + std::exp(-v)); }

// Deterministic largest-remainder apportionment of `m` resample slots
// proportionally to `w` (all non-negative). Returns per-index repeat
// counts summing to exactly `m`, or an empty vector when the weights sum
// to zero. Fractional-part ties (and the defensive over-floor path) break
// toward the lower index, so the resample is a pure function of the
// weights — no RNG, same result on every host and thread count.
std::vector<int64_t> ApportionCounts(const std::vector<double>& w, int64_t m) {
  double total = 0.0;
  for (double v : w) total += v;
  if (!(total > 0.0)) return {};
  const size_t n = w.size();
  std::vector<int64_t> counts(n, 0);
  std::vector<std::pair<double, int64_t>> frac(n);
  int64_t used = 0;
  for (size_t i = 0; i < n; ++i) {
    const double exact = w[i] / total * static_cast<double>(m);
    const int64_t base = static_cast<int64_t>(std::floor(exact));
    counts[i] = base;
    used += base;
    frac[i] = {exact - static_cast<double>(base), static_cast<int64_t>(i)};
  }
  std::sort(frac.begin(), frac.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  int64_t extra = m - used;
  for (size_t k = 0; extra > 0 && k < n; ++k, --extra) {
    counts[frac[k].second]++;
  }
  // Floating-point round-up can (in principle) make the floors overshoot;
  // give slots back starting from the smallest fractional parts.
  for (size_t k = n; extra < 0 && k-- > 0;) {
    if (counts[frac[k].second] > 0) {
      counts[frac[k].second]--;
      ++extra;
    }
  }
  return counts;
}

// Sums the per-pass timing fields of each weak build so boost can report
// one PassObservation per round through the caller's observer.
class WeakPassCollector : public TrainObserver {
 public:
  void OnPass(const PassObservation& pass) override {
    scan_seconds += pass.scan_seconds;
    plan_seconds += pass.plan_seconds;
    line_search_seconds += pass.line_search_seconds;
    line_refine_seconds += pass.line_refine_seconds;
    lines_evaluated += pass.lines_evaluated;
    lines_skipped += pass.lines_skipped;
    finish_seconds += pass.finish_seconds;
    route_seconds += pass.route_seconds;
    kernel_seconds += pass.kernel_seconds;
    records_routed += pass.records_routed;
    bytes_read += pass.bytes_read;
    code_cache_bytes = std::max(code_cache_bytes, pass.code_cache_bytes);
  }

  double scan_seconds = 0.0;
  double plan_seconds = 0.0;
  double line_search_seconds = 0.0;
  double line_refine_seconds = 0.0;
  int64_t lines_evaluated = 0;
  int64_t lines_skipped = 0;
  double finish_seconds = 0.0;
  double route_seconds = 0.0;
  double kernel_seconds = 0.0;
  int64_t records_routed = 0;
  int64_t bytes_read = 0;
  int64_t code_cache_bytes = 0;
};

int64_t EncodeLeafCount(double v) {
  const double r = BoostBuilder::kLeafValueRange;
  const double clamped = std::clamp(v, -r, r);
  const double s = static_cast<double>(BoostBuilder::kLeafValueScale);
  const int64_t c = std::llround((clamped + r) / (2.0 * r) * s);
  return std::clamp<int64_t>(c, 0, BoostBuilder::kLeafValueScale);
}

}  // namespace

double BoostBuilder::DecodeLeafValue(int64_t count0, int64_t count1) {
  const double total = static_cast<double>(count0 + count1);
  if (!(total > 0.0)) return 0.0;
  const double frac = static_cast<double>(count1) / total;
  return (frac * 2.0 - 1.0) * kLeafValueRange;
}

BuildResult BoostBuilder::Build(const Dataset& train) {
  const auto wall_start = std::chrono::steady_clock::now();
  if (train.num_classes() != 2) {
    throw std::invalid_argument(
        "boost requires a binary problem (got " +
        std::to_string(train.num_classes()) + " classes)");
  }
  const int64_t n = train.num_records();
  if (n < 2) {
    throw std::invalid_argument("boost requires at least 2 records");
  }
  TrainObserver* observer = options_.base.observer;
  if (observer != nullptr) observer->OnBuildStart(name(), n);

  const double holdout_frac = std::clamp(options_.boost.holdout, 0.0, 0.9);
  int64_t holdout_n =
      static_cast<int64_t>(static_cast<double>(n) * holdout_frac);
  if (n - holdout_n < 1) holdout_n = n - 1;
  const int64_t train_n = n - holdout_n;

  // Additive score per record, over the WHOLE input: training records
  // drive the residuals, holdout records only the early-stop loss.
  std::vector<double> y(n);
  for (RecordId r = 0; r < n; ++r) y[r] = train.label(r) == 1 ? 1.0 : 0.0;
  int64_t pos = 0;
  for (RecordId r = 0; r < train_n; ++r) pos += train.label(r) == 1 ? 1 : 0;
  // Smoothed base rate keeps F0 finite on one-class training sets.
  const double p1 = (static_cast<double>(pos) + 0.5) /
                    (static_cast<double>(train_n) + 1.0);
  const double f0 = std::log(p1 / (1.0 - p1));
  std::vector<double> f(n, f0);

  BuildResult result;
  BuildStats& agg = result.stats;
  std::vector<double> weights(train_n);
  std::vector<RecordId> sample;
  double best_loss = std::numeric_limits<double>::infinity();
  int best_round = -1;
  int since_best = 0;
  const int rounds = std::max(1, options_.boost.rounds);

  for (int round = 0; round < rounds; ++round) {
    // 1. Residual weights on the training portion.
    for (RecordId r = 0; r < train_n; ++r) {
      weights[r] = std::abs(y[r] - Sigmoid(f[r]));
    }
    const std::vector<int64_t> counts = ApportionCounts(weights, train_n);
    if (counts.empty()) break;  // fully saturated fit: nothing left to learn
    sample.clear();
    sample.reserve(train_n);
    for (RecordId r = 0; r < train_n; ++r) {
      for (int64_t k = 0; k < counts[r]; ++k) sample.push_back(r);
    }

    // 2. Weak learner: depth-capped, unpruned CMP-B on the resample.
    CmpOptions weak_options = CmpBOptions();
    weak_options.base = options_.base;
    weak_options.base.max_depth = options_.boost.weak_depth;
    weak_options.base.prune = false;
    WeakPassCollector weak_passes;
    weak_options.base.observer = &weak_passes;
    weak_options.intervals = options_.intervals;
    BuildResult weak = CmpBuilder(weak_options).Build(train.Subset(sample));

    // 3. Newton leaf values from the UNWEIGHTED training records.
    std::vector<double> numer(weak.tree.num_nodes(), 0.0);
    std::vector<double> denom(weak.tree.num_nodes(), 0.0);
    std::vector<NodeId> leaf_of(n);
    for (RecordId r = 0; r < n; ++r) {
      leaf_of[r] = weak.tree.LeafOf(train, r);
      if (r < train_n) {
        const double p = Sigmoid(f[r]);
        numer[leaf_of[r]] += y[r] - p;
        denom[leaf_of[r]] += p * (1.0 - p);
      }
    }
    std::vector<double> update(weak.tree.num_nodes(), 0.0);
    for (NodeId id = 0; id < weak.tree.num_nodes(); ++id) {
      if (!weak.tree.node(id).is_leaf) continue;
      const double gamma =
          denom[id] > 1e-12 ? std::clamp(numer[id] / denom[id], -4.0, 4.0)
                            : 0.0;
      update[id] = options_.boost.shrinkage * gamma;
    }
    for (RecordId r = 0; r < n; ++r) f[r] += update[leaf_of[r]];

    // 4. Store the stage: leaf values (plus F0 in round 0) encoded as
    // pseudo class counts; round 0 keeps the weak learner's majority
    // classes so result.tree stands alone as a classifier.
    DecisionTree stage = std::move(weak.tree);
    for (NodeId id = 0; id < stage.num_nodes(); ++id) {
      TreeNode& node = stage.mutable_node(id);
      if (!node.is_leaf) continue;
      const int64_t c1 =
          EncodeLeafCount(update[id] + (round == 0 ? f0 : 0.0));
      node.class_counts = {kLeafValueScale - c1, c1};
      if (round > 0) node.leaf_class = 2 * c1 >= kLeafValueScale ? 1 : 0;
    }
    result.forest.push_back(std::move(stage));

    // Aggregate cost counters and report the round as one pass.
    agg.dataset_scans += weak.stats.dataset_scans;
    agg.records_read += weak.stats.records_read;
    agg.bytes_read += weak.stats.bytes_read;
    agg.bytes_written += weak.stats.bytes_written;
    agg.buffered_records += weak.stats.buffered_records;
    agg.sort_comparisons += weak.stats.sort_comparisons;
    agg.peak_memory_bytes =
        std::max(agg.peak_memory_bytes, weak.stats.peak_memory_bytes);
    agg.tree_nodes += result.forest.back().num_nodes();
    agg.tree_depth =
        std::max<int64_t>(agg.tree_depth, result.forest.back().Depth());
    if (observer != nullptr) {
      PassObservation pass;
      pass.pass = round;
      pass.scan_seconds = weak_passes.scan_seconds;
      pass.plan_seconds = weak_passes.plan_seconds;
      pass.line_search_seconds = weak_passes.line_search_seconds;
      pass.line_refine_seconds = weak_passes.line_refine_seconds;
      pass.lines_evaluated = weak_passes.lines_evaluated;
      pass.lines_skipped = weak_passes.lines_skipped;
      pass.finish_seconds = weak_passes.finish_seconds;
      pass.route_seconds = weak_passes.route_seconds;
      pass.kernel_seconds = weak_passes.kernel_seconds;
      pass.records_routed = weak_passes.records_routed;
      pass.bytes_read = weak_passes.bytes_read;
      pass.code_cache_bytes = weak_passes.code_cache_bytes;
      pass.records_scanned = train_n;
      pass.tree_nodes = agg.tree_nodes;
      observer->OnPass(pass);
    }

    // 5. Deterministic early stopping on holdout log-loss.
    if (holdout_n > 0) {
      double loss = 0.0;
      for (RecordId r = train_n; r < n; ++r) {
        const double p =
            std::clamp(Sigmoid(f[r]), 1e-12, 1.0 - 1e-12);
        loss -= y[r] > 0.5 ? std::log(p) : std::log(1.0 - p);
      }
      if (loss < best_loss - 1e-12) {
        best_loss = loss;
        best_round = round;
        since_best = 0;
      } else if (++since_best >= std::max(1, options_.boost.patience)) {
        break;
      }
    }
  }

  if (result.forest.empty()) {
    // Unreachable in practice (round-0 weights are strictly positive),
    // but a structurally valid single-leaf model beats a crash.
    DecisionTree leaf_tree(train.schema());
    TreeNode leaf;
    leaf.leaf_class = p1 >= 0.5 ? 1 : 0;
    const int64_t c1 = EncodeLeafCount(f0);
    leaf.class_counts = {kLeafValueScale - c1, c1};
    leaf_tree.AddNode(std::move(leaf));
    result.forest.push_back(std::move(leaf_tree));
    best_round = 0;
  }
  if (holdout_n > 0 && best_round >= 0) {
    result.forest.resize(static_cast<size_t>(best_round) + 1);
  }
  result.tree = result.forest.front();

  agg.tree_nodes = 0;
  agg.tree_depth = 0;
  for (const DecisionTree& t : result.forest) {
    agg.tree_nodes += t.num_nodes();
    agg.tree_depth = std::max<int64_t>(agg.tree_depth, t.Depth());
  }
  agg.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - wall_start)
                         .count();
  if (observer != nullptr) observer->OnBuildEnd(agg);
  return result;
}

}  // namespace cmp
