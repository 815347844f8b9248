#ifndef CMP_TREE_BUILDER_H_
#define CMP_TREE_BUILDER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/stats.h"
#include "tree/tree.h"

namespace cmp {

class TrainObserver;  // tree/observer.h

/// Options shared by every tree builder in the library so comparison
/// benchmarks (Figures 16-19) drive all algorithms identically.
struct BuilderOptions {
  /// Stop splitting when a node has fewer records than this.
  int64_t min_split_records = 2;
  /// Hard cap on tree depth (safety valve; the paper's trees are shallow
  /// compared to this).
  int max_depth = 60;
  /// Nodes whose partition has at most this many records are finished by
  /// an exact in-memory builder instead of further scans (the standard
  /// "fits in memory" switch; RainForest's RF-Hybrid does this
  /// explicitly). 0 disables the switch.
  int64_t in_memory_threshold = 4096;
  /// Enable PUBLIC(1)-style MDL pruning during and after construction.
  bool prune = true;
  /// Worker threads for builders that parallelize construction (CMP,
  /// Exact, SLIQ, SPRINT, RainForest); 1 builds on the calling thread, 0
  /// means std::thread::hardware_concurrency. The built tree is
  /// bit-identical for every value of this knob (see DESIGN.md, "Parallel
  /// training").
  int num_threads = 1;
  /// Optional training observability hook (per-pass timings, scan bytes,
  /// frontier sizes; see tree/observer.h). Borrowed, may be null; the
  /// built tree is identical with or without an observer.
  TrainObserver* observer = nullptr;
};

/// Result of building a tree: the classifier plus the cost counters used
/// to reproduce the paper's figures.
struct BuildResult {
  DecisionTree tree;
  BuildStats stats;
  /// Meta-builders that produce an additive ensemble (the "boost"
  /// registry entry) fill this with every member tree, in round order;
  /// `tree` is then the first member (a usable standalone classifier).
  /// Single-tree builders leave it empty.
  std::vector<DecisionTree> forest;
};

/// Common interface of SPRINT, CLOUDS, RainForest and the CMP family.
class TreeBuilder {
 public:
  virtual ~TreeBuilder() = default;

  /// Builds a decision tree for `train`. Implementations never mutate the
  /// dataset.
  virtual BuildResult Build(const Dataset& train) = 0;

  /// Short algorithm name for benchmark tables ("SPRINT", "CMP-B", ...).
  virtual std::string name() const = 0;
};

// ---------------------------------------------------------------------
// Builder registry: one factory for every algorithm in the library, so
// tools, cross-validation, tests and benches dispatch by name instead of
// each hand-rolling its own if-chain. Implemented in tree/registry.cc
// (CMake target cmp_registry, which links every algorithm library).

/// Knobs of the "boost" meta-builder (src/boost/boost.h documents the
/// algorithm); ignored by every other factory.
struct BoostConfig {
  /// Maximum boosting rounds (= trees in the ensemble).
  int rounds = 50;
  /// Learning rate applied to every leaf value.
  double shrinkage = 0.1;
  /// Depth cap of each weak CMP-B tree.
  int weak_depth = 6;
  /// Fraction of the training set (taken deterministically from the
  /// tail) held out for early stopping; 0 disables early stopping.
  double holdout = 0.2;
  /// Rounds without holdout-loss improvement before stopping.
  int patience = 5;
};

/// Configuration handed to registry factories. `base` is forwarded to
/// every builder; `intervals` parameterizes the histogram/grid-based
/// ones (CMP family, CLOUDS) and is ignored by the rest; `boost` only
/// reaches the "boost" meta-builder.
struct BuilderConfig {
  BuilderOptions base;
  int intervals = 100;
  BoostConfig boost;
};

using TreeBuilderFactory =
    std::function<std::unique_ptr<TreeBuilder>(const BuilderConfig&)>;

/// Registers `factory` under `name` (lowercase, e.g. "cmp-b"). The
/// library's own algorithms are pre-registered; call this to add
/// external builders to the same dispatch surface. Re-registering a name
/// replaces the previous factory.
void RegisterTreeBuilder(const std::string& name, TreeBuilderFactory factory);

/// Constructs the builder registered under `name`, or null when the name
/// is unknown (callers render RegisteredTreeBuilders() in their error).
std::unique_ptr<TreeBuilder> MakeTreeBuilder(const std::string& name,
                                             const BuilderConfig& config = {});

/// All registered names, sorted ascending.
std::vector<std::string> RegisteredTreeBuilders();

}  // namespace cmp

#endif  // CMP_TREE_BUILDER_H_
