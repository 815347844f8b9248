// bench_predict: rows/sec of the inference paths, the first entry of the
// serving-performance trajectory.
//
// Measures, on an Agrawal-generated test set against a CMP-trained tree:
//   interpreted   DecisionTree::Classify per record (the training-side
//                 pointer-chase the compiled layout replaces)
//   compiled      CompiledTree + BatchPredictor, single thread
//   compiled-mt   BatchPredictor across a ThreadPool (1, 2, 4 threads)
//   descent       raw leaf descent per kernel tier (scalar gang, AVX2)
//   ensemble      BatchPredictor majority-voting 5 cross-val trees,
//                 per kernel tier
//
// Every tier is verified byte-identical to the scalar PredictRow walker
// before it is timed; the bench aborts on the first divergent leaf
// rather than publishing a number for a wrong kernel.
//
// Results go to stdout as a table and to BENCH_predict.json (or argv[1])
// for trend tracking. CMP_BENCH_SCALE scales the scored record count
// (default 0.1 => 100k rows).

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "cmp/cmp.h"
#include "common/cpu_features.h"
#include "common/timer.h"
#include "datagen/agrawal.h"
#include "infer/batch_predictor.h"
#include "infer/compiled_tree.h"
#include "infer/infer_kernels.h"
#include "tree/crossval.h"
#include "tree/evaluate.h"

namespace {

using cmp::BatchPredictor;
using cmp::CompiledTree;
using cmp::Dataset;
using cmp::DecisionTree;
using cmp::InferKernelOps;
using cmp::KernelIsa;
using cmp::PredictOptions;
using cmp::RowColumnsView;

// Runs `fn` (which scores the full dataset once) until at least
// `min_seconds` have elapsed, returning rows scored per second. Takes
// the best of three timing windows: the bench hosts are shared, and a
// co-tenant burst inside one window would otherwise misrank paths whose
// true rates sit within the noise band.
double MeasureRowsPerSec(int64_t rows_per_pass,
                         const std::function<void()>& fn,
                         double min_seconds = 0.3) {
  fn();  // warm-up pass (page in columns, prime caches)
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    int64_t passes = 0;
    cmp::Timer timer;
    do {
      fn();
      ++passes;
    } while (timer.Seconds() < min_seconds);
    best = std::max(
        best, static_cast<double>(rows_per_pass * passes) / timer.Seconds());
  }
  return best;
}

// Column-pointer view over a dataset, one slot per schema attribute.
struct DatasetColumns {
  std::vector<const double*> num;
  std::vector<const int32_t*> cat;
  bool any_cat = false;

  explicit DatasetColumns(const Dataset& ds) {
    const cmp::Schema& schema = ds.schema();
    num.assign(schema.num_attrs(), nullptr);
    cat.assign(schema.num_attrs(), nullptr);
    for (cmp::AttrId a = 0; a < schema.num_attrs(); ++a) {
      if (schema.is_numeric(a)) {
        num[a] = ds.numeric_column(a).data();
      } else {
        cat[a] = ds.categorical_column(a).data();
        any_cat = true;
      }
    }
  }
  RowColumnsView view() const {
    return RowColumnsView{num.data(), any_cat ? cat.data() : nullptr};
  }
};

std::vector<std::pair<std::string, const InferKernelOps*>> RunnableTiers() {
  std::vector<std::pair<std::string, const InferKernelOps*>> tiers;
  tiers.emplace_back("scalar", &cmp::InferKernelOpsFor(KernelIsa::kScalar));
  if (cmp::KernelIsaSupported(KernelIsa::kAvx2)) {
    if (const InferKernelOps* ops = cmp::Avx2InferKernelOpsOrNull()) {
      tiers.emplace_back("avx2", ops);
    }
  }
  return tiers;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_predict.json";
  const int64_t train_n = std::max<int64_t>(
      static_cast<int64_t>(1000000 * cmp::bench::Scale()), 20000);
  const int64_t score_n = std::max<int64_t>(
      static_cast<int64_t>(1000000 * cmp::bench::Scale()), 20000);

  // Function 7 with perturbation noise and no pruning gives a
  // serving-scale tree (tens of thousands of nodes at the default scale)
  // rather than the paper's pocket-sized pruned trees; that is the regime
  // a batch scorer exists for, and the one where the interpreted tree's
  // fat nodes fall out of cache.
  cmp::AgrawalOptions gen;
  gen.function = cmp::AgrawalFunction::kF7;
  gen.perturbation = 0.3;
  gen.num_records = train_n;
  gen.seed = 7;
  const Dataset train = cmp::GenerateAgrawal(gen);
  gen.num_records = score_n;
  gen.seed = 8;
  const Dataset test = cmp::GenerateAgrawal(gen);

  cmp::CmpOptions tree_opts = cmp::CmpFullOptions();
  tree_opts.base.prune = false;
  cmp::CmpBuilder builder(tree_opts);
  DecisionTree tree = builder.Build(train).tree;
  const CompiledTree compiled = CompiledTree::Compile(tree);
  std::cout << "tree: " << tree.num_nodes() << " nodes ("
            << compiled.num_leaves() << " leaves), scoring " << score_n
            << " records, accuracy "
            << cmp::Evaluate(tree, test).Accuracy() << "\n\n";

  volatile int64_t sink = 0;  // defeats dead-code elimination
  const double interpreted = MeasureRowsPerSec(score_n, [&] {
    int64_t acc = 0;
    for (cmp::RecordId r = 0; r < test.num_records(); ++r) {
      acc += tree.Classify(test, r);
    }
    sink = sink + acc;
  });

  std::vector<std::pair<int, double>> threaded;  // (threads, rows/sec)
  for (const int threads : {1, 2, 4}) {
    PredictOptions opts;
    opts.num_threads = threads;
    const BatchPredictor predictor(&compiled, opts);
    cmp::ThreadPool pool(threads);
    threaded.emplace_back(threads, MeasureRowsPerSec(score_n, [&] {
      sink = sink + predictor.Predict(test, &pool).labels.back();
    }));
  }
  const double compiled_st = threaded.front().second;
  const double compiled_mt =
      std::max_element(threaded.begin(), threaded.end(),
                       [](const auto& a, const auto& b) {
                         return a.second < b.second;
                       })
          ->second;

  // ---- Raw descent per kernel tier -----------------------------------
  // Times LeafIndicesOfColumns alone (no vote/probs bookkeeping) so the
  // numbers isolate the traversal kernels the tiers differ in. The
  // scalar walker's leaves are the reference every tier must reproduce
  // exactly.
  const DatasetColumns cols(test);
  const auto tiers = RunnableTiers();

  std::vector<int32_t> reference(test.num_records());
  {
    std::vector<double> raw_n;
    std::vector<int32_t> raw_c;
    const cmp::Schema& schema = test.schema();
    raw_n.assign(schema.num_attrs(), 0.0);
    raw_c.assign(schema.num_attrs(), 0);
    for (cmp::RecordId r = 0; r < test.num_records(); ++r) {
      for (cmp::AttrId a = 0; a < schema.num_attrs(); ++a) {
        if (schema.is_numeric(a)) {
          raw_n[a] = test.numeric(a, r);
        } else {
          raw_c[a] = test.categorical(a, r);
        }
      }
      reference[r] = compiled.LeafIndexOfRow(raw_n.data(), raw_c.data());
    }
  }

  std::vector<int32_t> leaves(test.num_records());
  std::vector<std::pair<std::string, double>> descent;  // (tier, rows/sec)
  for (const auto& [tier, ops] : tiers) {
    std::fill(leaves.begin(), leaves.end(), -1);
    compiled.LeafIndicesOfColumns(cols.view(), 0, test.num_records(),
                                  leaves.data(), ops);
    if (leaves != reference) {
      std::cerr << "DIVERGENCE: tier " << tier << "\n";
      return 1;
    }
    descent.emplace_back(tier, MeasureRowsPerSec(score_n, [&] {
                           compiled.LeafIndicesOfColumns(
                               cols.view(), 0, test.num_records(),
                               leaves.data(), ops);
                           sink = sink + leaves.back();
                         }));
  }

  cmp::CmpBuilder fold_builder(cmp::CmpFullOptions());
  const cmp::CrossValResult cv =
      cmp::CrossValidate(&fold_builder, train, 5, 1, /*keep_trees=*/true);
  std::vector<CompiledTree> folds;
  for (const DecisionTree& t : cv.trees) {
    folds.push_back(CompiledTree::Compile(t));
  }
  const BatchPredictor ensemble(std::move(folds), cmp::VoteKind::kMajority);
  const double ensemble_rps = MeasureRowsPerSec(score_n, [&] {
    sink = sink + ensemble.Predict(test).labels.back();
  });

  // Ensemble per tier: same predictor, kernel pinned per run. Labels
  // must agree with the scalar tier's labels exactly.
  const KernelIsa isa_before = cmp::ActiveKernelIsa();
  std::vector<std::pair<std::string, double>> ensemble_tiers;
  std::vector<cmp::ClassId> ensemble_reference;
  for (const KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
    if (!cmp::SetKernelIsa(isa)) continue;
    const cmp::BatchResult once = ensemble.Predict(test);
    if (ensemble_reference.empty()) {
      ensemble_reference = once.labels;
    } else if (once.labels != ensemble_reference) {
      std::cerr << "DIVERGENCE: ensemble tier "
                << cmp::KernelIsaName(isa) << "\n";
      return 1;
    }
    ensemble_tiers.emplace_back(
        cmp::KernelIsaName(isa), MeasureRowsPerSec(score_n, [&] {
          sink = sink + ensemble.Predict(test).labels.back();
        }));
  }
  cmp::SetKernelIsa(isa_before);

  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "config            rows/sec\n";
  std::cout << "interpreted       " << static_cast<int64_t>(interpreted)
            << "\n";
  for (const auto& [threads, rps] : threaded) {
    std::cout << "compiled x" << threads << "       "
              << static_cast<int64_t>(rps) << "\n";
  }
  for (const auto& [name, rps] : descent) {
    std::cout << "descent " << name << std::string(
                     name.size() < 18 ? 18 - name.size() : 1, ' ')
              << static_cast<int64_t>(rps) << "\n";
  }
  std::cout << "ensemble(5) x1    " << static_cast<int64_t>(ensemble_rps)
            << "\n";
  for (const auto& [name, rps] : ensemble_tiers) {
    std::cout << "ensemble(5) " << name << std::string(
                     name.size() < 14 ? 14 - name.size() : 1, ' ')
              << static_cast<int64_t>(rps) << "\n";
  }
  std::cout << "\npredictions byte-identical across tiers: yes\n";
  std::cout << "compiled/interpreted speedup: " << compiled_st / interpreted
            << "\n";
  std::cout << "multithread scaling (best/x1): " << compiled_mt / compiled_st
            << " on " << hw << " hardware thread(s)\n";

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"predict\",\n"
       << "  \"rows\": " << score_n << ",\n"
       << "  \"tree_nodes\": " << tree.num_nodes() << ",\n"
       << "  \"hardware_threads\": " << hw << ",\n"
       << "  \"kernel_isa\": \"" << cmp::KernelIsaName(cmp::ActiveKernelIsa())
       << "\",\n"
       << "  \"verified_byte_identical\": true,\n"
       << "  \"interpreted_rows_per_sec\": " << interpreted << ",\n"
       << "  \"compiled_rows_per_sec\": " << compiled_st << ",\n";
  for (const auto& [threads, rps] : threaded) {
    json << "  \"compiled_mt" << threads << "_rows_per_sec\": " << rps
         << ",\n";
  }
  for (const auto& [name, rps] : descent) {
    json << "  \"descent_" << name << "_rows_per_sec\": " << rps << ",\n";
  }
  json << "  \"ensemble5_rows_per_sec\": " << ensemble_rps << ",\n";
  for (const auto& [name, rps] : ensemble_tiers) {
    json << "  \"ensemble5_" << name << "_rows_per_sec\": " << rps << ",\n";
  }
  json << "  \"compiled_speedup\": " << compiled_st / interpreted << ",\n"
       << "  \"mt_scaling\": " << compiled_mt / compiled_st << "\n"
       << "}\n";
  std::cout << "wrote " << json_path << "\n";
  return 0;
}
