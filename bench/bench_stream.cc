// bench_stream: the streaming sketch trainer and incremental refit vs
// the batch CMP path, on a non-stationary (concept-drifting) stream.
//
// The workload is the drifting Agrawal generator: the first half of the
// stream is labeled by F2, the second half by F7 (covariates never
// change). Four models are measured:
//
//   batch_stream   CMP trained out-of-core over the first half
//   cmp_stream     the sketch-grid streaming trainer on the same half
//   refit          cmp_stream's tree extended with the second half via
//                  the sketch sidecar (no access to the first half)
//   full_retrain   cmp_stream trained from scratch on both halves
//
// Reported: training rows/sec and peak resident bytes for the two
// first-half builds (the sketch path must be sublinear), refit wall
// time vs the full retrain, and holdout accuracy on the post-drift
// concept for the prefix model / refit model / full retrain. The
// cmp-stream build is verified byte-identical across two runs before
// anything is reported.
//
// Results go to stdout as a table and to BENCH_stream.json (or
// argv[1]). CMP_BENCH_SCALE scales the record count (default 0.1 =>
// 100k rows).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cmp/cmp.h"
#include "common/timer.h"
#include "datagen/agrawal.h"
#include "datagen/drift.h"
#include "io/block_source.h"
#include "io/sketch_sidecar.h"
#include "io/table_file.h"
#include "stream/refit.h"
#include "stream/stream_train.h"
#include "tree/evaluate.h"
#include "tree/serialize.h"

namespace {

double Accuracy(const cmp::DecisionTree& tree, const cmp::Dataset& ds) {
  const cmp::Evaluation eval = cmp::Evaluate(tree, ds);
  return static_cast<double>(eval.correct) /
         static_cast<double>(eval.total);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_stream.json";
  const std::string first_path = "/tmp/cmp_bench_stream_first.cmpt";
  const std::string second_path = "/tmp/cmp_bench_stream_second.cmpt";
  const int64_t total_n = std::max<int64_t>(
      static_cast<int64_t>(1000000 * cmp::bench::Scale()), 40000);
  const int64_t half_n = total_n / 2;
  const int64_t block = 65536;

  // The drifting stream, split at the drift point: the "past" the model
  // trained on and the "future" it must adapt to.
  cmp::DriftOptions gen;
  gen.before = cmp::AgrawalFunction::kF2;
  gen.after = cmp::AgrawalFunction::kF7;
  gen.num_records = total_n;
  gen.drift_at = half_n;
  gen.seed = 11;
  const cmp::Dataset all = cmp::GenerateDriftingAgrawal(gen);
  cmp::Dataset first(all.schema()), second(all.schema());
  {
    std::vector<double> nv;
    std::vector<int32_t> cv;
    for (cmp::RecordId r = 0; r < all.num_records(); ++r) {
      nv.clear();
      cv.clear();
      for (cmp::AttrId a = 0; a < all.schema().num_attrs(); ++a) {
        if (all.schema().attr(a).kind == cmp::AttrKind::kNumeric) {
          nv.push_back(all.numeric(a, r));
        } else {
          cv.push_back(all.categorical(a, r));
        }
      }
      (r < half_n ? first : second).Append(nv, cv, all.label(r));
    }
  }
  if (!cmp::SaveTableFile(first, first_path) ||
      !cmp::SaveTableFile(second, second_path)) {
    std::cerr << "failed to write bench tables\n";
    return 1;
  }

  cmp::AgrawalOptions holdout_gen;
  holdout_gen.function = cmp::AgrawalFunction::kF7;
  holdout_gen.num_records = 20000;
  holdout_gen.seed = 99;
  const cmp::Dataset holdout = cmp::GenerateAgrawal(holdout_gen);

  // -- First-half training: batch CMP (out of core) vs cmp-stream ------
  cmp::CmpOptions batch_opts = cmp::CmpFullOptions();
  batch_opts.base.num_threads = 2;
  double batch_rps = 0;
  int64_t batch_peak = 0;
  {
    cmp::CmpBuilder builder(batch_opts);
    for (int pass = 0; pass < 2; ++pass) {
      auto source = cmp::TableBlockSource::Open(first_path, block);
      cmp::Timer timer;
      const cmp::BuildResult result = builder.BuildStreamed(*source);
      const double rps = static_cast<double>(half_n) / timer.Seconds();
      if (rps > batch_rps) batch_rps = rps;
      batch_peak = result.stats.peak_memory_bytes;
    }
  }

  cmp::StreamOptions stream_opts;
  stream_opts.base.num_threads = 2;
  stream_opts.real_io = true;
  double stream_rps = 0;
  int64_t stream_peak = 0;
  std::string stream_tree_bytes;
  cmp::BuildResult stream_result;
  cmp::SketchSidecar sidecar;
  for (int pass = 0; pass < 2; ++pass) {
    auto source = cmp::TableBlockSource::Open(first_path, block);
    cmp::BuildResult result;
    cmp::SketchSidecar side;
    std::string error;
    cmp::Timer timer;
    if (!cmp::StreamTrain(*source, stream_opts, &result, &side, &error)) {
      std::cerr << "cmp-stream failed: " << error << "\n";
      return 1;
    }
    const double rps = static_cast<double>(half_n) / timer.Seconds();
    if (rps > stream_rps) stream_rps = rps;
    stream_peak = result.stats.peak_memory_bytes;
    const std::string bytes = cmp::SerializeTree(result.tree);
    if (pass == 0) {
      stream_tree_bytes = bytes;
    } else if (bytes != stream_tree_bytes) {
      std::cerr << "DETERMINISM VIOLATION: cmp-stream reruns differ\n";
      return 1;
    }
    stream_result = std::move(result);
    sidecar = std::move(side);
  }

  // -- Adapting to the drift: refit vs full retrain --------------------
  double refit_seconds = 0;
  cmp::DecisionTree refit_tree = stream_result.tree;
  {
    cmp::RefitOptions refit_opts;
    refit_opts.stream.base.num_threads = 2;
    refit_opts.stream.real_io = true;
    auto source = cmp::TableBlockSource::Open(second_path, block);
    cmp::BuildStats stats;
    cmp::RefitStats refit_stats;
    std::string error;
    cmp::Timer timer;
    if (!cmp::RefitTree(&refit_tree, &sidecar, *source, refit_opts, &stats,
                        &refit_stats, &error)) {
      std::cerr << "refit failed: " << error << "\n";
      return 1;
    }
    refit_seconds = timer.Seconds();
  }

  double retrain_seconds = 0;
  cmp::BuildResult retrain_result;
  {
    cmp::SketchSidecar side;
    std::string error;
    cmp::StreamOptions retrain_opts;
    retrain_opts.base.num_threads = 2;
    cmp::DatasetBlockSource source(all, block);
    cmp::Timer timer;
    if (!cmp::StreamTrain(source, retrain_opts, &retrain_result, &side,
                          &error)) {
      std::cerr << "full retrain failed: " << error << "\n";
      return 1;
    }
    retrain_seconds = timer.Seconds();
  }

  const double acc_prefix = Accuracy(stream_result.tree, holdout);
  const double acc_refit = Accuracy(refit_tree, holdout);
  const double acc_retrain = Accuracy(retrain_result.tree, holdout);

  std::cout << "drifting stream: " << total_n << " records, F2 -> F7 at "
            << half_n << ", 2 threads, block=" << block << "\n\n";
  std::cout << "first-half training        rows/sec     peak MB\n";
  std::printf("%-24s %10d   %9.2f\n", "batch cmp (--stream)",
              static_cast<int>(batch_rps),
              static_cast<double>(batch_peak) / (1024.0 * 1024.0));
  std::printf("%-24s %10d   %9.2f\n", "cmp-stream",
              static_cast<int>(stream_rps),
              static_cast<double>(stream_peak) / (1024.0 * 1024.0));
  std::cout << "\nadapting to the post-drift concept      seconds\n";
  std::printf("%-36s %9.3f\n", "refit (second half only)", refit_seconds);
  std::printf("%-36s %9.3f\n", "full retrain (both halves)",
              retrain_seconds);
  std::cout << "\nholdout accuracy on the post-drift concept (F7):\n";
  std::printf("  prefix model  %.4f\n  refit         %.4f\n"
              "  full retrain  %.4f\n",
              acc_prefix, acc_refit, acc_retrain);

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"stream\",\n"
       << "  \"rows\": " << total_n << ",\n"
       << "  \"drift_at\": " << half_n << ",\n"
       << "  \"block_records\": " << block << ",\n"
       << "  \"batch_rows_per_sec\": " << batch_rps << ",\n"
       << "  \"stream_rows_per_sec\": " << stream_rps << ",\n"
       << "  \"batch_peak_bytes\": " << batch_peak << ",\n"
       << "  \"stream_peak_bytes\": " << stream_peak << ",\n"
       << "  \"refit_seconds\": " << refit_seconds << ",\n"
       << "  \"retrain_seconds\": " << retrain_seconds << ",\n"
       << "  \"refit_vs_retrain\": " << retrain_seconds / refit_seconds
       << ",\n"
       << "  \"accuracy_prefix\": " << acc_prefix << ",\n"
       << "  \"accuracy_refit\": " << acc_refit << ",\n"
       << "  \"accuracy_retrain\": " << acc_retrain << ",\n"
       << "  \"accuracy_recovered\": " << acc_refit - acc_prefix << "\n"
       << "}\n";
  std::cout << "\nwrote " << json_path << "\n";
  std::remove(first_path.c_str());
  std::remove(second_path.c_str());
  // Refit must actually have adapted; a bench of a broken refit would
  // report meaningless timings.
  return acc_refit > acc_prefix ? 0 : 1;
}
