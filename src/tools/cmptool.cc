// cmptool: command-line front end to the CMP classifier library.
//
// Subcommands:
//   gen   --function F2 --records 100000 --seed 42 --out data.cmpt
//   train --data data.cmpt --algo cmp|cmp-b|cmp-s|sprint|clouds|...
//         --out tree.txt [--intervals 100] [--no-prune] [--stats-json FILE]
//   eval  --data data.cmpt --tree tree.txt
//   predict --data data.cmpt --tree tree.txt --out preds.csv
//   compile --tree tree.txt[,tree2.txt...] --out model.cmpb
//   show  --tree tree.txt
//
// Algorithms are constructed through the TreeBuilder registry
// (tree/builder.h), so the --algo list tracks whatever is registered.
//
// Exit codes: 0 on success, 2 for bad arguments (unknown flag values,
// missing required flags), 3 for I/O failures (unreadable data,
// unwritable output), 4 when training itself fails.
//
// All file formats are this library's own (table_file.h, serialize.h).

#include <algorithm>
#include <charconv>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/cpu_features.h"
#include "common/format_number.h"
#include "common/parse_number.h"
#include "common/summary.h"
#include "cmp/cmp.h"
#include "datagen/agrawal.h"
#include "datagen/drift.h"
#include "io/arff.h"
#include "io/block_source.h"
#include "io/csv.h"
#include "io/sketch_sidecar.h"
#include "io/stream.h"
#include "stream/refit.h"
#include "stream/stream_train.h"
#include "common/timer.h"
#include "infer/batch_predictor.h"
#include "infer/compiled_tree.h"
#include "infer/model_io.h"
#include "io/table_file.h"
#include "tree/builder.h"
#include "tree/evaluate.h"
#include "tree/explain.h"
#include "tree/importance.h"
#include "tree/observer.h"
#include "tree/serialize.h"

namespace {

using cmp::AgrawalFunction;

constexpr int kExitOk = 0;
constexpr int kExitBadArgs = 2;
constexpr int kExitIo = 3;
constexpr int kExitTrain = 4;

std::string AlgoList() {
  std::string out;
  for (const std::string& name : cmp::RegisteredTreeBuilders()) {
    if (!out.empty()) out += '|';
    out += name;
  }
  return out;
}

int Usage() {
  std::cerr <<
      "usage:\n"
      "  cmptool gen   --function <F1..F10|Ff> --records N [--seed S]"
      " [--perturb P] --out FILE\n"
      "                [--drift-at N --drift-function F] switches the\n"
      "                labeling concept to F at record index N (sudden\n"
      "                drift; covariates are unchanged)\n"
      "                [--skip S] writes only records [S, N) of the\n"
      "                stream (split one seed into prefix + suffix)\n"
      "  cmptool train --data FILE --algo <" << AlgoList() << ">\n"
      "                [--intervals Q] [--no-prune] [--threads N]"
      " [--stats-json FILE]\n"
      "                [--rounds R] [--shrinkage s] [--weak-depth D]\n"
      "                [--holdout H] [--patience P]\n"
      "                (boosting knobs, --algo boost only; boost writes a\n"
      "                 cmp-forest file, or a .cmpb blob when --out ends\n"
      "                 in .cmpb)\n"
      "                [--stream [--block B]] --out FILE\n"
      "                (--stream trains out-of-core from a .cmpt table in\n"
      "                 blocks of B records; cmp/cmp-b/cmp-s only. Same\n"
      "                 tree as in memory; with --threads above 1 the\n"
      "                 next block is read ahead on a worker.)\n"
      "                --algo cmp-stream trains in one sequential pass\n"
      "                per level from bounded quantile sketches (no\n"
      "                pre-pass sort; add --stream --block B to read a\n"
      "                .cmpt table out of core). [--sketch-capacity K]\n"
      "                [--sidecar FILE.cmps] persists per-leaf sketch\n"
      "                state for later refit.\n"
      "  cmptool refit --data FILE --tree FILE --sidecar FILE.cmps\n"
      "                --out FILE [--sidecar-out FILE.cmps]\n"
      "                [--drift-threshold T] [--threads N]\n"
      "                [--stream [--block B]] [--stats-json FILE]\n"
      "                (routes new records to the leaves of a cmp-stream\n"
      "                 tree and regrows only the drifted ones; interior\n"
      "                 nodes are untouched)\n"
      "  cmptool eval  --data FILE --tree FILE\n"
      "  cmptool compile --tree FILE[,FILE...] --out FILE.cmpb\n"
      "                (packs text trees into one mmap-able blob for\n"
      "                 cmpserve / predict)\n"
      "  cmptool predict --data FILE --tree FILE[,FILE...] [--out FILE]\n"
      "                (--tree also accepts one compiled .cmpb blob)\n"
      "                [--threads N] [--probs] [--top-k K]\n"
      "                [--abstain P] [--vote majority|prob]\n"
      "                (--threads N workers read, score and format\n"
      "                 blocks; default 0 = one per hardware thread, as\n"
      "                 in cmpserve. The output does not depend on it.)\n"
      "  cmptool show  --tree FILE\n"
      "  cmptool dot   --tree FILE\n"
      "  cmptool explain --data FILE --tree FILE --record N\n"
      "  cmptool info  --data FILE\n"
      "  cmptool importance --tree FILE\n"
      "every command also accepts --kernel auto|scalar|avx2 to pin the\n"
      "ISA tier of the batch tree-descent kernels used by predict\n"
      "(default auto; predictions are identical for every tier)\n";
  return kExitBadArgs;
}

std::string GetFlag(int argc, char** argv, const std::string& name,
                    const std::string& def = "") {
  for (int i = 0; i + 1 < argc; ++i) {
    if (name == argv[i]) return argv[i + 1];
  }
  return def;
}

bool HasFlag(int argc, char** argv, const std::string& name) {
  for (int i = 0; i < argc; ++i) {
    if (name == argv[i]) return true;
  }
  return false;
}

// Upper bound of --threads: far above any machine this runs on, far
// below the thread counts that stall or exhaust memory. 0 means one per
// hardware thread, so a typo never silently becomes "all cores" or
// thousands of threads.
constexpr int kMaxThreads = 1024;

constexpr int kMaxInt = std::numeric_limits<int>::max();

// Upper bound of every --block flag (records per block).
constexpr int64_t kMaxBlock = int64_t{1} << 24;

// Upper bound of gen's --records: 2^32 records, far beyond any table
// this writes, well short of sizes whose allocation fails.
constexpr int64_t kMaxGenRecords = int64_t{1} << 32;

// Upper bound of train's --intervals: far above the paper's 100-120
// intervals, and the finest grid whose bin codes still take two bytes
// (hist/bin_codes.h).
constexpr int64_t kMaxIntervals = 65536;

// Parses a whole-number flag (absent: `def`). Accepts only a whole
// decimal number in [lo, hi]; a sign, fraction, trailing text or value
// out of range is a bad argument, reported here, rather than being read
// up to its first bad character.
bool ParseWholeFlag(int argc, char** argv, const std::string& flag,
                    int64_t lo, int64_t hi, int64_t def, int64_t* out) {
  if (!HasFlag(argc, argv, flag)) {
    *out = def;
    return true;
  }
  const std::string v = GetFlag(argc, argv, flag);
  if (!cmp::ParseWholeNumber(v, lo, hi, out)) {
    std::cerr << flag << " must be a whole number in [" << lo << ", " << hi
              << "] (got '" << v << "')\n";
    return false;
  }
  return true;
}

// Parses a decimal flag (absent: `def`) the same way: only a plain
// decimal number in [lo, hi] (common/parse_number.h) is accepted.
bool ParseDecimalFlag(int argc, char** argv, const std::string& flag,
                      double lo, double hi, double def, double* out) {
  if (!HasFlag(argc, argv, flag)) {
    *out = def;
    return true;
  }
  const std::string v = GetFlag(argc, argv, flag);
  if (!cmp::ParseDecimal(v, lo, hi, out)) {
    std::cerr << flag << " must be a decimal number in [" << lo << ", " << hi
              << "] (got '" << v << "')\n";
    return false;
  }
  return true;
}

// ParseWholeFlag into an int.
bool ParseIntFlag(int argc, char** argv, const std::string& flag, int lo,
                  int hi, int def, int* out) {
  int64_t value = 0;
  if (!ParseWholeFlag(argc, argv, flag, lo, hi, def, &value)) return false;
  *out = static_cast<int>(value);
  return true;
}

// Accepts exactly F1..F10 or Ff (either case of the F), nothing longer.
bool ParseFunction(const std::string& s, AgrawalFunction* out) {
  if (s == "Ff" || s == "ff" || s == "f") {
    *out = AgrawalFunction::kFunctionF;
    return true;
  }
  for (int k = 1; k <= 10; ++k) {
    const std::string digits = std::to_string(k);
    if (s == "F" + digits || s == "f" + digits) {
      *out = static_cast<AgrawalFunction>(k);
      return true;
    }
  }
  return false;
}

// True for the text formats LoadAnyDataset parses whole: .arff, .csv.
bool IsTextDataset(const std::string& path) {
  return path.ends_with(".arff") || path.ends_with(".csv");
}

// Loads a dataset by extension: .arff via the ARFF reader, .csv via
// schema inference, anything else via the binary table format.
bool LoadAnyDataset(const std::string& path, cmp::Dataset* out) {
  if (path.ends_with(".arff")) return cmp::LoadArff(path, out);
  if (path.ends_with(".csv")) return cmp::LoadCsvInferSchema(path, out);
  return cmp::LoadTableFile(path, out);
}

std::vector<cmp::CompiledTree> CompileTrees(
    const std::vector<cmp::DecisionTree>& trees) {
  std::vector<cmp::CompiledTree> compiled;
  for (const cmp::DecisionTree& t : trees) {
    compiled.push_back(cmp::CompiledTree::Compile(t));
  }
  return compiled;
}

// A model reads columns by attribute id, so `data` can be scored only
// when its attribute count and every attribute's kind equal the model's.
// Classes are matched by name: a CSV numbers its classes in the order
// its rows first name them and may name only some, so each class `data`
// names must be one of the model's, and `to_model` maps its ids to the
// model's. Otherwise reports why, naming `path`, and returns false.
bool MatchSchema(const std::string& path, const cmp::Schema& data,
                 const cmp::Schema& model,
                 std::vector<cmp::ClassId>* to_model) {
  std::ostringstream why;
  if (data.num_attrs() != model.num_attrs()) {
    why << "it has " << data.num_attrs() << " attributes, the model "
        << model.num_attrs();
  }
  for (cmp::AttrId a = 0; why.str().empty() && a < data.num_attrs(); ++a) {
    if (data.is_numeric(a) != model.is_numeric(a)) {
      why << "attribute " << a << " (" << data.attr(a).name << ") is "
          << (data.is_numeric(a) ? "numeric" : "categorical")
          << ", the model's " << model.attr(a).name << " is "
          << (model.is_numeric(a) ? "numeric" : "categorical");
    }
  }
  const std::vector<std::string>& names = model.class_names();
  to_model->clear();
  for (cmp::ClassId c = 0; why.str().empty() && c < data.num_classes(); ++c) {
    const auto it = std::find(names.begin(), names.end(), data.class_name(c));
    if (it == names.end()) {
      why << "class " << data.class_name(c) << " is not one of its "
          << names.size() << " classes";
    } else {
      to_model->push_back(static_cast<cmp::ClassId>(it - names.begin()));
    }
  }
  if (why.str().empty()) return true;
  std::cerr << "schema of " << path << " does not match the model: "
            << why.str() << "\n";
  return false;
}

// `ds` with its labels renumbered by `to_model` and the model's class
// names, so its labels and the model's predictions compare by id.
cmp::Dataset WithModelClasses(const cmp::Dataset& ds,
                              const cmp::Schema& model,
                              const std::vector<cmp::ClassId>& to_model) {
  const cmp::Schema& schema = ds.schema();
  std::vector<std::vector<double>> numeric(schema.num_attrs());
  std::vector<std::vector<int32_t>> categorical(schema.num_attrs());
  for (cmp::AttrId a = 0; a < schema.num_attrs(); ++a) {
    const std::span<const double> nums = ds.numeric_column(a);
    const std::span<const int32_t> cats = ds.categorical_column(a);
    numeric[a].assign(nums.begin(), nums.end());
    categorical[a].assign(cats.begin(), cats.end());
  }
  std::vector<cmp::ClassId> labels(ds.labels().size());
  for (size_t r = 0; r < labels.size(); ++r) {
    labels[r] = to_model[ds.labels()[r]];
  }
  return cmp::Dataset(cmp::Schema(schema.attrs(), model.class_names()),
                      std::move(numeric), std::move(categorical),
                      std::move(labels));
}

// Writes the observer's JSON to `path` ("-" for stdout). Returns an exit
// code (kExitOk or kExitIo).
int WriteStatsJson(const cmp::TrainStatsCollector& collector,
                   const std::string& path) {
  if (path == "-") {
    std::cout << collector.ToJson();
    return kExitOk;
  }
  std::ofstream file(path);
  if (!file || !(file << collector.ToJson())) {
    std::cerr << "failed to write " << path << "\n";
    return kExitIo;
  }
  return kExitOk;
}

int CmdGen(int argc, char** argv) {
  AgrawalFunction function;
  if (!ParseFunction(GetFlag(argc, argv, "--function", "F2"), &function)) {
    std::cerr << "unknown function\n";
    return kExitBadArgs;
  }
  cmp::AgrawalOptions o;
  o.function = function;
  int64_t seed = 0;
  if (!ParseWholeFlag(argc, argv, "--records", 0, kMaxGenRecords, 100000,
                      &o.num_records) ||
      !ParseWholeFlag(argc, argv, "--seed", 0,
                      std::numeric_limits<int64_t>::max(), 42, &seed)) {
    return kExitBadArgs;
  }
  o.seed = static_cast<uint64_t>(seed);
  if (!ParseDecimalFlag(argc, argv, "--perturb", 0.0, 1.0, o.perturbation,
                        &o.perturbation)) {
    return kExitBadArgs;
  }
  const std::string out = GetFlag(argc, argv, "--out");
  if (out.empty()) return Usage();
  cmp::Dataset ds;
  if (HasFlag(argc, argv, "--drift-at") ||
      HasFlag(argc, argv, "--drift-function")) {
    // Non-stationary stream: --function labels the prefix, the concept
    // switches to --drift-function at record --drift-at.
    if (!HasFlag(argc, argv, "--drift-at") ||
        !HasFlag(argc, argv, "--drift-function")) {
      std::cerr << "--drift-at and --drift-function must be given"
                   " together\n";
      return kExitBadArgs;
    }
    cmp::DriftOptions d;
    d.before = o.function;
    if (!ParseFunction(GetFlag(argc, argv, "--drift-function"), &d.after)) {
      std::cerr << "unknown drift function\n";
      return kExitBadArgs;
    }
    if (!ParseWholeFlag(argc, argv, "--drift-at", 0, o.num_records, 0,
                        &d.drift_at)) {
      return kExitBadArgs;
    }
    d.num_records = o.num_records;
    d.seed = o.seed;
    d.perturbation = o.perturbation;
    ds = cmp::GenerateDriftingAgrawal(d);
  } else {
    ds = cmp::GenerateAgrawal(o);
  }
  // --skip S writes only records [S, records) of the stream, so a
  // shell script can split one seeded stream into an exact prefix
  // (gen --records S) and suffix (gen --records N --skip S) — the
  // train-then-refit workflow without a separate slicing tool.
  int64_t skip = 0;
  if (!ParseWholeFlag(argc, argv, "--skip", 0, o.num_records, 0, &skip)) {
    return kExitBadArgs;
  }
  if (skip > 0) {
    cmp::Dataset tail(ds.schema());
    std::vector<double> nv;
    std::vector<int32_t> cv;
    for (cmp::RecordId r = skip; r < ds.num_records(); ++r) {
      nv.clear();
      cv.clear();
      for (cmp::AttrId a = 0; a < ds.schema().num_attrs(); ++a) {
        if (ds.schema().attr(a).kind == cmp::AttrKind::kNumeric) {
          nv.push_back(ds.numeric(a, r));
        } else {
          cv.push_back(ds.categorical(a, r));
        }
      }
      tail.Append(nv, cv, ds.label(r));
    }
    ds = std::move(tail);
  }
  if (!cmp::SaveTableFile(ds, out)) {
    std::cerr << "failed to write " << out << "\n";
    return kExitIo;
  }
  std::cout << "wrote " << ds.num_records() << " records ("
            << ds.TotalBytes() / (1024.0 * 1024.0) << " MB) to " << out
            << "\n";
  return kExitOk;
}

// Out-of-core training: records flow from the .cmpt table through
// block-pipelined scans instead of being loaded up front. Produces the
// same tree bytes as the in-memory path (that equality is CI-enforced).
int CmdTrainStreamed(int argc, char** argv, int intervals, int threads) {
  const std::string data = GetFlag(argc, argv, "--data");
  const std::string out = GetFlag(argc, argv, "--out");
  const std::string algo = GetFlag(argc, argv, "--algo", "cmp");
  if (algo != "cmp" && algo != "cmp-b" && algo != "cmp-s") {
    std::cerr << "--stream supports cmp, cmp-b, cmp-s (got " << algo
              << ")\n";
    return kExitBadArgs;
  }
  int64_t block = 0;
  if (!ParseWholeFlag(argc, argv, "--block", 1, kMaxBlock, 65536, &block)) {
    return kExitBadArgs;
  }
  const cmp::Timer load;
  auto source = cmp::TableBlockSource::Open(data, block);
  if (source == nullptr) {
    std::cerr << "failed to open " << data
              << " (must be a valid .cmpt table)\n";
    return kExitIo;
  }
  const double load_s = load.Seconds();
  cmp::CmpOptions o = algo == "cmp"     ? cmp::CmpFullOptions()
                      : algo == "cmp-b" ? cmp::CmpBOptions()
                                        : cmp::CmpSOptions();
  o.base.prune = !HasFlag(argc, argv, "--no-prune");
  o.base.num_threads = threads;
  o.intervals = intervals;
  const std::string stats_path = GetFlag(argc, argv, "--stats-json");
  cmp::TrainStatsCollector collector;
  if (!stats_path.empty()) o.base.observer = &collector;
  cmp::CmpBuilder builder(o);
  cmp::BuildResult result;
  try {
    result = builder.BuildStreamed(*source);
  } catch (const std::exception& e) {
    std::cerr << "training failed: " << e.what() << "\n";
    return kExitTrain;
  }
  // With --stats-json - the JSON owns stdout; summaries move to stderr.
  std::ostream& summary = stats_path == "-" ? std::cerr : std::cout;
  summary << builder.name() << " (streamed, block=" << block
          << "): " << result.stats.ToString() << "\n";
  const cmp::Timer save;
  if (!cmp::SaveTree(result.tree, out)) {
    std::cerr << "failed to write " << out << "\n";
    return kExitIo;
  }
  collector.SetIoSeconds(load_s, save.Seconds());
  summary << "tree with " << result.tree.num_nodes() << " nodes saved to "
          << out << "\n";
  if (!stats_path.empty()) return WriteStatsJson(collector, stats_path);
  return kExitOk;
}

// The records a streaming trainer reads: with --stream, the .cmpt table
// out of core in --block records; otherwise the dataset loaded whole and
// wrapped in a zero-copy block source.
struct TrainingSource {
  cmp::Dataset ds;  // the loaded records when not streamed
  std::unique_ptr<cmp::BlockSource> source;
  bool streamed = false;
};

// Opens `data` as CmdTrainCmpStream and CmdRefit read it. Returns
// kExitOk, or the exit code after printing why it failed.
int OpenTrainingSource(int argc, char** argv, const std::string& data,
                       TrainingSource* out) {
  out->streamed = HasFlag(argc, argv, "--stream");
  if (out->streamed) {
    int64_t block = 0;
    if (!ParseWholeFlag(argc, argv, "--block", 1, kMaxBlock, 65536, &block)) {
      return kExitBadArgs;
    }
    out->source = cmp::TableBlockSource::Open(data, block);
    if (out->source == nullptr) {
      std::cerr << "failed to open " << data
                << " (must be a valid .cmpt table)\n";
      return kExitIo;
    }
    return kExitOk;
  }
  if (!LoadAnyDataset(data, &out->ds)) {
    std::cerr << "failed to read " << data << "\n";
    return kExitIo;
  }
  out->source = std::make_unique<cmp::DatasetBlockSource>(out->ds);
  return kExitOk;
}

// Streaming sketch-based training (--algo cmp-stream): per-node grids
// come from bounded quantile sketches filled in one sequential pass per
// tree level, so no pre-pass sort and no O(n) column buffer. With
// --stream --block B the records flow from the .cmpt table out of core;
// otherwise the dataset is loaded and wrapped in a zero-copy block
// source (same tree bytes either way — ingestion is a record-order fold
// regardless of the source's block size).
int CmdTrainCmpStream(int argc, char** argv, int intervals, int threads) {
  const std::string data = GetFlag(argc, argv, "--data");
  const std::string out = GetFlag(argc, argv, "--out");
  cmp::StreamOptions o;
  o.base.prune = !HasFlag(argc, argv, "--no-prune");
  o.base.num_threads = threads;
  o.intervals = intervals;
  if (!ParseIntFlag(argc, argv, "--sketch-capacity", 8, kMaxInt, 512,
                    &o.sketch_capacity)) {
    return kExitBadArgs;
  }
  const std::string stats_path = GetFlag(argc, argv, "--stats-json");
  cmp::TrainStatsCollector collector;
  if (!stats_path.empty()) o.base.observer = &collector;

  const cmp::Timer load;
  TrainingSource in;
  const int opened = OpenTrainingSource(argc, argv, data, &in);
  if (opened != kExitOk) return opened;
  const double load_s = load.Seconds();
  o.real_io = in.streamed;

  cmp::BuildResult result;
  cmp::SketchSidecar sidecar;
  std::string error;
  if (!cmp::StreamTrain(*in.source, o, &result, &sidecar, &error)) {
    std::cerr << "training failed: " << error << "\n";
    return kExitTrain;
  }
  // With --stats-json - the JSON owns stdout; summaries move to stderr.
  std::ostream& summary = stats_path == "-" ? std::cerr : std::cout;
  summary << "CMP-stream: " << result.stats.ToString() << "\n";
  const cmp::Timer save;
  if (!cmp::SaveTree(result.tree, out)) {
    std::cerr << "failed to write " << out << "\n";
    return kExitIo;
  }
  summary << "tree with " << result.tree.num_nodes() << " nodes saved to "
          << out << "\n";
  const std::string sidecar_path = GetFlag(argc, argv, "--sidecar");
  if (!sidecar_path.empty()) {
    if (!cmp::SaveSketchSidecar(sidecar, sidecar_path, &error)) {
      std::cerr << "failed to write " << sidecar_path << ": " << error
                << "\n";
      return kExitIo;
    }
    summary << "sketch sidecar (" << sidecar.leaves.size()
            << " leaves) saved to " << sidecar_path << "\n";
  }
  collector.SetIoSeconds(load_s, save.Seconds());
  if (!stats_path.empty()) return WriteStatsJson(collector, stats_path);
  return kExitOk;
}

// Incremental refit: extends a cmp-stream tree with new records using
// the sketch sidecar instead of the original data. Only leaves whose
// class distribution drifted past --drift-threshold are regrown; the
// interior of the tree is untouched.
int CmdRefit(int argc, char** argv) {
  const std::string data = GetFlag(argc, argv, "--data");
  const std::string tree_path = GetFlag(argc, argv, "--tree");
  const std::string sidecar_path = GetFlag(argc, argv, "--sidecar");
  const std::string out = GetFlag(argc, argv, "--out");
  if (data.empty() || tree_path.empty() || sidecar_path.empty() ||
      out.empty()) {
    return Usage();
  }

  std::vector<cmp::DecisionTree> trees;
  if (!cmp::LoadTrees(tree_path, &trees) || trees.empty()) {
    std::cerr << "failed to read " << tree_path << "\n";
    return kExitIo;
  }
  // Refit resumes the streaming trainer beneath individual leaves; a
  // boosted forest has no sidecar and its residual-coupled trees cannot
  // be extended one leaf at a time.
  if (trees.size() > 1) {
    std::cerr << "refit requires a single cmp-stream tree; " << tree_path
              << " holds a forest of " << trees.size()
              << " trees (boosted ensembles cannot be refit)\n";
    return kExitBadArgs;
  }
  cmp::DecisionTree tree = std::move(trees.front());

  cmp::SketchSidecar sidecar;
  std::string error;
  if (!cmp::LoadSketchSidecar(sidecar_path, &sidecar, &error)) {
    std::cerr << "failed to read " << sidecar_path << ": " << error << "\n";
    return kExitIo;
  }

  cmp::RefitOptions o;
  o.stream.base.prune = !HasFlag(argc, argv, "--no-prune");
  if (!ParseIntFlag(argc, argv, "--threads", 0, kMaxThreads, 1,
                    &o.stream.base.num_threads)) {
    return kExitBadArgs;
  }
  if (!ParseDecimalFlag(argc, argv, "--drift-threshold", 0.0, 1.0, 0.15,
                        &o.drift_threshold)) {
    return kExitBadArgs;
  }
  const std::string stats_path = GetFlag(argc, argv, "--stats-json");
  cmp::TrainStatsCollector collector;
  if (!stats_path.empty()) o.stream.base.observer = &collector;

  TrainingSource in;
  const int opened = OpenTrainingSource(argc, argv, data, &in);
  if (opened != kExitOk) return opened;
  o.stream.real_io = in.streamed;

  cmp::BuildStats build_stats;
  cmp::RefitStats refit_stats;
  if (!cmp::RefitTree(&tree, &sidecar, *in.source, o, &build_stats,
                      &refit_stats, &error)) {
    std::cerr << "refit failed: " << error << "\n";
    return kExitTrain;
  }
  // With --stats-json - the JSON owns stdout; summaries move to stderr.
  std::ostream& summary = stats_path == "-" ? std::cerr : std::cout;
  summary << "refit: " << refit_stats.records << " new records, "
          << refit_stats.leaves_touched << " leaves touched, "
          << refit_stats.leaves_regrown << " regrown; "
          << build_stats.ToString() << "\n";
  if (!cmp::SaveTree(tree, out)) {
    std::cerr << "failed to write " << out << "\n";
    return kExitIo;
  }
  summary << "tree with " << tree.num_nodes() << " nodes saved to " << out
          << "\n";
  // The updated sidecar keeps refit composable: by default it replaces
  // the input sidecar so the next refit picks up where this one ended.
  const std::string sidecar_out =
      GetFlag(argc, argv, "--sidecar-out", sidecar_path);
  if (!cmp::SaveSketchSidecar(sidecar, sidecar_out, &error)) {
    std::cerr << "failed to write " << sidecar_out << ": " << error << "\n";
    return kExitIo;
  }
  summary << "sketch sidecar (" << sidecar.leaves.size()
          << " leaves) saved to " << sidecar_out << "\n";
  if (!stats_path.empty()) return WriteStatsJson(collector, stats_path);
  return kExitOk;
}

int CmdTrain(int argc, char** argv) {
  // Removed flags are rejected with their reasons.
  for (const auto& [flag, reason] : {
           std::pair<const char*, const char*>{
               "--workers",
               "distributed training was removed; use --threads N or "
               "--stream"},
           {"--scan-shards", "removed; the shard count is automatic"},
           {"--no-codes", "removed; every CMP scan reads bin codes"},
           {"--no-prefetch",
            "removed; --threads 1 reads blocks synchronously"}}) {
    if (HasFlag(argc, argv, flag)) {
      std::cerr << flag << ": " << reason << "\n";
      return kExitBadArgs;
    }
  }
  const std::string data = GetFlag(argc, argv, "--data");
  const std::string out = GetFlag(argc, argv, "--out");
  const std::string algo = GetFlag(argc, argv, "--algo", "cmp");
  if (data.empty() || out.empty()) return Usage();
  int64_t q = 100;
  if (HasFlag(argc, argv, "--intervals")) {
    const std::string v = GetFlag(argc, argv, "--intervals");
    if (!cmp::ParseWholeNumber(v, 1, kMaxIntervals, &q)) {
      std::cerr << "--intervals must be >= 1: a whole number in [1, "
                << kMaxIntervals << "] (got '" << v << "')\n";
      return kExitBadArgs;
    }
  }
  const int intervals = static_cast<int>(q);
  int threads = 1;
  if (!ParseIntFlag(argc, argv, "--threads", 0, kMaxThreads, 1, &threads)) {
    return kExitBadArgs;
  }
  // cmp-stream owns its flag handling.
  if (algo == "cmp-stream") {
    return CmdTrainCmpStream(argc, argv, intervals, threads);
  }
  if (HasFlag(argc, argv, "--stream")) {
    return CmdTrainStreamed(argc, argv, intervals, threads);
  }
  cmp::BuilderConfig config;
  config.base.prune = !HasFlag(argc, argv, "--no-prune");
  config.base.num_threads = threads;
  config.intervals = intervals;
  if (!ParseIntFlag(argc, argv, "--rounds", 1, kMaxInt, 50,
                    &config.boost.rounds) ||
      !ParseDecimalFlag(argc, argv, "--shrinkage", 0.0, 1.0, 0.1,
                        &config.boost.shrinkage) ||
      !ParseIntFlag(argc, argv, "--weak-depth", 0, kMaxInt, 6,
                    &config.boost.weak_depth) ||
      !ParseDecimalFlag(argc, argv, "--holdout", 0.0, 0.9, 0.2,
                        &config.boost.holdout) ||
      !ParseIntFlag(argc, argv, "--patience", 1, kMaxInt, 5,
                    &config.boost.patience)) {
    return kExitBadArgs;
  }
  const std::string stats_path = GetFlag(argc, argv, "--stats-json");
  cmp::TrainStatsCollector collector;
  if (!stats_path.empty()) config.base.observer = &collector;
  auto builder = cmp::MakeTreeBuilder(algo, config);
  if (builder == nullptr) {
    std::cerr << "unknown algorithm " << algo << " (have: " << AlgoList()
              << ")\n";
    return kExitBadArgs;
  }
  const cmp::Timer load;
  cmp::Dataset ds;
  if (!LoadAnyDataset(data, &ds)) {
    std::cerr << "failed to read " << data << "\n";
    return kExitIo;
  }
  const double load_s = load.Seconds();
  cmp::BuildResult result;
  try {
    result = builder->Build(ds);
  } catch (const std::exception& e) {
    std::cerr << "training failed: " << e.what() << "\n";
    return kExitTrain;
  }
  // With --stats-json - the JSON owns stdout; summaries move to stderr.
  std::ostream& summary = stats_path == "-" ? std::cerr : std::cout;
  summary << builder->name() << ": " << result.stats.ToString() << "\n";
  // Multi-tree results (boost) go out as a cmp-forest file; an --out
  // ending in .cmpb asks for the compiled blob directly (any algorithm).
  const cmp::Timer save;
  const bool blob_out =
      out.size() > 5 && out.substr(out.size() - 5) == ".cmpb";
  if (blob_out) {
    std::vector<const cmp::DecisionTree*> ptrs;
    if (result.forest.empty()) {
      ptrs.push_back(&result.tree);
    } else {
      for (const cmp::DecisionTree& t : result.forest) ptrs.push_back(&t);
    }
    std::string error;
    if (!cmp::SaveModelBlob(ptrs, out, &error)) {
      std::cerr << "failed to write " << out << ": " << error << "\n";
      return kExitIo;
    }
    summary << ptrs.size() << " compiled tree(s) saved to " << out << "\n";
  } else if (result.forest.size() > 1) {
    if (!cmp::SaveForest(result.forest, out)) {
      std::cerr << "failed to write " << out << "\n";
      return kExitIo;
    }
    summary << result.forest.size() << " trees ("
            << result.stats.tree_nodes << " nodes) saved to " << out << "\n";
  } else {
    if (!cmp::SaveTree(result.tree, out)) {
      std::cerr << "failed to write " << out << "\n";
      return kExitIo;
    }
    summary << "tree with " << result.tree.num_nodes() << " nodes saved to "
            << out << "\n";
  }
  collector.SetIoSeconds(load_s, save.Seconds());
  if (!stats_path.empty()) return WriteStatsJson(collector, stats_path);
  return kExitOk;
}

int CmdEval(int argc, char** argv) {
  const std::string data = GetFlag(argc, argv, "--data");
  const std::string tree_path = GetFlag(argc, argv, "--tree");
  if (data.empty() || tree_path.empty()) return Usage();
  cmp::Dataset ds;
  if (!LoadAnyDataset(data, &ds)) {
    std::cerr << "failed to read " << data << "\n";
    return kExitIo;
  }
  std::vector<cmp::DecisionTree> trees;
  if (!cmp::LoadTrees(tree_path, &trees) || trees.empty()) {
    std::cerr << "failed to read " << tree_path << "\n";
    return kExitIo;
  }
  const cmp::Schema& model_schema = trees.front().schema();
  std::vector<cmp::ClassId> to_model;
  if (!MatchSchema(data, ds.schema(), model_schema, &to_model)) {
    return kExitIo;
  }
  if (ds.schema().class_names() != model_schema.class_names()) {
    ds = WithModelClasses(ds, model_schema, to_model);
  }
  // A single tree scores by its leaves; a cmp-forest (boost output) by
  // the probability vote its leaf encoding is built for.
  const cmp::BatchPredictor predictor(CompileTrees(trees),
                                      cmp::VoteKind::kAverageProb);
  std::cout << cmp::Evaluate(predictor, ds).ToString(ds.schema());
  return kExitOk;
}

// Packs one or more text trees into a single .cmpb blob. The blob is
// the serving format: cmpserve mmaps it, and predict accepts it
// directly.
int CmdCompile(int argc, char** argv) {
  const std::string tree_arg = GetFlag(argc, argv, "--tree");
  const std::string out = GetFlag(argc, argv, "--out");
  if (tree_arg.empty() || out.empty()) return Usage();

  std::vector<cmp::DecisionTree> trees;
  std::stringstream paths(tree_arg);
  for (std::string path; std::getline(paths, path, ',');) {
    // Each path may be a single tree or a whole cmp-forest (boost
    // output); forests flatten into the blob's tree list in order.
    std::vector<cmp::DecisionTree> loaded;
    if (!cmp::LoadTrees(path, &loaded)) {
      std::cerr << "failed to read " << path << "\n";
      return kExitIo;
    }
    for (cmp::DecisionTree& t : loaded) trees.push_back(std::move(t));
  }
  if (trees.empty()) return Usage();

  std::vector<const cmp::DecisionTree*> ptrs;
  ptrs.reserve(trees.size());
  for (const cmp::DecisionTree& t : trees) ptrs.push_back(&t);
  std::string error;
  if (!cmp::SaveModelBlob(ptrs, out, &error)) {
    std::cerr << "failed to compile " << out << ": " << error << "\n";
    return kExitIo;
  }
  std::cerr << "compiled " << trees.size() << " tree(s) -> " << out << "\n";
  return kExitOk;
}

// Records per block of predict's pipeline: large enough that the
// per-block hand-off costs nothing measurable, small enough that the
// blocks in flight take a few MB whatever the table's size.
constexpr int64_t kPredictBlock = 16384;

void AppendInt(int64_t v, std::string* out) {
  char tmp[24];
  out->append(tmp, std::to_chars(tmp, tmp + sizeof(tmp), v).ptr);
}

// Formats predict's CSV. Class names are looked up in the model's
// schema, never built per row. Rows is safe to call from several
// threads at once.
class PredictCsv {
 public:
  // `model_schema` must outlive the formatter.
  PredictCsv(const cmp::Schema& model_schema, const cmp::PredictOptions& opts)
      : schema_(model_schema),
        want_probs_(opts.want_probs),
        top_k_(opts.top_k) {}

  void Header(std::string* out) const {
    out->append("record,actual,predicted,correct");
    if (want_probs_) {
      for (cmp::ClassId c = 0; c < schema_.num_classes(); ++c) {
        out->append(",prob_");
        out->append(schema_.class_name(c));
      }
    }
    if (top_k_ > 1) {
      for (int k = 0; k < top_k_; ++k) {
        out->append(",top");
        AppendInt(k + 1, out);
      }
    }
    out->push_back('\n');
  }

  // Appends the rows of a scored block whose first record is `begin`.
  // `labels` are the data's class ids, which `to_model` maps to the
  // model's. Returns how many rows were predicted correctly.
  int64_t Rows(int64_t begin, const cmp::ClassId* labels,
               const std::vector<cmp::ClassId>& to_model,
               const cmp::BatchResult& result, std::string* out) const {
    const int32_t nc = schema_.num_classes();
    int64_t correct = 0;
    for (size_t i = 0; i < result.labels.size(); ++i) {
      const cmp::ClassId actual = to_model[labels[i]];
      const cmp::ClassId predicted = result.labels[i];
      if (actual == predicted) ++correct;
      AppendInt(begin + static_cast<int64_t>(i), out);
      out->push_back(',');
      out->append(schema_.class_name(actual));
      out->push_back(',');
      PutClass(predicted, out);
      out->append(actual == predicted ? ",1" : ",0");
      if (want_probs_) {
        const float* probs = result.probs.data() + i * nc;
        for (int32_t c = 0; c < nc; ++c) {
          out->push_back(',');
          cmp::AppendFloat(probs[c], out);
        }
      }
      if (top_k_ > 1) {
        const cmp::ClassId* topk = result.topk.data() + i * top_k_;
        for (int k = 0; k < top_k_; ++k) {
          out->push_back(',');
          PutClass(topk[k], out);
        }
      }
      out->push_back('\n');
    }
    return correct;
  }

 private:
  void PutClass(cmp::ClassId c, std::string* out) const {
    if (c == cmp::kInvalidClass) {
      out->push_back('?');
    } else if (c < schema_.num_classes()) {
      out->append(schema_.class_name(c));
    } else {
      out->append("class");
      AppendInt(c, out);
    }
  }

  const cmp::Schema& schema_;
  const bool want_probs_;
  const int top_k_;
};

// Predict's input: a .cmpt table, read a block at a time, or a CSV or
// ARFF file parsed whole into `text`. Read may run on several threads at
// once, each with its own Reader.
struct PredictInput {
  // One thread's read state. A table gets its own scanner and staging
  // block per thread, so every thread reads, and runs ReadBlock's NaN
  // and range checks, on its own.
  struct Reader {
    std::unique_ptr<cmp::TableScanner> scanner;
    cmp::ColumnBlock block;
    cmp::BlockView view;
  };

  // Points `r->view` at records [begin, begin + count): zero-copy slices
  // of `text`, or a block read from the table. False if the block cannot
  // be read or fails a check.
  bool Read(int64_t begin, int64_t count, Reader* r) const {
    if (text == nullptr) {
      if (r->scanner == nullptr) {
        r->scanner = cmp::TableScanner::Open(path, kPredictBlock);
      }
      if (r->scanner == nullptr ||
          !r->scanner->ReadBlock(begin, count, &r->block)) {
        return false;
      }
    }
    cmp::BlockView& view = r->view;
    const int32_t na = schema.num_attrs();
    view.begin = begin;
    view.count = count;
    view.numeric.assign(na, nullptr);
    view.categorical.assign(na, nullptr);
    for (cmp::AttrId a = 0; a < na; ++a) {
      if (schema.is_numeric(a)) {
        view.numeric[a] = text != nullptr
                              ? text->numeric_column(a).data() + begin
                              : r->block.numeric_col(a);
      } else {
        view.categorical[a] = text != nullptr
                                  ? text->categorical_column(a).data() + begin
                                  : r->block.categorical_col(a);
      }
    }
    view.labels = text != nullptr ? text->labels().data() + begin
                                  : r->block.labels();
    return true;
  }

  std::string path;
  cmp::Schema schema;
  const cmp::Dataset* text = nullptr;  // set for CSV and ARFF
};

// One block of predict's output on its way from the thread that made it
// to the thread that writes it. The times are on the command's clock:
// when the block was started, and when its reading, scoring and
// formatting ended.
struct PredictSlot {
  std::string csv;
  int64_t correct = 0;
  int64_t abstained = 0;
  bool ok = false;
  std::string error;  // what a failed block threw; empty for a bad read
  double start = 0.0;
  double read_end = 0.0;
  double score_end = 0.0;
  double format_end = 0.0;
};

// Predict's ordered block pipeline. Block k is one unit of work: a
// thread takes it, reads, checks, scores and formats it into slot
// k % slots, and the calling thread writes the slots out strictly in
// block order. Blocks are taken at most `slots` ahead of the next one to
// write, so memory is bounded by the slots, not by the table.
//
// There are `workers` worker threads. When they leave a hardware thread
// free, the calling thread takes blocks too: whenever the block it must
// write next is unfinished, it runs the next untaken block itself
// instead of waiting. With one worker two blocks are therefore in
// flight, which is what keeps --threads 1 as fast as the older
// read-on-one-thread, write-on-another pipeline. With a worker per
// hardware thread it only writes, because a block it ran would hold up
// the writes behind it. The workers are plain threads rather than
// ThreadPool tasks because each keeps its own reader for the whole run,
// and ThreadPool(1) would start none.
class PredictPipeline {
 public:
  // `run(k, slot, reader)` fills `slot` with block k and returns false if
  // the block could not be read; it may throw. It and `clock` must
  // outlive the pipeline.
  using RunFn = std::function<bool(int64_t, PredictSlot*,
                                   PredictInput::Reader*)>;

  PredictPipeline(int workers, int64_t num_blocks, const cmp::Timer& clock,
                  RunFn run)
      : workers_(workers),
        num_blocks_(num_blocks),
        clock_(clock),
        run_(std::move(run)),
        helps_(static_cast<unsigned>(workers) <
               std::max(2u, std::thread::hardware_concurrency())),
        slots_(static_cast<size_t>(2 * workers + 2)),
        done_(slots_.size(), false) {}
  ~PredictPipeline() { Stop(); }

  PredictPipeline(const PredictPipeline&) = delete;
  PredictPipeline& operator=(const PredictPipeline&) = delete;

  // Hands each finished block's slot, in block order, to `commit` until
  // every block is committed or `commit` returns false, then stops the
  // workers. Returns whether every block was committed. `reader` is the
  // calling thread's own.
  bool Run(const std::function<bool(const PredictSlot&)>& commit,
           PredictInput::Reader* reader) {
    double mark = clock_.Seconds();
    for (int i = 0; i < workers_; ++i) {
      try {
        threads_.emplace_back([this] { Work(); });
      } catch (const std::system_error&) {
        helps_ = true;  // the calling thread runs what no worker takes
        break;
      }
    }
    bool all = true;
    for (int64_t k = 0; k < num_blocks_ && all; ++k) {
      const size_t s = static_cast<size_t>(k) % slots_.size();
      std::unique_lock<std::mutex> lock(mu_);
      while (!done_[s]) {
        if (helps_ && Untaken()) {
          const int64_t j = taken_++;
          lock.unlock();
          RunBlock(j, reader);
          Charge(slots_[static_cast<size_t>(j) % slots_.size()], &mark);
          lock.lock();
        } else {
          finished_.wait(lock, [this, s] { return done_[s]; });
        }
      }
      lock.unlock();
      const PredictSlot& slot = slots_[s];
      Charge(slot, &mark);
      busy_read_s_ += slot.read_end - slot.start;
      busy_score_s_ += slot.score_end - slot.read_end;
      busy_format_s_ += slot.format_end - slot.score_end;
      all = commit(slot);
      const double now = clock_.Seconds();
      write_s_ += now - mark;
      busy_write_s_ += now - mark;
      mark = now;
      lock.lock();
      done_[s] = false;
      ++written_;
      lock.unlock();
      space_.notify_one();
    }
    Stop();
    write_s_ += clock_.Seconds() - mark;
    return all;
  }

  // The calling thread's time in Run, by the stage it ran or waited on:
  // reading, scoring, or formatting and writing.
  double load_s() const { return load_s_; }
  double score_s() const { return score_s_; }
  double write_s() const { return write_s_; }
  // Each stage's seconds summed over every block committed, whichever
  // thread ran it; writing is the calling thread's alone.
  double busy_read_s() const { return busy_read_s_; }
  double busy_score_s() const { return busy_score_s_; }
  double busy_format_s() const { return busy_format_s_; }
  double busy_write_s() const { return busy_write_s_; }

 private:
  // True when a block is left and there is a slot for it; needs mu_.
  bool Untaken() const {
    return !stop_ && taken_ < num_blocks_ &&
           taken_ - written_ < static_cast<int64_t>(slots_.size());
  }

  void Work() {
    PredictInput::Reader reader;
    for (;;) {
      int64_t k = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        space_.wait(lock, [this] {
          return Untaken() || stop_ || taken_ == num_blocks_;
        });
        if (!Untaken()) return;
        k = taken_++;
      }
      RunBlock(k, &reader);
    }
  }

  void RunBlock(int64_t k, PredictInput::Reader* reader) {
    const size_t s = static_cast<size_t>(k) % slots_.size();
    PredictSlot& slot = slots_[s];
    slot.start = clock_.Seconds();
    slot.read_end = slot.score_end = slot.format_end = slot.start;
    slot.error.clear();
    try {
      slot.ok = run_(k, &slot, reader);
    } catch (const std::exception& e) {  // e.g. out of memory
      slot.ok = false;
      slot.error = e.what();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_[s] = true;
    }
    finished_.notify_one();
  }

  // Stops handing out blocks and joins the workers, which finish the
  // block they hold first.
  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    space_.notify_all();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  // Charges the calling thread's time since `*mark` to the stages of
  // `slot`, the block it ran or waited on: up to the end of reading to
  // load, then to score, and from the end of scoring on to write.
  void Charge(const PredictSlot& slot, double* mark) {
    const double now = clock_.Seconds();
    auto within = [&](double lo, double hi) {
      return std::max(0.0, std::min(now, hi) - std::max(*mark, lo));
    };
    const double to_read = within(*mark, slot.read_end);
    const double to_score = within(slot.read_end, slot.score_end);
    load_s_ += to_read;
    score_s_ += to_score;
    write_s_ += now - *mark - to_read - to_score;
    *mark = now;
  }

  const int workers_;
  const int64_t num_blocks_;
  const cmp::Timer& clock_;
  const RunFn run_;
  bool helps_;  // whether the calling thread runs blocks too
  std::vector<PredictSlot> slots_;
  std::vector<bool> done_;  // per slot; guarded by mu_, as are the rest
  int64_t taken_ = 0;       // blocks handed to a thread
  int64_t written_ = 0;     // blocks committed
  bool stop_ = false;
  std::mutex mu_;
  std::condition_variable space_;     // a slot was freed, or a stop
  std::condition_variable finished_;  // a block was finished
  std::vector<std::thread> threads_;
  double load_s_ = 0.0;  // calling thread only, as are the rest
  double score_s_ = 0.0;
  double write_s_ = 0.0;
  double busy_read_s_ = 0.0;
  double busy_score_s_ = 0.0;
  double busy_format_s_ = 0.0;
  double busy_write_s_ = 0.0;
};

// Batch scoring through the compiled inference path: one BatchPredictor
// over one tree or several (a comma-separated list, a forest or a
// multi-tree blob), which --vote combines. Predictions go to --out as CSV
// (stdout when omitted, with the summary moved to stderr so the two
// streams stay separable).
//
// The command is a PredictPipeline over blocks of kPredictBlock records.
// A .cmpt table is read a block at a time by whichever thread takes the
// block; CSV and ARFF are parsed whole first and then sliced. --threads
// sets the worker count (0, the default, is one per hardware thread);
// the bytes written do not depend on it.
//
// The phases line charges this thread's wall time, so the three sum to
// wall_s. io.holdout_load_s is the setup before the first block (opening
// or parsing the input, loading the model) plus the time this thread
// spent reading blocks or waiting on blocks being read; infer.score_s is
// the same for scoring; predict.write_s for formatting, its own writes
// and the final flush. The busy line sums each stage's seconds over all
// threads, so it shows what ran in parallel.
int CmdPredict(int argc, char** argv) {
  const std::string data = GetFlag(argc, argv, "--data");
  const std::string tree_arg = GetFlag(argc, argv, "--tree");
  const std::string out_path = GetFlag(argc, argv, "--out");
  if (data.empty() || tree_arg.empty()) return Usage();

  cmp::PredictOptions opts;
  int64_t top_k = 1;
  if (!ParseIntFlag(argc, argv, "--threads", 0, kMaxThreads, 0,
                    &opts.num_threads) ||
      !ParseWholeFlag(argc, argv, "--top-k", 1, 65536, 1, &top_k)) {
    return kExitBadArgs;
  }
  const int workers =
      opts.num_threads > 0
          ? opts.num_threads
          : std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  // Each block is scored whole on the thread that holds it.
  opts.num_threads = 1;
  opts.want_probs = HasFlag(argc, argv, "--probs");
  if (!ParseDecimalFlag(argc, argv, "--abstain", 0.0, 1.0,
                        opts.abstain_threshold, &opts.abstain_threshold)) {
    return kExitBadArgs;
  }
  const std::string vote_name = GetFlag(argc, argv, "--vote", "majority");
  if (vote_name != "majority" && vote_name != "prob") {
    std::cerr << "unknown vote kind " << vote_name << "\n";
    return kExitBadArgs;
  }

  const cmp::Timer wall;
  cmp::Dataset text_table;
  PredictInput input;
  input.path = data;
  PredictInput::Reader reader;  // this thread's
  int64_t rows = 0;
  bool opened = false;
  if (IsTextDataset(data)) {
    opened = LoadAnyDataset(data, &text_table);
    input.text = &text_table;
    input.schema = text_table.schema();
    rows = text_table.num_records();
  } else {
    reader.scanner = cmp::TableScanner::Open(data, kPredictBlock);
    opened = reader.scanner != nullptr;
    if (opened) {
      input.schema = reader.scanner->schema();
      rows = reader.scanner->num_records();
    }
  }
  if (!opened) {
    std::cerr << "failed to read " << data << "\n";
    return kExitIo;
  }

  // The model is either comma-separated text trees or one compiled
  // .cmpb blob (cmptool compile's output).
  const bool is_blob = tree_arg.ends_with(".cmpb");
  std::vector<cmp::DecisionTree> trees;
  cmp::CompiledModel model;
  if (is_blob) {
    std::string error;
    if (!cmp::LoadCompiledModel(tree_arg, &model, &error)) {
      std::cerr << "failed to read " << tree_arg << ": " << error << "\n";
      return kExitIo;
    }
  } else {
    std::stringstream paths(tree_arg);
    for (std::string path; std::getline(paths, path, ',');) {
      std::vector<cmp::DecisionTree> loaded;
      if (!cmp::LoadTrees(path, &loaded)) {
        std::cerr << "failed to read " << path << "\n";
        return kExitIo;
      }
      for (cmp::DecisionTree& t : loaded) trees.push_back(std::move(t));
    }
    if (trees.empty()) return Usage();
  }
  const cmp::Schema& model_schema =
      is_blob ? *model.schema : trees.front().schema();
  std::vector<cmp::ClassId> to_model;
  if (!MatchSchema(data, input.schema, model_schema, &to_model)) {
    return kExitIo;
  }

  // The predictor clamps top_k to the class count internally; clamp here
  // too so the CSV formatter indexes the returned topk table with the
  // same k the predictor sized it with.
  opts.top_k = static_cast<int>(
      std::min<int64_t>(top_k, model_schema.num_classes()));
  const cmp::BatchPredictor predictor(
      is_blob ? std::move(model.trees) : CompileTrees(trees),
      vote_name == "prob" ? cmp::VoteKind::kAverageProb
                          : cmp::VoteKind::kMajority,
      opts);

  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::cerr << "failed to write " << out_path << "\n";
      return kExitIo;
    }
  }
  std::ostream& out = out_path.empty() ? std::cout : file;
  std::ostream& summary = out_path.empty() ? std::cerr : std::cout;
  const PredictCsv csv(model_schema, opts);
  std::string header;
  csv.Header(&header);
  out.write(header.data(), static_cast<std::streamsize>(header.size()));

  const auto run = [&](int64_t k, PredictSlot* slot,
                       PredictInput::Reader* r) {
    const int64_t begin = k * kPredictBlock;
    const int64_t count = std::min(kPredictBlock, rows - begin);
    if (!input.Read(begin, count, r)) return false;
    const cmp::BlockView& view = r->view;
    slot->read_end = wall.Seconds();
    const cmp::BatchResult result = predictor.PredictColumns(
        view.numeric.data(), view.categorical.data(), count);
    slot->score_end = wall.Seconds();
    slot->abstained = result.num_abstained;
    slot->csv.clear();
    slot->correct = csv.Rows(begin, view.labels, to_model, result, &slot->csv);
    slot->format_end = wall.Seconds();
    return true;
  };
  std::string failure;  // why a block failed
  int64_t correct = 0;
  int64_t abstained = 0;
  const auto commit = [&](const PredictSlot& slot) {
    if (!slot.ok) {
      failure = slot.error.empty()
                    ? "failed to read " + data
                    : "failed to score " + data + ": " + slot.error;
      return false;
    }
    out.write(slot.csv.data(), static_cast<std::streamsize>(slot.csv.size()));
    correct += slot.correct;
    abstained += slot.abstained;
    return out.good();
  };
  PredictPipeline pipeline(workers, (rows + kPredictBlock - 1) / kPredictBlock,
                           wall, run);
  const double setup_seconds = wall.Seconds();
  const bool committed = pipeline.Run(commit, &reader);
  if (!failure.empty()) {
    // A block failed its NaN or range check, or threw: no partial
    // predictions.
    if (!out_path.empty()) {
      file.close();
      std::error_code ec;
      if (std::filesystem::is_regular_file(out_path, ec)) {
        std::filesystem::remove(out_path, ec);
      }
    }
    std::cerr << failure << "\n";
    return kExitIo;
  }
  const cmp::Timer drain;
  const bool written = committed && out.flush().good();
  const double flush_seconds = drain.Seconds();
  if (!written) {
    std::cerr << "failed to write "
              << (out_path.empty() ? std::string("stdout") : out_path)
              << "\n";
    return kExitIo;
  }
  const double wall_seconds = wall.Seconds();

  const double accuracy =
      rows == 0 ? 0.0
                : static_cast<double>(correct) / static_cast<double>(rows);
  char acc_buf[32];
  std::snprintf(acc_buf, sizeof(acc_buf), "%.4f", accuracy);
  summary << "accuracy: " << acc_buf << " (" << correct << "/" << rows
          << ")\n";
  if (abstained > 0) summary << "abstained: " << abstained << "\n";
  const double score_busy = pipeline.busy_score_s();
  summary << "scored " << rows << " records with " << predictor.num_trees()
          << " tree(s) in " << score_busy << "s ("
          << static_cast<int64_t>(rows / std::max(score_busy, 1e-9))
          << " rows/s per thread, " << workers << " thread(s), "
          << cmp::KernelIsaName(cmp::ActiveKernelIsa()) << " kernel)\n";
  // The same layer names as the repository benchmark's predict ledger.
  summary << "phases: io.holdout_load_s=" << setup_seconds + pipeline.load_s()
          << " infer.score_s=" << pipeline.score_s()
          << " predict.write_s=" << pipeline.write_s() + flush_seconds
          << " wall_s=" << wall_seconds << "\n";
  summary << "busy: io.holdout_load_s=" << pipeline.busy_read_s()
          << " infer.score_s=" << score_busy
          << " predict.format_s=" << pipeline.busy_format_s()
          << " predict.write_s=" << pipeline.busy_write_s() + flush_seconds
          << " workers=" << workers << "\n";
  return kExitOk;
}

int CmdDot(int argc, char** argv) {
  const std::string tree_path = GetFlag(argc, argv, "--tree");
  if (tree_path.empty()) return Usage();
  cmp::DecisionTree tree;
  if (!cmp::LoadTree(tree_path, &tree)) {
    std::cerr << "failed to read " << tree_path << "\n";
    return kExitIo;
  }
  std::cout << cmp::ToDot(tree);
  return kExitOk;
}

int CmdExplain(int argc, char** argv) {
  const std::string data = GetFlag(argc, argv, "--data");
  const std::string tree_path = GetFlag(argc, argv, "--tree");
  if (data.empty() || tree_path.empty()) return Usage();
  int64_t record = 0;
  if (!ParseWholeFlag(argc, argv, "--record", 0,
                      std::numeric_limits<int64_t>::max(), 0, &record)) {
    return kExitBadArgs;
  }
  cmp::Dataset ds;
  if (!LoadAnyDataset(data, &ds)) {
    std::cerr << "failed to read " << data << "\n";
    return kExitIo;
  }
  cmp::DecisionTree tree;
  if (!cmp::LoadTree(tree_path, &tree)) {
    std::cerr << "failed to read " << tree_path << "\n";
    return kExitIo;
  }
  if (record < 0 || record >= ds.num_records()) {
    std::cerr << "record out of range\n";
    return kExitBadArgs;
  }
  const cmp::Explanation why = cmp::Explain(tree, ds, record);
  std::cout << "record " << record << " (actual: "
            << ds.schema().class_name(ds.label(record)) << ")\n"
            << why.ToString(ds.schema());
  return kExitOk;
}

int CmdInfo(int argc, char** argv) {
  const std::string data = GetFlag(argc, argv, "--data");
  if (data.empty()) return Usage();
  cmp::Dataset ds;
  if (!LoadAnyDataset(data, &ds)) {
    std::cerr << "failed to read " << data << "\n";
    return kExitIo;
  }
  std::cout << cmp::Summarize(ds).ToString(ds.schema());
  return kExitOk;
}

int CmdImportance(int argc, char** argv) {
  const std::string tree_path = GetFlag(argc, argv, "--tree");
  if (tree_path.empty()) return Usage();
  cmp::DecisionTree tree;
  if (!cmp::LoadTree(tree_path, &tree)) {
    std::cerr << "failed to read " << tree_path << "\n";
    return kExitIo;
  }
  const std::vector<double> importance = cmp::GiniImportance(tree);
  std::cout << cmp::ImportanceToString(tree, importance);
  return kExitOk;
}

int CmdShow(int argc, char** argv) {
  const std::string tree_path = GetFlag(argc, argv, "--tree");
  if (tree_path.empty()) return Usage();
  std::vector<cmp::DecisionTree> trees;
  if (!cmp::LoadTrees(tree_path, &trees) || trees.empty()) {
    std::cerr << "failed to read " << tree_path << "\n";
    return kExitIo;
  }
  if (trees.size() == 1) {
    std::cout << trees[0].ToString();
    return kExitOk;
  }
  for (size_t i = 0; i < trees.size(); ++i) {
    std::cout << "=== tree " << (i + 1) << "/" << trees.size() << " ===\n"
              << trees[i].ToString();
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  // --kernel applies to every subcommand; resolve it before any work
  // touches the dispatch tables. Rejecting an unknown or unsupported
  // tier here keeps "bad flag" failures on the bad-args exit code.
  std::string kernel_error;
  if (!cmp::SelectKernelIsaByName(
          GetFlag(argc - 2, argv + 2, "--kernel", "auto"), &kernel_error)) {
    std::cerr << kernel_error << "\n";
    return kExitBadArgs;
  }
  const std::string cmd = argv[1];
  if (cmd == "gen") return CmdGen(argc - 2, argv + 2);
  if (cmd == "train") return CmdTrain(argc - 2, argv + 2);
  if (cmd == "refit") return CmdRefit(argc - 2, argv + 2);
  if (cmd == "eval") return CmdEval(argc - 2, argv + 2);
  if (cmd == "compile") return CmdCompile(argc - 2, argv + 2);
  if (cmd == "predict") return CmdPredict(argc - 2, argv + 2);
  if (cmd == "show") return CmdShow(argc - 2, argv + 2);
  if (cmd == "dot") return CmdDot(argc - 2, argv + 2);
  if (cmd == "explain") return CmdExplain(argc - 2, argv + 2);
  if (cmd == "info") return CmdInfo(argc - 2, argv + 2);
  if (cmd == "importance") return CmdImportance(argc - 2, argv + 2);
  return Usage();
}
