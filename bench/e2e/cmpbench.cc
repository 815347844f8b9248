// cmpbench: driver of the repository benchmark (bench/e2e/README.md).
//
// One process runs one workload. It generates its Agrawal tables from
// the seed (training seed S, holdout seed S+1), then
//   * end-to-end: runs the real `cmptool train|compile|predict` and
//     `cmpserve` binaries as child processes, untraced, and times what a
//     user waits for;
//   * per-layer: times calls into the library's public functions
//     in-process (io, hist, cmp, exact, pruning, infer, serve), with a
//     TrainObserver recording a steady_clock stamp at every callback.
// Every output is verified before it counts: tree files byte-identical
// across reps and to the in-process tree, `cmptool predict` labels equal
// to in-process BatchPredictor labels, every served reply equal to the
// label of model A or model B.
//
//   cmpbench --workload W --seed N [--seconds S] [--trace 0|1|both]
//            [--quick] [--json FILE] [--commit SHA]
//
// stdout gets two header lines, one `name value unit` line per metric
// (plus the layer ledger or the ladder), and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, 1 the per-layer metrics, both (default) all.
// Exit codes: 0 verified, 1 the workload could not run, 2 bad
// arguments, 3 some output failed verification.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/thread_pool.h"
#include "datagen/agrawal.h"
#include "hist/bin_codes.h"
#include "hist/grid_builder.h"
#include "infer/batch_predictor.h"
#include "infer/model_io.h"
#include "io/table_file.h"
#include "serve/batcher.h"
#include "serve/client.h"
#include "serve/latency.h"
#include "serve/registry.h"
#include "tree/builder.h"
#include "tree/observer.h"
#include "tree/serialize.h"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------
// Metric catalogue. BENCHMARK.json lists the same names; a run reports
// every metric of the phase it ran, 0 for a layer the workload does not
// execute.

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"rows_per_s", "rows/s"},
      {"predict_p50_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

// Every rate any serving ladder visits.
const std::vector<int> kAllLadderRates = {500,   1000,  2000,  4000,
                                          8000,  16000, 32000, 64000};

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"io.load_s", "s"},
        {"cmp.setup_s", "s"},
        {"hist.grid_sort_s", "s"},
        {"hist.encode_s", "s"},
        {"cmp.scan_s", "s"},
        {"hist.kernel_s", "s"},
        {"cmp.plan_s", "s"},
        {"exact.finish_s", "s"},
        {"pruning.prune_s", "s"},
        {"io.save_s", "s"},
        {"cmp.gap_s", "s"},
        {"trace.wall_s", "s"},
        {"trace.overhead_frac", "fraction"},
        {"exact.sort_comparisons", "count"},
        {"cmp.passes", "count"},
        {"cmp.bytes_read", "bytes"},
        {"cmp.buffered_records", "count"},
        {"cmp.alive_intervals", "count"},
        {"cmp.sibling_subtractions", "count"},
        {"hist.code_cache_bytes", "bytes"},
        {"cmp.peak_memory_bytes", "bytes"},
        {"tree.nodes", "count"},
        {"tree.depth", "count"},
        {"tree.holdout_accuracy", "fraction"},
        {"io.holdout_load_s", "s"},
        {"infer.blob_load_ms", "ms"},
        {"infer.score_s", "s"},
        {"predict.write_s", "s"},
    };
    for (const int rate : kAllLadderRates) {
      const std::string p = "loadgen.r" + std::to_string(rate);
      d.push_back({p + ".p50_ms", "ms"});
      d.push_back({p + ".p99_ms", "ms"});
      d.push_back({p + ".n", "count"});
    }
    const std::vector<MetricDef> serve = {
        {"loadgen.late_p99_ms", "ms"},
        {"loadgen.max_rate_rows_per_s", "rows/s"},
        {"serve.server_p50_us", "us"},
        {"serve.server_p99_us", "us"},
        {"serve.wire_p50_us", "us"},
        {"serve.rows_per_batch", "rows"},
        {"serve.batch_fill", "fraction"},
        {"serve.batcher_p50_us", "us"},
        {"serve.closed_rtt_p50_ms", "ms"},
        {"infer.score_ns_per_row", "ns"},
        {"serve.registry_publish_ms", "ms"},
        {"serve.swap_ack_p50_ms", "ms"},
    };
    d.insert(d.end(), serve.begin(), serve.end());
    return d;
  }();
  return defs;
}

// ---------------------------------------------------------------------
// Small statistics.

// Linear interpolation between closest ranks (q in [0, 1]).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

// n / median / min / max of a rep series, as one JSON object.
std::string RepsJson(const std::vector<double>& v) {
  if (v.empty()) return "{\"n\": 0}";
  return "{\"n\": " + std::to_string(v.size()) + ", \"median\": " +
         Num(Median(v)) + ", \"min\": " +
         Num(*std::min_element(v.begin(), v.end())) + ", \"max\": " +
         Num(*std::max_element(v.begin(), v.end())) + "}";
}

// ---------------------------------------------------------------------
// Run report: metric values, verification outcome, scale and rep info.

// Key -> raw JSON value, rendered in insertion order.
using Fields = std::vector<std::pair<std::string, std::string>>;

std::string JsonObject(const Fields& kv) {
  std::string out = "{";
  for (size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(kv[i].first) + ": " + kv[i].second;
  }
  return out + "}";
}

class Report {
 public:
  void Set(const std::string& name, double value) {
    if (!Known(name)) throw std::logic_error("unknown metric " + name);
    values_[name] = value;
  }
  double Get(const std::string& name) const {
    const auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  void Attempt(int64_t n = 1) { attempted_ += n; }
  // Records `n` failed operations; `what` explains them in the result file.
  void Fail(const std::string& what, int64_t n = 1) {
    failed_ += n;
    if (failures_.size() < 20) failures_.push_back(JsonString(what));
    std::cerr << "cmpbench: FAILED " << what << "\n";
  }
  bool verified() const { return failed_ == 0; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  std::string MetricsJson(const std::vector<MetricDef>& defs) const {
    Fields kv;
    for (const MetricDef& d : defs) {
      kv.emplace_back(d.name, "{\"value\": " + Num(Get(d.name)) +
                                  ", \"unit\": " + JsonString(d.unit) + "}");
    }
    return JsonObject(kv);
  }
  std::string FailuresJson() const {
    std::string out = "[";
    for (size_t i = 0; i < failures_.size(); ++i) {
      out += (i > 0 ? ", " : "") + failures_[i];
    }
    return out + "]";
  }

  Fields scale;  // workload size and configuration
  Fields reps;   // per-rep series: n, median, min, max
  Fields extra;  // further top-level fields of the result file

 private:
  static bool Known(const std::string& name) {
    for (const auto* defs : {&EndToEndMetrics(), &LayerMetrics()}) {
      for (const MetricDef& d : *defs) {
        if (d.name == name) return true;
      }
    }
    return false;
  }

  std::map<std::string, double> values_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;  // JSON strings
};

// ---------------------------------------------------------------------
// Child processes.

struct Env {
  std::string self;  // this binary, for --run-child
  std::string cmptool;
  std::string cmpserve;
  fs::path work;
};

struct ProcResult {
  bool ok = false;
  double wall_s = 0.0;
  double maxrss_mb = 0.0;
};

std::string Tail(const fs::path& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text.size() > 600 ? text.substr(text.size() - 600) : text;
}

// posix_spawn with stdin from /dev/null and stdout+stderr into `log`.
pid_t Spawn(const std::vector<std::string>& argv, const fs::path& log) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  pid_t pid = -1;
  if (posix_spawn(&pid, args[0], &fa, nullptr, args.data(), environ) != 0) {
    pid = -1;
  }
  posix_spawn_file_actions_destroy(&fa);
  return pid;
}

// Reaps `pid`; returns false if it did not exit with status 0.
bool Reap(pid_t pid, double* maxrss_mb) {
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) return false;
  }
  if (maxrss_mb != nullptr) {
    *maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// `cmpbench --run-child RESULT LOG PROGRAM ARGS...`: runs PROGRAM and
// writes "<ok> <wall seconds> <peak RSS MB>" to RESULT. Linux carries the
// parent's peak RSS into a child's ru_maxrss across execve, so programs
// are started from this freshly exec'd, small process rather than from
// the driver, whose resident set holds whole tables.
int RunChildMode(int argc, char** argv) {
  if (argc < 5) return 2;
  const Clock::time_point t0 = Clock::now();
  const pid_t pid = Spawn(std::vector<std::string>(argv + 4, argv + argc),
                          argv[3]);
  ProcResult r;
  if (pid >= 0) r.ok = Reap(pid, &r.maxrss_mb);
  r.wall_s = Since(t0);
  std::ofstream out(argv[2], std::ios::trunc);
  out << (r.ok ? 1 : 0) << ' ' << Num(r.wall_s) << ' ' << Num(r.maxrss_mb)
      << '\n';
  return out ? 0 : 1;
}

// Runs a program to completion through --run-child; the wall time runs
// from its spawn to its reap.
ProcResult Run(const Env& env, const std::vector<std::string>& argv) {
  const fs::path log = env.work / "child.log";
  const fs::path result = env.work / "child.result";
  std::vector<std::string> wrapped = {env.self, "--run-child", result.string(),
                                      log.string()};
  wrapped.insert(wrapped.end(), argv.begin(), argv.end());
  fs::remove(result);
  ProcResult r;
  const pid_t pid = Spawn(wrapped, env.work / "run-child.log");
  const bool reaped = pid >= 0 && Reap(pid, nullptr);
  std::ifstream in(result);
  if (!reaped || !(in >> r.ok >> r.wall_s >> r.maxrss_mb)) r.ok = false;
  if (!r.ok) {
    std::cerr << "cmpbench: " << argv[0] << " " << argv[1] << " failed:\n"
              << Tail(log) << "\n";
  }
  return r;
}

bool ReadBytes(const fs::path& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return true;
}

// ---------------------------------------------------------------------
// Inputs.

bool MakeTable(cmp::AgrawalFunction fn, int64_t rows, uint64_t seed,
               const fs::path& path) {
  cmp::AgrawalOptions o;
  o.function = fn;
  o.num_records = rows;
  o.seed = seed;
  return cmp::SaveTableFile(cmp::GenerateAgrawal(o), path);
}

std::vector<std::string> ClassNames(const cmp::Schema& schema,
                                    const std::vector<cmp::ClassId>& labels) {
  std::vector<std::string> out;
  out.reserve(labels.size());
  for (const cmp::ClassId c : labels) {
    out.push_back(c >= 0 && c < schema.num_classes() ? schema.class_name(c)
                                                     : "?");
  }
  return out;
}

// Labels BatchPredictor assigns with default options (cmptool predict's
// scoring path) — the reference every program output is checked against.
std::vector<std::string> ExpectedLabels(const cmp::CompiledModel& model,
                                        const cmp::Dataset& data) {
  const cmp::BatchPredictor predictor(&model.trees.front(),
                                      cmp::PredictOptions{});
  return ClassNames(*model.schema, predictor.Predict(data, nullptr).labels);
}

// ---------------------------------------------------------------------
// Training workloads.

struct TrainSpec {
  std::string name;
  cmp::AgrawalFunction function;
  std::string algo;
  int threads;
  int64_t train_rows;
  int64_t holdout_rows;
};

// cmptool train's defaults, which the in-process builds must match for
// the tree bytes to agree.
constexpr int kIntervals = 100;

// Stamps every observer callback; the ledger is derived from the stamps
// and each pass's own phase timers.
class LedgerObserver final : public cmp::TrainObserver {
 public:
  void OnBuildStart(const std::string&, int64_t) override {
    start = Clock::now();
  }
  void OnPass(const cmp::PassObservation& pass) override {
    pass_end.push_back(Clock::now());
    passes.push_back(pass);
  }
  void OnBuildEnd(const cmp::BuildStats& stats) override {
    end = Clock::now();
    final_stats = stats;
  }

  Clock::time_point start;
  Clock::time_point end;
  std::vector<Clock::time_point> pass_end;
  std::vector<cmp::PassObservation> passes;
  cmp::BuildStats final_stats;
};

// One traced in-process training run, split into ledger layers.
struct TracedRun {
  std::map<std::string, double> t;  // layer seconds by metric name
  double wall = 0.0;
  cmp::BuildStats stats;
  std::vector<cmp::PassObservation> passes;
  std::string tree_bytes;
};

TracedRun RunTraced(const TrainSpec& spec, const fs::path& train_path,
                    const fs::path& save_path, bool time_hist) {
  LedgerObserver obs;
  cmp::BuilderConfig config;
  config.base.num_threads = spec.threads;
  config.base.observer = &obs;
  config.intervals = kIntervals;
  const std::unique_ptr<cmp::TreeBuilder> builder =
      cmp::MakeTreeBuilder(spec.algo, config);
  if (builder == nullptr) throw std::runtime_error("unknown algo " + spec.algo);

  TracedRun run;
  cmp::Dataset ds;
  const Clock::time_point t0 = Clock::now();
  if (!cmp::LoadTableFile(train_path, &ds)) {
    throw std::runtime_error("cannot load " + train_path.string());
  }
  const Clock::time_point t1 = Clock::now();
  cmp::BuildResult result = builder->Build(ds);
  const Clock::time_point t2 = Clock::now();
  if (!cmp::SaveTree(result.tree, save_path)) {
    throw std::runtime_error("cannot save " + save_path.string());
  }
  const Clock::time_point t3 = Clock::now();

  double scan = 0, kernel = 0, plan = 0, finish = 0;
  for (const cmp::PassObservation& p : obs.passes) {
    scan += p.scan_seconds;
    kernel += p.kernel_seconds;
    plan += p.plan_seconds;
    finish += p.finish_seconds;
  }
  // Setup runs from OnBuildStart to the start of pass 0, which is pass
  // 0's end stamp minus its timed phases.
  double setup = Seconds(obs.start, obs.end);
  double prune = 0.0;
  if (!obs.passes.empty()) {
    const cmp::PassObservation& p0 = obs.passes.front();
    setup = Seconds(obs.start, obs.pass_end.front()) -
            (p0.scan_seconds + p0.plan_seconds + p0.finish_seconds);
    prune = Seconds(obs.pass_end.back(), obs.end);
  }
  run.wall = Seconds(t0, t3);
  run.t["io.load_s"] = Seconds(t0, t1);
  run.t["cmp.setup_s"] = setup;
  run.t["cmp.scan_s"] = scan;
  run.t["hist.kernel_s"] = kernel;
  run.t["cmp.plan_s"] = plan;
  run.t["exact.finish_s"] = finish;
  run.t["pruning.prune_s"] = prune;
  run.t["io.save_s"] = Seconds(t2, t3);
  run.t["cmp.gap_s"] = run.wall - (Seconds(t0, t1) + setup + scan + plan +
                                   finish + prune + Seconds(t2, t3));
  run.stats = obs.final_stats;
  run.passes = obs.passes;
  run.tree_bytes = cmp::SerializeTree(result.tree);

  if (time_hist) {
    // The setup layer's two halves, through the same public calls the
    // build driver makes: one sorted grid per numeric column, then the
    // bin-code encoding of every column. Busy seconds, summed over
    // columns (the driver fans columns across its pool when threads > 1).
    const cmp::Schema& schema = ds.schema();
    const int64_t n = ds.num_records();
    double sort_s = 0.0;
    double encode_s = 0.0;
    Clock::time_point t = Clock::now();
    cmp::BinCodeCache codes(schema, n, kIntervals);
    encode_s += Since(t);
    for (const cmp::AttrId a : schema.NumericAttrs()) {
      const std::vector<double> column = ds.numeric_column(a);
      t = Clock::now();
      cmp::ExactAttrGridBuilder grid_builder;
      grid_builder.Add(column.data(), n);
      const cmp::AttrGridResult grid =
          grid_builder.Finish(kIntervals, cmp::Discretization::kEqualDepth);
      sort_s += Since(t);
      t = Clock::now();
      if (codes.enabled()) codes.EncodeNumericColumn(a, grid.grid, column);
      encode_s += Since(t);
    }
    if (codes.enabled()) {
      std::vector<cmp::ClassId> labels = ds.labels();
      t = Clock::now();
      codes.SetLabels(std::move(labels));
      for (const cmp::AttrId a : schema.CategoricalAttrs()) {
        codes.EncodeCategoricalColumn(a, ds.categorical_column(a));
      }
      encode_s += Since(t);
    }
    run.t["hist.grid_sort_s"] = sort_s;
    run.t["hist.encode_s"] = encode_s;
  }
  return run;
}

// Compares a `cmptool predict --out` CSV (record,actual,predicted,...)
// against the expected label names; returns the number of mismatches.
int64_t CsvMismatches(const fs::path& csv,
                      const std::vector<std::string>& expected) {
  std::string text;
  if (!ReadBytes(csv, &text)) return static_cast<int64_t>(expected.size());
  int64_t mismatches = 0;
  size_t row = 0;
  size_t pos = text.find('\n');  // skip the header
  while (pos != std::string::npos && pos + 1 < text.size()) {
    const size_t begin = pos + 1;
    const size_t end = text.find('\n', begin);
    const std::string line = text.substr(begin, end - begin);
    pos = end;
    const size_t c1 = line.find(',');
    const size_t c2 = line.find(',', c1 + 1);
    const size_t c3 = line.find(',', c2 + 1);
    if (c1 == std::string::npos || c2 == std::string::npos ||
        row >= expected.size() ||
        line.compare(c2 + 1, c3 - c2 - 1, expected[row]) != 0) {
      ++mismatches;
    }
    ++row;
  }
  if (row != expected.size()) ++mismatches;
  return mismatches;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool e2e = true;
  bool layers = true;
  bool quick = false;
};

void RunTrain(const TrainSpec& spec, const Options& opt, const Env& env,
              Report* rep) {
  const int64_t div = opt.quick ? 10 : 1;
  const int64_t n_train = spec.train_rows / div;
  const int64_t n_hold = spec.holdout_rows / div;
  rep->scale.emplace_back(
      "function",
      JsonString("F" + std::to_string(static_cast<int>(spec.function))));
  rep->scale.emplace_back("algo", JsonString(spec.algo));
  rep->scale.emplace_back("threads", std::to_string(spec.threads));
  rep->scale.emplace_back("train_rows", std::to_string(n_train));
  rep->scale.emplace_back("holdout_rows", std::to_string(n_hold));

  const fs::path train = env.work / "train.cmpt";
  const fs::path hold = env.work / "holdout.cmpt";
  const fs::path ref_tree = env.work / "ref.tree";
  const fs::path rep_tree = env.work / "rep.tree";
  const fs::path traced_tree = env.work / "traced.tree";
  const fs::path blob = env.work / "model.cmpb";
  const fs::path csv = env.work / "preds.csv";
  if (!MakeTable(spec.function, n_train, opt.seed, train) ||
      !MakeTable(spec.function, n_hold, opt.seed + 1, hold)) {
    throw std::runtime_error("cannot write input tables");
  }

  auto train_argv = [&](const fs::path& out) {
    return std::vector<std::string>{
        env.cmptool, "train", "--data", train.string(), "--algo", spec.algo,
        "--threads", std::to_string(spec.threads), "--out", out.string()};
  };
  const std::vector<std::string> predict_argv = {
      env.cmptool, "predict", "--data", hold.string(), "--tree",
      blob.string(), "--out", csv.string()};

  // Warm-up (untimed): the reference tree, its blob and the expected
  // holdout labels.
  std::string ref_bytes;
  rep->Attempt(2);
  if (!Run(env, train_argv(ref_tree)).ok ||
      !ReadBytes(ref_tree, &ref_bytes) ||
      !Run(env, {env.cmptool, "compile", "--tree", ref_tree.string(), "--out",
                 blob.string()}).ok) {
    rep->Fail("reference train/compile");
    return;
  }
  std::vector<std::string> expected;
  {
    cmp::Dataset holdout;
    cmp::CompiledModel model;
    std::string error;
    if (!cmp::LoadTableFile(hold, &holdout) ||
        !cmp::LoadCompiledModel(blob, &model, &error)) {
      rep->Fail("load holdout/model in process: " + error);
      return;
    }
    expected = ExpectedLabels(model, holdout);
    int64_t correct = 0;
    for (int64_t r = 0; r < holdout.num_records(); ++r) {
      correct += expected[r] == holdout.schema().class_name(holdout.label(r));
    }
    rep->Set("tree.holdout_accuracy",
             static_cast<double>(correct) / static_cast<double>(n_hold));
  }
  rep->Attempt();
  if (!Run(env, predict_argv).ok || CsvMismatches(csv, expected) != 0) {
    rep->Fail("warm-up cmptool predict labels differ from BatchPredictor");
  }

  std::vector<double> cli_train, cli_predict, rss, setup;
  std::vector<double> traced_wall, gap_frac;
  std::map<std::string, std::vector<double>> layer;
  TracedRun last;
  const int min_rounds = opt.quick ? 1 : 3;
  const int max_rounds = opt.quick ? 1 : 60;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < max_rounds &&
                      (round < min_rounds || Since(start) < opt.seconds);
       ++round) {
    // Untraced CLI training: byte-identical to the reference every time.
    rep->Attempt();
    const ProcResult tr = Run(env, train_argv(rep_tree));
    std::string bytes;
    if (!tr.ok || !ReadBytes(rep_tree, &bytes) || bytes != ref_bytes) {
      rep->Fail("cmptool train rep " + std::to_string(round) +
                " tree differs from the reference");
    } else {
      cli_train.push_back(tr.wall_s);
      rss.push_back(tr.maxrss_mb);
    }

    // Traced in-process build: same tree bytes, ledger layers.
    rep->Attempt();
    last = RunTraced(spec, train, traced_tree, opt.layers);
    if (last.tree_bytes != ref_bytes) {
      rep->Fail("in-process tree differs from cmptool's");
    }
    setup.push_back(last.t["io.load_s"] + last.t["cmp.setup_s"]);
    traced_wall.push_back(last.wall);
    gap_frac.push_back(last.t["cmp.gap_s"] / last.wall);
    for (const auto& [name, v] : last.t) layer[name].push_back(v);

    // Untraced CLI predict over the holdout, labels checked.
    rep->Attempt();
    const ProcResult pr = Run(env, predict_argv);
    if (!pr.ok || CsvMismatches(csv, expected) != 0) {
      rep->Fail("cmptool predict labels differ from BatchPredictor");
    } else {
      cli_predict.push_back(pr.wall_s);
    }

    if (opt.layers) {
      // The predict command's layers, through the same public calls.
      rep->Attempt();
      Clock::time_point t = Clock::now();
      cmp::Dataset holdout;
      const bool loaded = cmp::LoadTableFile(hold, &holdout);
      layer["io.holdout_load_s"].push_back(Since(t));
      t = Clock::now();
      cmp::CompiledModel model;
      std::string error;
      const bool blob_ok = cmp::LoadCompiledModel(blob, &model, &error);
      layer["infer.blob_load_ms"].push_back(Since(t) * 1e3);
      if (!loaded || !blob_ok) {
        rep->Fail("in-process holdout/blob load: " + error);
        continue;
      }
      t = Clock::now();
      const cmp::BatchResult scored =
          cmp::BatchPredictor(&model.trees.front(), cmp::PredictOptions{})
              .Predict(holdout, nullptr);
      layer["infer.score_s"].push_back(Since(t));
      if (ClassNames(*model.schema, scored.labels) != expected) {
        rep->Fail("in-process BatchPredictor labels changed between runs");
      }
    }
  }
  if (cli_train.empty() || cli_predict.empty()) {
    rep->Fail("no successful timed rep");
    return;
  }

  rep->reps.emplace_back("cmptool_train_s", RepsJson(cli_train));
  rep->reps.emplace_back("cmptool_predict_s", RepsJson(cli_predict));
  rep->reps.emplace_back("traced_wall_s", RepsJson(traced_wall));
  rep->reps.emplace_back("setup_s", RepsJson(setup));

  rep->Set("rows_per_s", static_cast<double>(n_train) / Median(cli_train));
  rep->Set("predict_p50_ms", Median(cli_predict) * 1e3);
  rep->Set("setup_s", Median(setup));
  // Median, not max: with several build threads glibc's per-thread arenas
  // make one process's peak vary by ~10% from run to run.
  rep->Set("peak_rss_mb", Median(rss));
  rep->reps.emplace_back("cmptool_train_peak_rss_mb", RepsJson(rss));

  if (!opt.layers) return;
  for (const auto& [name, v] : layer) rep->Set(name, Median(v));
  rep->Set("trace.wall_s", Median(traced_wall));
  rep->Set("trace.overhead_frac",
           Median(traced_wall) / Median(cli_train) - 1.0);
  rep->Set("predict.write_s",
           Median(cli_predict) - rep->Get("io.holdout_load_s") -
               rep->Get("infer.blob_load_ms") / 1e3 -
               rep->Get("infer.score_s"));
  int64_t alive = 0, subtract = 0, code_bytes = 0;
  for (const cmp::PassObservation& p : last.passes) {
    alive += p.alive_intervals;
    subtract += p.sibling_subtractions;
    code_bytes = std::max(code_bytes, p.code_cache_bytes);
  }
  rep->Set("exact.sort_comparisons",
           static_cast<double>(last.stats.sort_comparisons));
  rep->Set("cmp.passes", static_cast<double>(last.passes.size()));
  rep->Set("cmp.bytes_read", static_cast<double>(last.stats.bytes_read));
  rep->Set("cmp.buffered_records",
           static_cast<double>(last.stats.buffered_records));
  rep->Set("cmp.alive_intervals", static_cast<double>(alive));
  rep->Set("cmp.sibling_subtractions", static_cast<double>(subtract));
  rep->Set("hist.code_cache_bytes", static_cast<double>(code_bytes));
  rep->Set("cmp.peak_memory_bytes",
           static_cast<double>(last.stats.peak_memory_bytes));
  rep->Set("tree.nodes", static_cast<double>(last.stats.tree_nodes));
  rep->Set("tree.depth", static_cast<double>(last.stats.tree_depth));

  // The ledger: layers that partition the traced wall time, then the
  // parts measured inside them.
  const double wall = rep->Get("trace.wall_s");
  const double gap = Median(gap_frac);
  const bool closes = gap <= 0.05;
  const double setup_total = rep->Get("io.load_s") + rep->Get("cmp.setup_s");
  const double setup_explained =
      (rep->Get("io.load_s") + rep->Get("hist.grid_sort_s") +
       rep->Get("hist.encode_s")) / setup_total;
  std::printf("ledger (median of %zu traced runs, wall %.4f s)\n",
              traced_wall.size(), wall);
  for (const char* name : {"io.load_s", "cmp.setup_s", "cmp.scan_s",
                           "cmp.plan_s", "exact.finish_s", "pruning.prune_s",
                           "io.save_s", "cmp.gap_s"}) {
    const double v = rep->Get(name);
    std::printf("  %-22s %9.4f s %6.1f%%\n", name, v, 100.0 * v / wall);
  }
  std::printf("  %-22s %9.4f s  (inside cmp.scan_s)\n", "hist.kernel_s",
              rep->Get("hist.kernel_s"));
  std::printf("  %-22s %9.4f s  (setup replay, summed over columns)\n",
              "hist.grid_sort_s", rep->Get("hist.grid_sort_s"));
  std::printf("  %-22s %9.4f s  (setup replay, summed over columns)\n",
              "hist.encode_s", rep->Get("hist.encode_s"));
  std::printf("ledger_closes %s (gap %.2f%% of traced wall; limit 5%%)\n",
              closes ? "true" : "false", 100.0 * gap);
  std::printf("setup_explained %.3f (io.load_s + hist.* over setup_s)\n",
              setup_explained);
  rep->extra.emplace_back("ledger_closes", closes ? "true" : "false");
  rep->extra.emplace_back("ledger_gap_frac", Num(gap));
  rep->extra.emplace_back("setup_explained_frac", Num(setup_explained));
}

// ---------------------------------------------------------------------
// Serving workloads.

struct ServeSpec {
  std::string name;
  int rows_per_request;  // 1 = `predict` verb, else `batch` of this many
  int connections;       // load connections (the swapper adds one more)
  bool swap;             // an admin connection swaps A<->B every second
  std::vector<int> ladder;  // offered rows/s, ascending
  int reference_rate;
  double limit_ms;  // schedule-corrected p99 limit of a ladder step
};

constexpr int kServeThreads = 2;
constexpr double kSwapPeriodS = 1.0;

// Everything a serving run checks replies against.
struct ServeFixture {
  fs::path blob_a;
  fs::path blob_b;
  std::vector<std::string> rows;     // CSV, round-trip precision
  std::vector<std::string> reply_a;  // "ok <label>" under model A
  std::vector<std::string> reply_b;
  std::vector<std::vector<double>> numeric;  // per row, per attribute
  std::vector<std::vector<int32_t>> categorical;
  std::vector<cmp::ClassId> label_a;
  cmp::CompiledModel model_a;
  cmp::Dataset holdout;
};

std::string FormatRow(const cmp::Dataset& data, int64_t r) {
  std::string row;
  char buf[64];
  for (int32_t a = 0; a < data.num_attrs(); ++a) {
    if (a > 0) row += ',';
    if (data.schema().is_numeric(a)) {
      std::snprintf(buf, sizeof(buf), "%.17g", data.numeric(a, r));
      row += buf;
    } else {
      row += std::to_string(data.categorical(a, r));
    }
  }
  return row;
}

// The daemon under test: spawned, timed to its first `ok` reply, and
// always reaped (killed if it did not quit).
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      Reap(pid_, nullptr);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool Start(const Env& env, const ServeFixture& fx, std::string* error) {
    const fs::path port_file = env.work / "serve.port";
    fs::remove(port_file);
    const Clock::time_point t0 = Clock::now();
    pid_ = Spawn({env.cmpserve, "--model", "m=" + fx.blob_a.string(),
                  "--port", "0", "--port-file", port_file.string(),
                  "--threads", std::to_string(kServeThreads)},
                 env.work / "cmpserve.log");
    if (pid_ < 0) {
      *error = "cannot spawn cmpserve";
      return false;
    }
    while (true) {
      std::string text;
      if (ReadBytes(port_file, &text) && !text.empty() && text.back() == '\n') {
        port_ = std::atoi(text.c_str());
        break;
      }
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        *error = "cmpserve exited at startup: " +
                 Tail(env.work / "cmpserve.log");
        return false;
      }
      if (Since(t0) > 20.0) {
        *error = "cmpserve did not listen within 20 s";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    cmp::ServeClient client;
    std::string reply;
    if (!client.ConnectTcp("127.0.0.1", port_, error) ||
        !client.Rpc("predict m " + fx.rows[0], &reply) ||
        reply != fx.reply_a[0]) {
      *error += " first reply '" + reply + "'";
      return false;
    }
    startup_s_ = Since(t0);
    return true;
  }

  // The `stats` verb's JSON.
  std::string Stats() const {
    cmp::ServeClient client;
    std::string reply;
    std::string error;
    if (!client.ConnectTcp("127.0.0.1", port_, &error) ||
        !client.Rpc("stats", &reply) || reply.rfind("ok ", 0) != 0) {
      return "";
    }
    return reply.substr(3);
  }

  // The daemon's own peak resident set (VmHWM: its post-exec address
  // space only, unlike ru_maxrss, which also carries the spawner's peak).
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::atof(line.c_str() + 6) / 1024.0;  // kB
      }
    }
    return 0.0;
  }

  // `quit`, then reap; false if the daemon did not exit cleanly.
  bool Stop() {
    cmp::ServeClient client;
    std::string reply;
    std::string error;
    const bool quit = client.ConnectTcp("127.0.0.1", port_, &error) &&
                      client.Rpc("quit", &reply) && reply == "ok bye";
    client.Close();
    if (!quit) return false;
    // Wait for the exit without reaping, so Reap below gets the rusage;
    // a daemon that hangs is left to the destructor's SIGKILL.
    const Clock::time_point t0 = Clock::now();
    while (true) {
      siginfo_t info{};
      if (waitid(P_PID, static_cast<id_t>(pid_), &info,
                 WEXITED | WNOHANG | WNOWAIT) != 0 && errno != EINTR) {
        return false;
      }
      if (info.si_pid == pid_) break;
      if (Since(t0) > 10.0) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const bool ok = Reap(pid_, nullptr);
    pid_ = -1;
    return ok;
  }

  int port() const { return port_; }
  double startup_s() const { return startup_s_; }

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  double startup_s_ = 0.0;
};

// Reads a number following "key": in the stats JSON (0 if absent).
double JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  return at == std::string::npos
             ? 0.0
             : std::strtod(json.c_str() + at + needle.size(), nullptr);
}

// Swaps the served model between the two blobs every kSwapPeriodS over an
// admin connection while a load phase runs.
class Swapper {
 public:
  Swapper(int port, const ServeFixture& fx) {
    thread_ = std::thread([this, port, &fx] { Loop(port, fx); });
  }
  ~Swapper() { Stop(); }
  Swapper(const Swapper&) = delete;
  Swapper& operator=(const Swapper&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  const std::vector<double>& ack_ms() const { return ack_ms_; }
  int64_t failures() const { return failures_; }

 private:
  void Loop(int port, const ServeFixture& fx) {
    cmp::ServeClient admin;
    std::string error;
    if (!admin.ConnectTcp("127.0.0.1", port, &error)) {
      ++failures_;
      return;
    }
    bool to_b = true;
    while (true) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_for(lock, std::chrono::duration<double>(kSwapPeriodS),
                         [this] { return stop_; })) {
          return;
        }
      }
      const std::string path = (to_b ? fx.blob_b : fx.blob_a).string();
      const Clock::time_point t = Clock::now();
      std::string reply;
      if (!admin.Rpc("swap m " + path, &reply) ||
          reply.rfind("ok m v", 0) != 0) {
        ++failures_;
        return;
      }
      ack_ms_.push_back(Since(t) * 1e3);
      to_b = !to_b;
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> ack_ms_;  // written by the thread, read after Stop
  int64_t failures_ = 0;
  std::thread thread_;  // last: started after the members it uses
};

struct LoadResult {
  std::vector<double> latency_ms;  // from due time (open) or send (closed)
  std::vector<double> late_ms;     // send time minus due time (open loop)
  int64_t scheduled = 0;
  int64_t unsent = 0;     // still unsent when they had already missed
  int64_t errors = 0;     // "err" replies and transport failures
  int64_t mismatches = 0; // replies that match neither model
  int64_t rows = 0;       // rows answered
  double seconds = 0.0;
  std::vector<double> swap_ack_ms;
  int64_t swap_failures = 0;
};

// Drives `spec.connections` connections for `seconds`. rate > 0: open
// loop, request k due at k / (rate / rows_per_request) seconds, each
// connection taking every C-th request, latency counted from the due
// time. rate == 0: closed loop, each connection sends its next request
// as soon as the previous reply arrives.
LoadResult DriveLoad(const ServeSpec& spec, const ServeFixture& fx, int port,
                     double rate, double seconds) {
  const int conns = spec.connections;
  const int rpr = spec.rows_per_request;
  const size_t nrows = fx.rows.size();
  std::vector<LoadResult> part(conns);
  std::unique_ptr<Swapper> swapper;
  if (spec.swap) swapper = std::make_unique<Swapper>(port, fx);
  const double req_rate = rate / rpr;
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  const Clock::time_point t_end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  const Clock::time_point t_give_up =
      t_end + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(spec.limit_ms / 1e3));

  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      LoadResult& out = part[c];
      cmp::ServeClient client;
      std::string error;
      const bool connected = client.ConnectTcp("127.0.0.1", port, &error);
      if (!connected) ++out.errors;
      std::vector<std::string> batch(static_cast<size_t>(rpr));
      std::vector<std::string> replies;
      std::string reply;
      std::this_thread::sleep_until(t0);
      for (int64_t k = c;; k += conns) {
        Clock::time_point due = Clock::now();
        if (rate > 0) {
          due = t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(k / req_rate));
          if (due >= t_end) break;
          ++out.scheduled;
          if (!connected || Clock::now() > t_give_up) {
            ++out.unsent;
            continue;
          }
          std::this_thread::sleep_until(due);
        } else {
          if (due >= t_end) break;
          ++out.scheduled;
        }
        const size_t first = static_cast<size_t>(k) * rpr;
        const Clock::time_point sent = Clock::now();
        bool ok;
        if (rpr == 1) {
          ok = client.Rpc("predict m " + fx.rows[first % nrows], &reply);
          replies.assign(1, reply);
        } else {
          for (int i = 0; i < rpr; ++i) batch[i] = fx.rows[(first + i) % nrows];
          ok = client.Batch("m", batch, &replies);
        }
        const Clock::time_point done = Clock::now();
        if (!ok) {
          ++out.errors;
          break;  // the connection is gone
        }
        for (int i = 0; i < rpr; ++i) {
          const size_t r = (first + i) % nrows;
          const std::string& got = replies[i];
          if (got.rfind("err", 0) == 0) {
            ++out.errors;
          } else if (got != fx.reply_a[r] && got != fx.reply_b[r]) {
            ++out.mismatches;
          }
        }
        out.rows += rpr;
        out.latency_ms.push_back(Seconds(due, done) * 1e3);
        if (rate > 0) out.late_ms.push_back(Seconds(due, sent) * 1e3);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult all;
  all.seconds = Since(t0);
  for (const LoadResult& p : part) {
    all.latency_ms.insert(all.latency_ms.end(), p.latency_ms.begin(),
                          p.latency_ms.end());
    all.late_ms.insert(all.late_ms.end(), p.late_ms.begin(), p.late_ms.end());
    all.scheduled += p.scheduled;
    all.unsent += p.unsent;
    all.errors += p.errors;
    all.mismatches += p.mismatches;
    all.rows += p.rows;
  }
  if (swapper != nullptr) {
    swapper->Stop();
    all.swap_ack_ms = swapper->ack_ms();
    all.swap_failures = swapper->failures();
  }
  return all;
}

// Counts a phase's requests and failures into the report.
void Account(const LoadResult& r, const std::string& phase, Report* rep) {
  rep->Attempt(r.scheduled + static_cast<int64_t>(r.swap_ack_ms.size()) +
               r.swap_failures);
  if (r.errors > 0) {
    rep->Fail(phase + ": " + std::to_string(r.errors) + " error replies",
              r.errors);
  }
  if (r.mismatches > 0) {
    rep->Fail(phase + ": " + std::to_string(r.mismatches) +
                  " replies match neither model",
              r.mismatches);
  }
  if (r.swap_failures > 0) rep->Fail(phase + ": swap failed", r.swap_failures);
}

ServeFixture MakeServeFixture(const Options& opt, const Env& env,
                              Report* rep) {
  const int64_t div = opt.quick ? 10 : 1;
  const int64_t model_rows = 100000 / div;
  const int64_t served_rows = 20000 / div;
  rep->scale.emplace_back("model_train_rows", std::to_string(model_rows));
  rep->scale.emplace_back("served_distinct_rows", std::to_string(served_rows));
  ServeFixture fx;
  fx.blob_a = env.work / "a.cmpb";
  fx.blob_b = env.work / "b.cmpb";
  const fs::path train_a = env.work / "a.cmpt";
  const fs::path train_b = env.work / "b.cmpt";
  const fs::path hold = env.work / "holdout.cmpt";
  // Two concepts over one schema, so the models disagree on many rows
  // and a reply reveals which version served it.
  if (!MakeTable(cmp::AgrawalFunction::kF2, model_rows, opt.seed, train_a) ||
      !MakeTable(cmp::AgrawalFunction::kF3, model_rows, opt.seed, train_b) ||
      !MakeTable(cmp::AgrawalFunction::kF2, served_rows, opt.seed + 1, hold)) {
    throw std::runtime_error("cannot write input tables");
  }
  for (const auto& [data, blob] : {std::pair{train_a, fx.blob_a},
                                   std::pair{train_b, fx.blob_b}}) {
    const fs::path tree = blob.string() + ".tree";
    rep->Attempt(2);
    if (!Run(env, {env.cmptool, "train", "--data", data.string(), "--algo",
                   "cmp", "--out", tree.string()}).ok ||
        !Run(env, {env.cmptool, "compile", "--tree", tree.string(), "--out",
                   blob.string()}).ok) {
      throw std::runtime_error("cannot train/compile the served models");
    }
  }
  cmp::CompiledModel model_b;
  std::string error;
  if (!cmp::LoadTableFile(hold, &fx.holdout) ||
      !cmp::LoadCompiledModel(fx.blob_a, &fx.model_a, &error) ||
      !cmp::LoadCompiledModel(fx.blob_b, &model_b, &error)) {
    throw std::runtime_error("cannot load the served models: " + error);
  }
  const cmp::Dataset& data = fx.holdout;
  fx.label_a = cmp::BatchPredictor(&fx.model_a.trees.front(),
                                   cmp::PredictOptions{})
                   .Predict(data, nullptr)
                   .labels;
  const std::vector<std::string> a = ClassNames(*fx.model_a.schema, fx.label_a);
  const std::vector<std::string> b = ExpectedLabels(model_b, data);
  const int32_t na = data.num_attrs();
  for (int64_t r = 0; r < data.num_records(); ++r) {
    fx.rows.push_back(FormatRow(data, r));
    fx.reply_a.push_back("ok " + a[r]);
    fx.reply_b.push_back("ok " + b[r]);
    // The dense slots the server's row parser produces.
    std::vector<double> num(na, 0.0);
    std::vector<int32_t> cat(na, -1);
    for (int32_t k = 0; k < na; ++k) {
      if (data.schema().is_numeric(k)) {
        num[k] = data.numeric(k, r);
      } else {
        cat[k] = data.categorical(k, r);
      }
    }
    fx.numeric.push_back(std::move(num));
    fx.categorical.push_back(std::move(cat));
  }
  return fx;
}

// Replays an open-loop schedule straight into MicroBatcher::Submit, no
// sockets: the batching layer's own latency. Returns per-request µs.
std::vector<double> ReplayBatcher(const ServeSpec& spec,
                                  const ServeFixture& fx, double seconds,
                                  Report* rep) {
  cmp::ThreadPool pool(kServeThreads);
  cmp::ServeStats stats;
  cmp::ModelRegistry registry(&pool);
  std::string error;
  if (registry.PublishFromFile("m", fx.blob_a, &error) == 0) {
    rep->Fail("registry publish: " + error);
    return {};
  }
  const std::shared_ptr<const cmp::ServedModel> model = registry.Get("m");
  cmp::MicroBatcher batcher(&pool, cmp::BatchPolicy{}, &stats);
  const int conns = spec.connections;
  const int rpr = spec.rows_per_request;
  const size_t nrows = fx.rows.size();
  const double req_rate = static_cast<double>(spec.reference_rate) / rpr;
  std::vector<std::vector<double>> lat(conns);
  std::vector<int64_t> wrong(conns, 0);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      std::vector<std::future<cmp::RowReply>> futures;
      for (int64_t k = c;; k += conns) {
        const double at = k / req_rate;
        if (at >= seconds) break;
        const Clock::time_point due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(at));
        std::this_thread::sleep_until(due);
        futures.clear();
        const size_t first = static_cast<size_t>(k) * rpr;
        for (int i = 0; i < rpr; ++i) {
          const size_t r = (first + i) % nrows;
          futures.push_back(batcher.Submit(model, fx.numeric[r],
                                           fx.categorical[r], false));
        }
        for (int i = 0; i < rpr; ++i) {
          const cmp::RowReply reply = futures[i].get();
          const size_t r = (first + i) % nrows;
          wrong[c] += !reply.ok || reply.label != fx.label_a[r];
        }
        lat[c].push_back(Seconds(due, Clock::now()) * 1e6);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  batcher.Stop();
  std::vector<double> all;
  int64_t bad = 0;
  for (int c = 0; c < conns; ++c) {
    all.insert(all.end(), lat[c].begin(), lat[c].end());
    bad += wrong[c];
  }
  rep->Attempt(static_cast<int64_t>(all.size()) * rpr);
  if (bad > 0) rep->Fail("batcher replay: wrong labels", bad);
  return all;
}

void RunServe(const ServeSpec& spec, const Options& opt, const Env& env,
              Report* rep) {
  rep->scale.emplace_back("rows_per_request",
                          std::to_string(spec.rows_per_request));
  rep->scale.emplace_back("connections", std::to_string(spec.connections));
  rep->scale.emplace_back("admin_swap_connection",
                          spec.swap ? "true" : "false");
  rep->scale.emplace_back("server_threads", std::to_string(kServeThreads));
  rep->scale.emplace_back("reference_rate_rows_per_s",
                          std::to_string(spec.reference_rate));
  std::string ladder = "[";
  for (size_t i = 0; i < spec.ladder.size(); ++i) {
    ladder += (i ? ", " : "") + std::to_string(spec.ladder[i]);
  }
  rep->scale.emplace_back("ladder_rows_per_s", ladder + "]");
  rep->scale.emplace_back("latency_limit_ms", Num(spec.limit_ms));

  const ServeFixture fx = MakeServeFixture(opt, env, rep);
  std::vector<double> starts;
  std::string error;
  // One fresh daemon per phase, so every `stats` snapshot and peak RSS
  // belongs to that phase alone.
  auto with_daemon = [&](const std::function<void(Daemon&)>& body) {
    Daemon daemon;
    rep->Attempt();
    if (!daemon.Start(env, fx, &error)) {
      throw std::runtime_error("cmpserve start: " + error);
    }
    starts.push_back(daemon.startup_s());
    body(daemon);
    rep->Attempt();
    if (!daemon.Stop()) rep->Fail("cmpserve did not quit cleanly");
  };

  if (opt.e2e) {
    const double phase_s = opt.quick ? 1.0 : opt.seconds / 2;
    LoadResult ref;
    LoadResult closed;
    double rss = 0.0;
    with_daemon([&](Daemon& d) {
      ref = DriveLoad(spec, fx, d.port(), spec.reference_rate, phase_s);
    });
    Account(ref, "reference-rate phase", rep);
    with_daemon([&](Daemon& d) {
      closed = DriveLoad(spec, fx, d.port(), 0, phase_s);
      rss = d.PeakRssMb();
    });
    Account(closed, "closed-loop phase", rep);
    while (starts.size() < 7) with_daemon([](Daemon&) {});
    rep->reps.emplace_back("startup_s", RepsJson(starts));
    rep->reps.emplace_back("reference_latency_ms", RepsJson(ref.latency_ms));
    rep->extra.emplace_back("reference_unsent", std::to_string(ref.unsent));
    rep->Set("setup_s", Median(starts));
    rep->Set("rows_per_s", static_cast<double>(closed.rows) / closed.seconds);
    rep->Set("predict_p50_ms", Median(ref.latency_ms));
    rep->Set("peak_rss_mb", rss);
  }
  if (!opt.layers) return;

  const double step_s =
      opt.quick ? 1.0
                : opt.seconds / static_cast<double>(spec.ladder.size() + 2);
  std::vector<double> swap_acks;
  std::string steps = "[";
  double max_rate = 0.0;
  for (const int rate : spec.ladder) {
    LoadResult r;
    std::string stats;
    with_daemon([&](Daemon& d) {
      r = DriveLoad(spec, fx, d.port(), rate, step_s);
      stats = d.Stats();
    });
    Account(r, "ladder step " + std::to_string(rate), rep);
    swap_acks.insert(swap_acks.end(), r.swap_ack_ms.begin(),
                     r.swap_ack_ms.end());
    const double p50 = Quantile(r.latency_ms, 0.5);
    const double p99 = Quantile(r.latency_ms, 0.99);
    const bool pass = r.errors == 0 && r.mismatches == 0 && r.unsent == 0 &&
                      !r.latency_ms.empty() && p99 <= spec.limit_ms;
    const std::string p = "loadgen.r" + std::to_string(rate);
    rep->Set(p + ".p50_ms", p50);
    rep->Set(p + ".p99_ms", p99);
    rep->Set(p + ".n", static_cast<double>(r.latency_ms.size()));
    steps += std::string(steps.size() > 1 ? ", " : "") + "{\"rate\": " +
             std::to_string(rate) + ", \"n\": " +
             std::to_string(r.latency_ms.size()) + ", \"p50_ms\": " + Num(p50) +
             ", \"p99_ms\": " + Num(p99) + ", \"unsent\": " +
             std::to_string(r.unsent) + ", \"late_p99_ms\": " +
             Num(Quantile(r.late_ms, 0.99)) + ", \"pass\": " +
             (pass ? "true" : "false") + "}";
    std::printf(
        "step %6d rows/s: n %zu p50 %.3f ms p99 %.3f ms unsent %lld %s\n",
        rate, r.latency_ms.size(), p50, p99, static_cast<long long>(r.unsent),
        pass ? "pass" : "FAIL");
    if (rate == spec.reference_rate) {
      const double server_p50 = JsonField(stats, "p50");
      rep->Set("serve.server_p50_us", server_p50);
      rep->Set("serve.server_p99_us", JsonField(stats, "p99"));
      rep->Set("serve.wire_p50_us", p50 * 1e3 - server_p50);
      rep->Set("loadgen.late_p99_ms", Quantile(r.late_ms, 0.99));
    }
    if (!pass) break;
    max_rate = rate;
  }
  rep->extra.emplace_back("ladder", steps + "]");
  rep->Set("loadgen.max_rate_rows_per_s", max_rate);

  LoadResult closed;
  std::string stats;
  with_daemon([&](Daemon& d) {
    closed = DriveLoad(spec, fx, d.port(), 0, step_s);
    stats = d.Stats();
  });
  Account(closed, "closed-loop step", rep);
  swap_acks.insert(swap_acks.end(), closed.swap_ack_ms.begin(),
                   closed.swap_ack_ms.end());
  rep->Set("serve.closed_rtt_p50_ms", Median(closed.latency_ms));
  const double batches = JsonField(stats, "batches");
  rep->Set("serve.rows_per_batch",
           batches > 0 ? JsonField(stats, "rows") / batches : 0.0);
  rep->Set("serve.batch_fill", JsonField(stats, "batch_fill"));
  rep->Set("serve.swap_ack_p50_ms", Median(swap_acks));

  // In-process layers: registry publish, 64-row block scoring, batcher.
  std::vector<double> publish_ms;
  for (int i = 0; i < 5; ++i) {
    cmp::ThreadPool pool(kServeThreads);
    cmp::ModelRegistry registry(&pool);
    const Clock::time_point t = Clock::now();
    const bool ok = registry.PublishFromFile("m", fx.blob_a, &error) != 0;
    publish_ms.push_back(Since(t) * 1e3);
    rep->Attempt();
    if (!ok) rep->Fail("registry publish: " + error);
  }
  rep->Set("serve.registry_publish_ms", Median(publish_ms));
  cmp::PredictOptions block64;
  block64.block_size = 64;
  const cmp::BatchPredictor predictor(&fx.model_a.trees.front(), block64);
  std::vector<double> ns_per_row;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point t = Clock::now();
    const cmp::BatchResult scored = predictor.Predict(fx.holdout, nullptr);
    ns_per_row.push_back(Since(t) * 1e9 /
                         static_cast<double>(fx.holdout.num_records()));
    rep->Attempt();
    if (scored.labels != fx.label_a) rep->Fail("64-row block scoring labels");
  }
  rep->Set("infer.score_ns_per_row", Median(ns_per_row));
  rep->Set("serve.batcher_p50_us",
           Median(ReplayBatcher(spec, fx, step_s, rep)));
}

// ---------------------------------------------------------------------

const std::vector<TrainSpec>& TrainSpecs() {
  static const std::vector<TrainSpec> specs = {
      {"train-cmp-f7", cmp::AgrawalFunction::kF7, "cmp", 4, 250000, 1000000},
      {"train-cmps-f2", cmp::AgrawalFunction::kF2, "cmp-s", 1, 500000,
       1000000},
  };
  return specs;
}

const std::vector<ServeSpec>& ServeSpecs() {
  static const std::vector<ServeSpec> specs = {
      {"serve-single", 1, 4, false, {500, 1000, 2000, 4000, 8000}, 1000, 5.0},
      {"serve-batch64-swap", 64, 3, true,
       {2000, 4000, 8000, 16000, 32000, 64000}, 4000, 10.0},
  };
  return specs;
}

int Usage(const std::string& why) {
  std::cerr << "cmpbench: " << why << "\n"
            << "usage: cmpbench --workload W --seed N [--seconds S]"
               " [--trace 0|1|both] [--quick] [--json FILE] [--commit SHA]\n"
               "workloads:";
  for (const TrainSpec& s : TrainSpecs()) std::cerr << " " << s.name;
  for (const ServeSpec& s : ServeSpecs()) std::cerr << " " << s.name;
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--run-child") {
    return RunChildMode(argc, argv);
  }
  Options opt;
  std::string json_path;
  std::string commit = "unknown";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--quick") {
      opt.quick = true;
    } else if (!has_value) {
      return Usage("missing value for " + arg);
    } else if (arg == "--workload") {
      opt.workload = argv[++i];
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(argv[++i]);
      if (!(opt.seconds > 0)) return Usage("--seconds must be positive");
    } else if (arg == "--trace") {
      const std::string v = argv[++i];
      if (v != "0" && v != "1" && v != "both") return Usage("bad --trace");
      opt.e2e = v != "1";
      opt.layers = v != "0";
    } else if (arg == "--json") {
      json_path = argv[++i];
    } else if (arg == "--commit") {
      commit = argv[++i];
    } else {
      return Usage("unknown flag " + arg);
    }
  }
  if (!have_seed) return Usage("--seed is required");
  const TrainSpec* train = nullptr;
  const ServeSpec* serve = nullptr;
  for (const TrainSpec& s : TrainSpecs()) {
    if (s.name == opt.workload) train = &s;
  }
  for (const ServeSpec& s : ServeSpecs()) {
    if (s.name == opt.workload) serve = &s;
  }
  if (train == nullptr && serve == nullptr) {
    return Usage("unknown workload '" + opt.workload + "'");
  }

  const fs::path bin_dir = fs::read_symlink("/proc/self/exe").parent_path();
  Env env;
  env.self = (bin_dir / "cmpbench").string();
  env.cmptool = (bin_dir / "src/tools/cmptool").string();
  env.cmpserve = (bin_dir / "src/tools/cmpserve").string();
  env.work = bin_dir / "work" /
             (opt.workload + "-" + std::to_string(::getpid()));
  fs::create_directories(env.work);

  const std::string trace_name =
      opt.e2e && opt.layers ? "both" : (opt.layers ? "1" : "0");
  std::printf("# cmpbench workload=%s seed=%llu seconds=%g trace=%s%s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, trace_name.c_str(), opt.quick ? " quick" : "");
  std::printf("# hardware_threads=%u kernel_isa=%s build_type=%s "
              "compiler=gcc-%s commit=%s\n",
              std::thread::hardware_concurrency(),
              cmp::KernelIsaName(cmp::ActiveKernelIsa()), CMP_BENCH_BUILD_TYPE,
              __VERSION__, commit.c_str());
  std::fflush(stdout);

  Report rep;
  const Clock::time_point started = Clock::now();
  int code = 0;
  try {
    if (train != nullptr) {
      RunTrain(*train, opt, env, &rep);
    } else {
      RunServe(*serve, opt, env, &rep);
    }
  } catch (const std::exception& e) {
    std::cerr << "cmpbench: " << opt.workload << " could not run: " << e.what()
              << "\n";
    code = 1;
  }
  std::error_code ec;
  fs::remove_all(env.work, ec);
  if (code != 0) return code;

  std::vector<MetricDef> reported;
  if (opt.e2e) {
    reported.insert(reported.end(), EndToEndMetrics().begin(),
                    EndToEndMetrics().end());
  }
  if (opt.layers) {
    reported.insert(reported.end(), LayerMetrics().begin(),
                    LayerMetrics().end());
  }
  for (const MetricDef& d : reported) {
    std::printf("%s %s %s\n", d.name.c_str(), Num(rep.Get(d.name)).c_str(),
                d.unit.c_str());
  }
  const bool verified = rep.verified();
  std::printf("verified %s (attempted %lld, failed %lld, %.1f s)\n",
              verified ? "true" : "false",
              static_cast<long long>(rep.attempted()),
              static_cast<long long>(rep.failed()), Since(started));

  if (!json_path.empty()) {
    const Fields header = {
        {"hardware_threads",
         std::to_string(std::thread::hardware_concurrency())},
        {"kernel_isa", JsonString(cmp::KernelIsaName(cmp::ActiveKernelIsa()))},
        {"build_type", JsonString(CMP_BENCH_BUILD_TYPE)},
        {"compiler", JsonString(std::string("gcc ") + __VERSION__)},
        {"commit", JsonString(commit)},
        {"seed", std::to_string(opt.seed)},
        {"seconds", Num(opt.seconds)},
        {"trace", JsonString(trace_name)},
        {"quick", opt.quick ? "true" : "false"},
    };
    std::ofstream out(json_path, std::ios::trunc);
    out << "{\"workload\": " << JsonString(opt.workload)
        << ", \"header\": " << JsonObject(header)
        << ", \"scale\": " << JsonObject(rep.scale)
        << ", \"verified\": " << (verified ? "true" : "false")
        << ", \"attempted\": " << rep.attempted()
        << ", \"failed\": " << rep.failed()
        << ", \"failures\": " << rep.FailuresJson()
        << ", \"reps\": " << JsonObject(rep.reps);
    for (const auto& [key, value] : rep.extra) {
      out << ", " << JsonString(key) << ": " << value;
    }
    if (opt.e2e) {
      out << ", \"end_to_end\": " << rep.MetricsJson(EndToEndMetrics());
    }
    if (opt.layers) {
      out << ", \"per_layer\": " << rep.MetricsJson(LayerMetrics());
    }
    out << "}\n";
    if (!out) {
      std::cerr << "cmpbench: cannot write " << json_path << "\n";
      return 1;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              verified ? "true" : "false",
              static_cast<long long>(rep.attempted()),
              static_cast<long long>(rep.failed()),
              rep.MetricsJson(reported).c_str());
  return verified ? 0 : 3;
}
