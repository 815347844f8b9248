#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cmp/build_driver.h"
#include "cmp/frontier.h"
#include "common/timer.h"
#include "cmp/record_store.h"
#include "cmp/scan_pass.h"
#include "common/thread_pool.h"
#include "dist/dist.h"
#include "io/block_source.h"
#include "io/table_file.h"
#include "io/wire.h"

namespace cmp {
namespace dist {

namespace {

struct WorkerProc {
  int fd = -1;       // coordinator end of the socketpair
  pid_t pid = -1;
  int rank = 0;
  int64_t slice_lo = 0;
  int64_t slice_count = 0;
};

/// The distributed implementation of the build driver's transport seam
/// (PassScanner, scan_pass.h). Prepare broadcasts the handshake; each
/// RunPass ships the tree + frontier skeleton to every worker, then
/// merges the workers' results back IN RANK ORDER. Rank order is the
/// whole determinism argument: slices are contiguous ascending record
/// ranges, so rank-order merging reproduces the serial ascending-record
/// accumulation exactly the way the in-process sharded scan's
/// shard-order merge does — integer count adds are order-free anyway,
/// pending buffers are (value, rid)-sorted before use, and collect rid
/// lists are re-sorted ascending after the merge.
class RemoteScan : public PassScanner {
 public:
  RemoteScan(std::vector<WorkerProc>* workers, StreamStore* store,
             const std::string& table_path, const CmpOptions& options,
             const DistOptions& dist)
      : workers_(workers),
        store_(store),
        table_path_(table_path),
        options_(options),
        dist_(dist) {}

  int64_t total_wire_bytes() const { return total_wire_bytes_; }

  void Prepare(const PassScanContext& ctx) override {
    grids_ = ctx.grids;
    tree_ = ctx.tree;
    num_records_ = ctx.num_records;
    tracker_ = ctx.tracker;

    // The workers' bin-code caches are pointless when the whole build
    // resolves as one root collect (mirrors the driver's own gate).
    const bool collect_only =
        options_.base.in_memory_threshold > 0 &&
        num_records_ <= options_.base.in_memory_threshold;
    const bool use_codes = options_.bin_code_cache && !collect_only;

    for (WorkerProc& wk : *workers_) {
      wire::WireWriter w;
      w.PutVar(static_cast<uint64_t>(wk.rank));
      w.PutString(table_path_);
      w.PutVar(static_cast<uint64_t>(wk.slice_lo));
      w.PutVar(static_cast<uint64_t>(wk.slice_count));
      w.PutVarSigned(dist_.block_records);
      w.PutVar(static_cast<uint64_t>(dist_.num_threads));
      w.PutVar(static_cast<uint64_t>(options_.scan_shards));
      w.PutU8(use_codes ? 1 : 0);
      w.PutVar(static_cast<uint64_t>(options_.intervals));
      wire::WriteGrids(&w, store_->schema(), *grids_);
      Send(wk, wire::MsgType::kHello, w.buffer());
    }
    for (WorkerProc& wk : *workers_) {
      const std::string payload = Recv(wk, wire::MsgType::kHelloAck);
      wire::WireReader r(payload);
      const bool ok = r.GetU8() != 0;
      const int64_t n_local = static_cast<int64_t>(r.GetVar());
      std::string message;
      r.GetString(&message);
      if (!r.ok() || !r.AtEnd()) Corrupt(wk);
      if (!ok) {
        throw std::runtime_error("dist: worker " + std::to_string(wk.rank) +
                                 " rejected handshake: " + message);
      }
      if (n_local != wk.slice_count) {
        throw std::runtime_error(
            "dist: worker " + std::to_string(wk.rank) +
            " sees a different slice size (stale table file?)");
      }
    }
  }

  void RunPass(FrontierQueues& work, PassObservation* po) override {
    const Schema& schema = store_->schema();
    tracker_->ChargeScan(num_records_, schema);
    tracker_->ChargeWrite(num_records_ *
                          static_cast<int64_t>(sizeof(NodeId)));
    pass_wire_bytes_ = 0;

    // One payload serves every worker: the current tree in routing form
    // plus the frontier skeleton (shapes only — never counts) in
    // work-list order.
    wire::WireWriter w;
    wire::WriteTree(&w, *tree_);
    w.PutVar(work.fresh.size());
    for (const FreshWork& fw : work.fresh) {
      w.PutVar(static_cast<uint64_t>(fw.node));
      wire::WriteBundleShape(&w, fw.bundle);
    }
    w.PutVar(work.pending.size());
    for (const PendingWork& pw : work.pending) {
      w.PutVar(static_cast<uint64_t>(pw.node));
      wire::WritePendingSkeleton(&w, *pw.pending);
    }
    w.PutVar(work.collect.size());
    for (const CollectWork& cw : work.collect) {
      w.PutVar(static_cast<uint64_t>(cw.node));
    }
    const std::string begin = w.Take();
    for (WorkerProc& wk : *workers_) {
      Send(wk, wire::MsgType::kPassBegin, begin);
    }

    // Merge phase: workers scan concurrently, the coordinator drains
    // their results strictly in rank order.
    double merge_seconds = 0.0;
    double kernel_seconds = 0.0;
    int64_t code_cache_bytes = 0;
    int64_t worker_bytes_read = 0;
    std::vector<double> nums(schema.num_attrs(), 0.0);
    std::vector<int32_t> cats(schema.num_attrs(), 0);
    for (WorkerProc& wk : *workers_) {
      const std::string payload = Recv(wk, wire::MsgType::kPassResult);
      Timer merge_timer;
      wire::WireReader r(payload);
      kernel_seconds += r.GetF64();
      code_cache_bytes += static_cast<int64_t>(r.GetVar());
      worker_bytes_read += static_cast<int64_t>(r.GetVar());

      if (r.GetVar() != work.fresh.size()) Corrupt(wk);
      for (FreshWork& fw : work.fresh) {
        if (!wire::ReadBundleCountsInto(&r, &fw.bundle)) Corrupt(wk);
      }
      if (r.GetVar() != work.pending.size()) Corrupt(wk);
      for (PendingWork& pw : work.pending) {
        if (!wire::ReadPendingStateInto(&r, pw.pending.get(), wk.slice_lo)) {
          Corrupt(wk);
        }
      }
      if (r.GetVar() != work.collect.size()) Corrupt(wk);
      for (CollectWork& cw : work.collect) {
        const uint64_t count = r.GetVar();
        if (count > r.remaining()) Corrupt(wk);
        for (uint64_t i = 0; r.ok() && i < count; ++i) {
          cw.rids.push_back(static_cast<RecordId>(r.GetVar()) + wk.slice_lo);
        }
      }
      // The worker's stash rows (records its pending buffers and collect
      // lists retained) become the coordinator's stash: the resolve
      // phase re-reads them through the same StreamStore interface a
      // single-process streamed build uses.
      const uint64_t stash_count = r.GetVar();
      if (stash_count > r.remaining()) Corrupt(wk);
      for (uint64_t i = 0; r.ok() && i < stash_count; ++i) {
        const RecordId rid =
            static_cast<RecordId>(r.GetVar()) + wk.slice_lo;
        for (AttrId a = 0; a < schema.num_attrs(); ++a) {
          if (schema.is_numeric(a)) {
            nums[a] = r.GetF64();
          } else {
            cats[a] = static_cast<int32_t>(r.GetVarSigned());
          }
        }
        const uint64_t label = r.GetVar();
        if (label >= static_cast<uint64_t>(schema.num_classes())) Corrupt(wk);
        if (!r.ok()) break;
        store_->StashRecord(rid, nums, cats,
                            static_cast<ClassId>(label));
      }
      if (!r.AtEnd()) Corrupt(wk);
      merge_seconds += merge_timer.Seconds();
    }

    // Post-merge tail, mirroring ScanPass: the collect lists back to
    // ascending (serial) record order.
    for (CollectWork& cw : work.collect) {
      std::sort(cw.rids.begin(), cw.rids.end());
    }

    tracker_->ChargeRealBytes(worker_bytes_read);
    tracker_->NotePeakMemory(store_->stash_bytes());
    if (po != nullptr) {
      po->kernel_seconds = kernel_seconds;
      po->code_cache_bytes = code_cache_bytes;
      po->workers = static_cast<int64_t>(workers_->size());
      po->wire_bytes = pass_wire_bytes_;
      po->merge_seconds = merge_seconds;
    }
  }

 private:
  void Send(WorkerProc& wk, wire::MsgType type, const std::string& payload) {
    if (!wire::SendFrame(wk.fd, type, payload)) {
      throw std::runtime_error("dist: worker " + std::to_string(wk.rank) +
                               " died (send failed)");
    }
    const int64_t bytes =
        static_cast<int64_t>(wire::kFrameHeaderBytes + payload.size());
    pass_wire_bytes_ += bytes;
    total_wire_bytes_ += bytes;
  }

  std::string Recv(WorkerProc& wk, wire::MsgType want) {
    wire::MsgType type;
    std::string payload;
    std::string error;
    if (!wire::RecvFrame(wk.fd, &type, &payload, &error)) {
      throw std::runtime_error("dist: worker " + std::to_string(wk.rank) +
                               " failed mid-pass: " + error);
    }
    if (type != want) Corrupt(wk);
    const int64_t bytes =
        static_cast<int64_t>(wire::kFrameHeaderBytes + payload.size());
    pass_wire_bytes_ += bytes;
    total_wire_bytes_ += bytes;
    return payload;
  }

  [[noreturn]] void Corrupt(const WorkerProc& wk) {
    throw std::runtime_error("dist: corrupt result from worker " +
                             std::to_string(wk.rank));
  }

  std::vector<WorkerProc>* workers_;
  StreamStore* store_;
  const std::string table_path_;
  const CmpOptions options_;
  const DistOptions dist_;

  const std::vector<IntervalGrid>* grids_ = nullptr;
  const DecisionTree* tree_ = nullptr;
  int64_t num_records_ = 0;
  ScanTracker* tracker_ = nullptr;
  int64_t pass_wire_bytes_ = 0;
  int64_t total_wire_bytes_ = 0;
};

void ReapWorkers(std::vector<WorkerProc>* workers, bool kill) {
  for (WorkerProc& wk : *workers) {
    if (wk.fd >= 0) {
      ::close(wk.fd);
      wk.fd = -1;
    }
    if (wk.pid > 0 && kill) ::kill(wk.pid, SIGKILL);
  }
  for (WorkerProc& wk : *workers) {
    if (wk.pid <= 0) continue;
    int status = 0;
    ::waitpid(wk.pid, &status, 0);
    wk.pid = -1;
  }
}

}  // namespace

BuildResult DistTrain(const std::string& table_path,
                      const CmpOptions& options, const DistOptions& dist) {
  if (dist.num_workers < 1) {
    throw std::runtime_error("dist: --workers must be >= 1");
  }
  Schema schema;
  int64_t n = 0;
  if (!ReadTableHeader(table_path, &schema, &n)) {
    throw std::runtime_error("dist: cannot read table header: " + table_path);
  }

  // Fork the workers FIRST — before any thread pool exists in this
  // process, so the children never inherit locked pool state. Each
  // worker gets one socketpair end; the child closes every fd that is
  // not its own so a dead peer always surfaces as EOF.
  const int num_workers = dist.num_workers;
  std::vector<WorkerProc> workers(num_workers);
  for (int k = 0; k < num_workers; ++k) {
    workers[k].rank = k;
    workers[k].slice_lo = n * k / num_workers;
    workers[k].slice_count = n * (k + 1) / num_workers - workers[k].slice_lo;
  }
  for (int k = 0; k < num_workers; ++k) {
    int sp[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sp) != 0) {
      ReapWorkers(&workers, /*kill=*/true);
      throw std::runtime_error("dist: socketpair failed");
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(sp[0]);
      ::close(sp[1]);
      ReapWorkers(&workers, /*kill=*/true);
      throw std::runtime_error("dist: fork failed");
    }
    if (pid == 0) {
      // Child: keep only this worker's socket end. _exit (not exit)
      // so the parent's stdio buffers are not flushed twice.
      ::close(sp[0]);
      for (int j = 0; j < k; ++j) ::close(workers[j].fd);
      ::_exit(RunWorker(sp[1]));
    }
    ::close(sp[1]);
    workers[k].fd = sp[0];
    workers[k].pid = pid;
  }

  BuildResult result;
  try {
    ThreadPool pool(options.base.num_threads);
    // The coordinator's source serves only whole-column reads (grid
    // build, root class counts) — it never block-scans; RemoteScan is
    // the scan.
    auto source = TableBlockSource::Open(table_path);
    if (source == nullptr) {
      throw std::runtime_error("dist: cannot open table: " + table_path);
    }
    StreamStore store(source->schema(), n);
    RemoteScan remote(&workers, &store, table_path, options, dist);
    // The coordinator never routes a record, so it builds no bin-code
    // cache over the full table; workers encode their own slices.
    // AddCoded and Add produce byte-identical cells, so the merged
    // histograms match a single-process build with either setting.
    CmpOptions coord = options;
    coord.bin_code_cache = false;
    CmpBuild<StreamStore> build(store, *source, coord, &pool, &result,
                                &remote);
    build.Run();
  } catch (...) {
    ReapWorkers(&workers, /*kill=*/true);
    throw;
  }

  // Orderly shutdown: every worker gets kShutdown and exits itself; a
  // worker that already vanished is simply reaped.
  for (WorkerProc& wk : workers) {
    wire::SendFrame(wk.fd, wire::MsgType::kShutdown, std::string());
  }
  ReapWorkers(&workers, /*kill=*/false);
  return result;
}

}  // namespace dist
}  // namespace cmp
