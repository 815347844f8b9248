#ifndef CMP_SERVE_LATENCY_H_
#define CMP_SERVE_LATENCY_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

namespace cmp {

/// A lock-free log-scale latency histogram.
///
/// Values (nanoseconds) land in 4 sub-buckets per power of two —
/// HDR-style — so quantile estimates carry at most ~12.5% relative
/// error across the full uint64 range with a fixed 256-counter
/// footprint and no allocation. Record() is two relaxed atomic adds
/// plus a CAS max update; many request threads hammer one histogram
/// with no shared cache line written twice per event beyond the
/// counters themselves.
///
/// Snapshots read the counters relaxed while writers keep recording, so
/// a snapshot is not a single instant — each counter is exact but the
/// set may straddle a few in-flight events. For monitoring percentiles
/// that is the right trade; nothing here is used for control decisions.
class LatencyHistogram {
 public:
  static constexpr int kSubBuckets = 4;
  static constexpr int kBuckets = 64 * kSubBuckets;

  void Record(uint64_t ns);

  struct Snapshot {
    uint64_t count = 0;
    double mean_us = 0.0;
    double p50_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;
  };
  Snapshot Snap() const;

  /// Bucket index for `ns`; exposed for tests.
  static int BucketOf(uint64_t ns);

 private:
  std::array<std::atomic<uint64_t>, kBuckets> counts_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
  std::atomic<uint64_t> max_ns_{0};
};

/// Nanoseconds from `from` to a later `to`, in the unit Record() takes.
inline uint64_t NanosBetween(std::chrono::steady_clock::time_point from,
                             std::chrono::steady_clock::time_point to) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// Where a served row's time goes, one histogram per stage of the
/// request path.
struct StageLatencies {
  LatencyHistogram parse;        // one CSV row -> dense slots, per row
  LatencyHistogram queue_wait;   // enqueue -> its batch starts scoring
  LatencyHistogram score;        // transpose + descent, per batch
  LatencyHistogram reply_write;  // the send of one whole reply
};

/// Serving-wide counters: request latency plus throughput/traffic
/// totals, all relaxed atomics so the hot path never takes a lock to
/// account for itself. Rendered as one JSON object by the `stats`
/// admin verb.
class ServeStats {
 public:
  ServeStats() : start_(std::chrono::steady_clock::now()) {}

  LatencyHistogram& request_latency() { return request_latency_; }
  const LatencyHistogram& request_latency() const { return request_latency_; }
  StageLatencies& stages() { return stages_; }
  const StageLatencies& stages() const { return stages_; }

  /// Rows accepted by the batcher and not yet scored: +1 per submitted
  /// row, -n when a batch of n is fulfilled.
  void AddQueueDepth(int64_t delta) {
    queue_depth_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t queue_depth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }

  void AddRows(uint64_t n) { rows_.fetch_add(n, std::memory_order_relaxed); }
  void AddRequests(uint64_t n) {
    requests_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddBatch() { batches_.fetch_add(1, std::memory_order_relaxed); }
  void AddSwap() { swaps_.fetch_add(1, std::memory_order_relaxed); }
  void AddConnection() {
    connections_.fetch_add(1, std::memory_order_relaxed);
  }
  void AddProtocolError() {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Configured micro-batch capacity (BatchPolicy::max_rows), the
  /// denominator of the stats JSON's `batch_fill` ratio. Set once by the
  /// daemon at startup.
  void SetBatchCapacity(int rows) {
    batch_capacity_.store(rows, std::memory_order_relaxed);
  }

  uint64_t rows() const { return rows_.load(std::memory_order_relaxed); }
  uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  uint64_t batches() const { return batches_.load(std::memory_order_relaxed); }
  uint64_t swaps() const { return swaps_.load(std::memory_order_relaxed); }

  double UptimeSeconds() const;

  /// One-line JSON: totals, sustained rows/sec since start, the active
  /// inference kernel tier, mean batch fill (rows per batch over the
  /// configured capacity), the request-latency percentiles, then the
  /// per-stage percentiles (`stages_us`) and `queue_depth`. New fields
  /// go at the end: scrapers take the first "p50"/"p99" as the request
  /// latency.
  std::string ToJson() const;

 private:
  LatencyHistogram request_latency_;
  StageLatencies stages_;
  std::atomic<int64_t> queue_depth_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> swaps_{0};
  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<int> batch_capacity_{0};
  std::chrono::steady_clock::time_point start_;
};

}  // namespace cmp

#endif  // CMP_SERVE_LATENCY_H_
