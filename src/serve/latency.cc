#include "serve/latency.h"

#include <bit>
#include <sstream>

#include "common/cpu_features.h"

namespace cmp {

// Bucket layout: values 0..3 map to buckets 0..3 exactly; for larger
// values the octave is floor(log2 v) and the top two bits below the
// leading bit pick one of four sub-buckets, giving bucket
// (octave-1)*4 + sub. The mapping is monotone and the last bucket
// (octave 63, sub 3) is index 251 < kBuckets.
int LatencyHistogram::BucketOf(uint64_t ns) {
  if (ns < 4) return static_cast<int>(ns);
  const int octave = std::bit_width(ns) - 1;  // >= 2
  const int sub = static_cast<int>((ns >> (octave - 2)) & 3);
  return (octave - 1) * kSubBuckets + sub;
}

namespace {

// Inclusive value range [lo, hi) covered by a bucket; inverse of
// BucketOf for quantile interpolation.
void BucketRange(int b, uint64_t* lo, uint64_t* hi) {
  if (b < 4) {
    *lo = static_cast<uint64_t>(b);
    *hi = *lo + 1;
    return;
  }
  const int octave = b / LatencyHistogram::kSubBuckets + 1;
  const int sub = b % LatencyHistogram::kSubBuckets;
  *lo = static_cast<uint64_t>(4 + sub) << (octave - 2);
  *hi = *lo + (uint64_t{1} << (octave - 2));
}

}  // namespace

void LatencyHistogram::Record(uint64_t ns) {
  counts_[BucketOf(ns)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_ns_.fetch_add(ns, std::memory_order_relaxed);
  uint64_t prev = max_ns_.load(std::memory_order_relaxed);
  while (prev < ns &&
         !max_ns_.compare_exchange_weak(prev, ns, std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Snapshot LatencyHistogram::Snap() const {
  std::array<uint64_t, kBuckets> counts;
  uint64_t total = 0;
  for (int b = 0; b < kBuckets; ++b) {
    counts[b] = counts_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  Snapshot snap;
  snap.count = total;
  if (total == 0) return snap;
  snap.mean_us = static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) /
                 static_cast<double>(count_.load(std::memory_order_relaxed)) /
                 1e3;
  snap.max_us =
      static_cast<double>(max_ns_.load(std::memory_order_relaxed)) / 1e3;

  // Walk the cumulative distribution once for both quantiles,
  // interpolating linearly inside the hit bucket.
  auto quantile = [&](double q) {
    const double target = q * static_cast<double>(total);
    uint64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
      if (counts[b] == 0) continue;
      if (static_cast<double>(cum + counts[b]) >= target) {
        uint64_t lo = 0;
        uint64_t hi = 0;
        BucketRange(b, &lo, &hi);
        const double within =
            (target - static_cast<double>(cum)) /
            static_cast<double>(counts[b]);
        return (static_cast<double>(lo) +
                within * static_cast<double>(hi - lo)) /
               1e3;
      }
      cum += counts[b];
    }
    return snap.max_us;
  };
  snap.p50_us = quantile(0.50);
  snap.p99_us = quantile(0.99);
  return snap;
}

double ServeStats::UptimeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

namespace {

void WriteHistogram(std::ostream& os, const LatencyHistogram& hist) {
  const LatencyHistogram::Snapshot s = hist.Snap();
  os << "{\"count\":" << s.count << ",\"mean\":" << s.mean_us
     << ",\"p50\":" << s.p50_us << ",\"p99\":" << s.p99_us
     << ",\"max\":" << s.max_us << "}";
}

}  // namespace

std::string ServeStats::ToJson() const {
  const double up = UptimeSeconds();
  const uint64_t rows = rows_.load(std::memory_order_relaxed);
  const uint64_t batches = batches_.load(std::memory_order_relaxed);
  const int capacity = batch_capacity_.load(std::memory_order_relaxed);
  const double batch_fill =
      batches > 0 && capacity > 0
          ? static_cast<double>(rows) /
                (static_cast<double>(batches) * capacity)
          : 0.0;
  std::ostringstream os;
  os << "{\"uptime_s\":" << up << ",\"rows\":" << rows
     << ",\"requests\":" << requests_.load(std::memory_order_relaxed)
     << ",\"batches\":" << batches_.load(std::memory_order_relaxed)
     << ",\"swaps\":" << swaps_.load(std::memory_order_relaxed)
     << ",\"connections\":" << connections_.load(std::memory_order_relaxed)
     << ",\"protocol_errors\":"
     << protocol_errors_.load(std::memory_order_relaxed)
     << ",\"rows_per_sec\":"
     << (up > 0.0 ? static_cast<double>(rows) / up : 0.0)
     // The tier is read from the live dispatch state, not cached at
     // startup, so it always names what the next batch will run
     // (matching the train-side kernel_isa stats field).
     << ",\"kernel_isa\":\"" << KernelIsaName(ActiveKernelIsa()) << "\""
     << ",\"batch_fill\":" << batch_fill << ",\"latency_us\":";
  WriteHistogram(os, request_latency_);
  os << ",\"stages_us\":{\"parse\":";
  WriteHistogram(os, stages_.parse);
  os << ",\"queue_wait\":";
  WriteHistogram(os, stages_.queue_wait);
  os << ",\"score\":";
  WriteHistogram(os, stages_.score);
  os << ",\"reply_write\":";
  WriteHistogram(os, stages_.reply_write);
  os << "},\"queue_depth\":" << queue_depth() << "}";
  return os.str();
}

}  // namespace cmp
