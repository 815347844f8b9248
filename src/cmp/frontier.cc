#include "cmp/frontier.h"

#include <algorithm>

namespace cmp {

namespace {

int64_t SegmentMemory(const Segment& seg) {
  int64_t bytes = seg.bundle.MemoryBytes() + seg.exact_left.MemoryBytes() +
                  seg.exact_right.MemoryBytes();
  if (seg.sub != nullptr) bytes += seg.sub->MemoryBytes();
  return bytes;
}

}  // namespace

int64_t Pending::MemoryBytes() const {
  int64_t bytes = static_cast<int64_t>(buffer.size()) * kBufferedBytes;
  for (const Segment& seg : segments) bytes += SegmentMemory(seg);
  return bytes;
}

void SortBuffer(std::vector<BufferedRecord>* buffer) {
  std::sort(buffer->begin(), buffer->end(),
            [](const BufferedRecord& a, const BufferedRecord& b) {
              return a.value != b.value ? a.value < b.value : a.rid < b.rid;
            });
}

int64_t CountAliveIntervals(const Pending& p) {
  int64_t n = static_cast<int64_t>(p.alive.size());
  for (const Segment& seg : p.segments) {
    if (seg.plan == PlanKind::kPending) n += CountAliveIntervals(*seg.sub);
  }
  return n;
}

int64_t CountBufferedRecords(const Pending& p) {
  int64_t n = static_cast<int64_t>(p.buffer.size());
  for (const Segment& seg : p.segments) {
    if (seg.plan == PlanKind::kPending) n += CountBufferedRecords(*seg.sub);
  }
  return n;
}

}  // namespace cmp
