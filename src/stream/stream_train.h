#ifndef CMP_STREAM_STREAM_TRAIN_H_
#define CMP_STREAM_STREAM_TRAIN_H_

#include <string>

#include "io/block_source.h"
#include "io/sketch_sidecar.h"
#include "stream/grower.h"
#include "tree/builder.h"

namespace cmp {

/// Streaming CMP training (`--algo cmp-stream`): one sequential pass
/// over the append-only record stream per tree level, per-node grids
/// from bounded quantile sketches instead of a whole-column pre-pass —
/// O(k log(n/k)) sketch memory per (node, class, attribute), no O(n)
/// column buffer. Fills `sidecar` (when non-null) with the per-leaf
/// sketch state `cmptool refit` consumes later. False with *error on a
/// stream read failure; `result` is then unusable.
bool StreamTrain(BlockSource& source, const StreamOptions& options,
                 BuildResult* result, SketchSidecar* sidecar,
                 std::string* error);

/// Registry adapter ("cmp-stream"): trains over an in-memory Dataset by
/// wrapping it in a zero-copy DatasetBlockSource. The sidecar of the
/// most recent Build is kept for callers that want to persist it.
class StreamBuilder : public TreeBuilder {
 public:
  explicit StreamBuilder(StreamOptions options)
      : options_(std::move(options)) {}

  BuildResult Build(const Dataset& train) override;
  std::string name() const override { return "CMP-stream"; }

  const SketchSidecar& sidecar() const { return sidecar_; }

 private:
  StreamOptions options_;
  SketchSidecar sidecar_;
};

}  // namespace cmp

#endif  // CMP_STREAM_STREAM_TRAIN_H_
