#ifndef CMP_SLIQ_SLIQ_H_
#define CMP_SLIQ_SLIQ_H_

#include <string>

#include "tree/builder.h"

namespace cmp {

/// Options specific to SLIQ.
struct SliqOptions {
  BuilderOptions base;
};

/// Reimplementation of SLIQ (Mehta, Agrawal & Rissanen, EDBT 1996), the
/// predecessor of SPRINT and the other "exact algorithm" the paper cites.
///
/// The tree grows breadth-first over one PresortedPartition of all
/// records (exact/exact.h), with SPRINT's splits: each numeric attribute
/// is sorted once, and every leaf of a level is searched at each distinct
/// value boundary. Each level first finishes its leaves within the
/// in-memory switch depth-first on the same partition, then splits the
/// rest.
///
/// What stays SLIQ's own is its cost model. Its (value, rid) attribute
/// lists are written once at the presort and never rewritten. A
/// memory-resident class list maps every rid to its current leaf: it is
/// SLIQ's scalability limit, and the reason SPRINT exists. Each level
/// reads every numeric attribute list once to evaluate all its leaves
/// together, gathering the small leaves costs one class-list sweep, and
/// splitting rewrites the class list, so SLIQ writes far less than
/// SPRINT.
class SliqBuilder : public TreeBuilder {
 public:
  explicit SliqBuilder(SliqOptions options = {}) : options_(options) {}

  BuildResult Build(const Dataset& train) override;
  std::string name() const override { return "SLIQ"; }

 private:
  SliqOptions options_;
};

}  // namespace cmp

#endif  // CMP_SLIQ_SLIQ_H_
