#ifndef CMP_SPRINT_SPRINT_H_
#define CMP_SPRINT_SPRINT_H_

#include <string>

#include "tree/builder.h"

namespace cmp {

/// Options specific to SPRINT.
struct SprintOptions {
  BuilderOptions base;
};

/// Reimplementation of SPRINT (Shafer, Agrawal & Mehta, VLDB 1996), the
/// exact baseline of the paper's Figures 16-19.
///
/// The tree grows breadth-first over one PresortedPartition of all
/// records (exact/exact.h): each numeric attribute is sorted once, every
/// node of a level is searched at each distinct value boundary of every
/// attribute, and a split partitions the node's lists stably, so nothing
/// is ever re-sorted. Nodes within the in-memory switch are finished
/// depth-first on the same partition.
///
/// What stays SPRINT's own is its cost model. Its attribute lists of
/// (value, class, rid) entries are materialized on disk: creating them
/// and rewriting a split node's lists (what SPRINT's rid -> child hash
/// table drives) are charged as writes, and every level re-reads every
/// list. Peak memory is a level's lists plus the hash table, capped at
/// the memory the simulated host grants. That traffic is exactly why the
/// paper finds CMP ~5x faster.
class SprintBuilder : public TreeBuilder {
 public:
  explicit SprintBuilder(SprintOptions options = {}) : options_(options) {}

  BuildResult Build(const Dataset& train) override;
  std::string name() const override { return "SPRINT"; }

 private:
  SprintOptions options_;
};

}  // namespace cmp

#endif  // CMP_SPRINT_SPRINT_H_
