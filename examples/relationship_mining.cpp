// Section 2.3 of the paper argues CMP's linear-combination splits can
// "uncover complex relationships unknown to previous algorithms". This
// example uses the classifier as a relationship-mining tool on the
// Agrawal disposable-income workload (Function 7):
//     group A  iff  2/3*(salary+commission) - loan/5 - 20000 > 0
// Univariate trees approximate the boundary with dozens of axis-parallel
// splits; the linear splits CMP commits expose the salary/commission and
// income/loan trade-offs directly, and the decision-path explanation
// shows which inequalities an individual applicant hit.

#include <iostream>

#include "cmp/cmp.h"
#include "datagen/agrawal.h"
#include "tree/crossval.h"
#include "tree/explain.h"
#include "tree/evaluate.h"

int main() {
  cmp::AgrawalOptions gen;
  gen.function = cmp::AgrawalFunction::kF7;
  gen.num_records = 60000;
  gen.seed = 29;
  const cmp::Dataset data = cmp::GenerateAgrawal(gen);

  // Encourage linear splits: the disposable-income boundary involves
  // three attributes, so pairwise lines are approximations; lower the
  // adoption margin to surface them.
  cmp::CmpOptions options = cmp::CmpFullOptions();
  options.linear_gain = 0.1;
  cmp::CmpBuilder builder(options);
  const cmp::BuildResult result = builder.Build(data);

  std::cout << "tree (" << result.tree.num_nodes() << " nodes):\n";
  // Print the linear splits the tree discovered.
  int linear_splits = 0;
  for (cmp::NodeId id = 0; id < result.tree.num_nodes(); ++id) {
    const cmp::TreeNode& n = result.tree.node(id);
    if (!n.is_leaf && n.split.kind == cmp::Split::Kind::kLinear) {
      std::cout << "  linear split at node " << id << ": "
                << n.split.ToString(data.schema()) << "\n";
      ++linear_splits;
    }
  }
  std::cout << linear_splits << " linear splits discovered\n\n";

  // Explain one applicant's classification end to end.
  const cmp::RecordId applicant = 7;
  const cmp::Explanation why = cmp::Explain(result.tree, data, applicant);
  std::cout << "why applicant " << applicant << " is classified '"
            << data.schema().class_name(why.predicted) << "':\n"
            << why.ToString(data.schema()) << "\n";

  // 5-fold cross-validation for an honest accuracy estimate.
  cmp::CmpBuilder cv_builder(options);
  const cmp::CrossValResult cv = cmp::CrossValidate(&cv_builder, data, 5);
  std::cout << "5-fold accuracy: " << cv.MeanAccuracy() << " +/- "
            << cv.StdDevAccuracy() << "\n";

  // Graphviz export for the curious.
  std::cout << "\n(render with: ./relationship_mining | ... | dot -Tsvg)\n";
  return 0;
}
