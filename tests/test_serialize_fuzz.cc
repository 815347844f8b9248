// Robustness of the tree and forest text formats: every truncation and a
// barrage of random single-character corruptions of a valid
// serialization must be either rejected cleanly or produce trees that
// classify without crashing — never undefined behavior.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "datagen/agrawal.h"
#include "exact/exact.h"
#include "tree/serialize.h"

namespace cmp {
namespace {

DecisionTree TrainedTree(uint64_t seed) {
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF2;
  gen.num_records = 2000;
  gen.seed = seed;
  const Dataset ds = GenerateAgrawal(gen);
  ExactBuilder builder;
  return builder.Build(ds).tree;
}

std::string ValidSerialization() { return SerializeTree(TrainedTree(71)); }

// One valid document per text format: a tree, and a forest of three.
struct Document {
  const char* name;
  std::string text;
  bool forest;
};

std::vector<Document> ValidDocuments() {
  return {{"tree", ValidSerialization(), false},
          {"forest",
           SerializeForest({TrainedTree(71), TrainedTree(72), TrainedTree(73)}),
           true}};
}

// Classifies a few rows valid under the tree's own schema, which a
// corruption may have changed: each must reach a leaf with a class the
// schema names.
void ExpectClassifies(const DecisionTree& tree) {
  ASSERT_GT(tree.num_nodes(), 0);
  const Schema& schema = tree.schema();
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    // No value is valid for a categorical attribute of cardinality 0.
    if (!schema.is_numeric(a) && schema.attr(a).cardinality == 0) return;
  }
  Dataset ds(schema);
  for (int i = 0; i < 8; ++i) {
    std::vector<double> numeric;
    std::vector<int32_t> categorical;
    for (AttrId a = 0; a < schema.num_attrs(); ++a) {
      if (schema.is_numeric(a)) {
        numeric.push_back((i - 4) * 25000.0);
      } else {
        categorical.push_back(i % schema.attr(a).cardinality);
      }
    }
    ds.Append(numeric, categorical, 0);
  }
  for (RecordId r = 0; r < ds.num_records(); ++r) {
    const ClassId c = tree.Classify(ds, r);
    ASSERT_GE(c, 0);
    ASSERT_LT(c, schema.num_classes());
  }
}

// Parses `text` in `doc`'s format; whatever parses must classify.
bool ParsesAndClassifies(const Document& doc, const std::string& text) {
  std::vector<DecisionTree> trees(1);
  const bool ok = doc.forest ? DeserializeForest(text, &trees)
                             : DeserializeTree(text, &trees[0]);
  if (ok) {
    for (const DecisionTree& tree : trees) ExpectClassifies(tree);
  }
  return ok;
}

TEST(SerializeFuzz, EveryPrefixRejectedOrValid) {
  for (const Document& doc : ValidDocuments()) {
    ASSERT_TRUE(ParsesAndClassifies(doc, doc.text)) << doc.name;
    // Step through prefixes (by ~37 bytes to keep the test quick).
    for (size_t len = 0; len < doc.text.size(); len += 37) {
      // Truncations that cut inside the node list must fail; a
      // successful parse may only happen if the prefix happens to be a
      // complete document (it never is: node and tree counts are
      // declared up front, and a last line cut short has no newline).
      // test_codec's CorruptionSweep tries every prefix.
      EXPECT_FALSE(ParsesAndClassifies(doc, doc.text.substr(0, len)))
          << doc.name << " prefix length " << len;
    }
  }
}

TEST(SerializeFuzz, RandomCorruptionsNeverCrash) {
  for (const Document& doc : ValidDocuments()) {
    Rng rng(73);
    for (int trial = 0; trial < 300; ++trial) {
      std::string corrupted = doc.text;
      const size_t pos = rng.UniformInt(0, corrupted.size() - 1);
      corrupted[pos] = static_cast<char>(rng.UniformInt(32, 126));
      // Must not crash; result validity is unspecified, but if it
      // parses, the trees classify.
      ParsesAndClassifies(doc, corrupted);
    }
  }
}

TEST(SerializeFuzz, RandomLineDeletionRejectedOrSane) {
  const std::string text = ValidSerialization();
  Rng rng(79);
  std::vector<std::string> lines;
  {
    size_t start = 0;
    while (start < text.size()) {
      size_t end = text.find('\n', start);
      if (end == std::string::npos) end = text.size();
      lines.push_back(text.substr(start, end - start));
      start = end + 1;
    }
  }
  for (int trial = 0; trial < 50; ++trial) {
    const size_t victim = rng.UniformInt(0, lines.size() - 1);
    std::string mutated;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (i == victim) continue;
      mutated += lines[i];
      mutated += '\n';
    }
    DecisionTree out;
    if (DeserializeTree(mutated, &out)) {
      EXPECT_GT(out.num_nodes(), 0);
    }
  }
}

TEST(SerializeFuzz, GarbageBlobsRejected) {
  Rng rng(83);
  for (int trial = 0; trial < 100; ++trial) {
    std::string blob;
    const int len = static_cast<int>(rng.UniformInt(0, 500));
    for (int i = 0; i < len; ++i) {
      blob += static_cast<char>(rng.UniformInt(1, 255));
    }
    DecisionTree out;
    EXPECT_FALSE(DeserializeTree(blob, &out));
  }
}

// Targeted malformed inputs: each line below corrupts one structural
// invariant the hardened deserializer must now reject outright —
// backward/out-of-range child indices, out-of-range leaf classes and
// attribute ids, kind mismatches, absurd header counts, node-count
// mismatches, and trailing garbage.
TEST(SerializeFuzz, StructuralViolationsRejected) {
  const std::string header =
      "cmp-tree 1\n"
      "attrs 2\n"
      "num 0 x\n"
      "cat 3 c\n"
      "classes 2\n"
      "a\n"
      "b\n";
  auto parses = [&](const std::string& nodes_block) {
    DecisionTree out;
    return DeserializeTree(header + nodes_block, &out);
  };

  // Baseline: a well-formed two-node... three-node tree parses.
  ASSERT_TRUE(parses(
      "nodes 3\n"
      "num 0 0x1p+0 1 2 d 0 cc 0\n"
      "leaf 0 d 1 cc 0\n"
      "leaf 1 d 1 cc 0\n"));

  // Child index out of range.
  EXPECT_FALSE(parses(
      "nodes 3\n"
      "num 0 0x1p+0 1 7 d 0 cc 0\n"
      "leaf 0 d 1 cc 0\n"
      "leaf 1 d 1 cc 0\n"));
  // Backward child pointer (cycle through the root).
  EXPECT_FALSE(parses(
      "nodes 3\n"
      "num 0 0x1p+0 1 0 d 0 cc 0\n"
      "leaf 0 d 1 cc 0\n"
      "leaf 1 d 1 cc 0\n"));
  // Leaf class out of range / negative.
  EXPECT_FALSE(parses("nodes 1\nleaf 2 d 0 cc 0\n"));
  EXPECT_FALSE(parses("nodes 1\nleaf -1 d 0 cc 0\n"));
  // Split attribute out of range.
  EXPECT_FALSE(parses(
      "nodes 3\n"
      "num 5 0x1p+0 1 2 d 0 cc 0\n"
      "leaf 0 d 1 cc 0\n"
      "leaf 1 d 1 cc 0\n"));
  // Numeric split on a categorical attribute (and vice versa).
  EXPECT_FALSE(parses(
      "nodes 3\n"
      "num 1 0x1p+0 1 2 d 0 cc 0\n"
      "leaf 0 d 1 cc 0\n"
      "leaf 1 d 1 cc 0\n"));
  EXPECT_FALSE(parses(
      "nodes 3\n"
      "cat 0 3 101 1 2 d 0 cc 0\n"
      "leaf 0 d 1 cc 0\n"
      "leaf 1 d 1 cc 0\n"));
  // Categorical subset size disagrees with the schema cardinality.
  EXPECT_FALSE(parses(
      "nodes 3\n"
      "cat 1 2 10 1 2 d 0 cc 0\n"
      "leaf 0 d 1 cc 0\n"
      "leaf 1 d 1 cc 0\n"));
  // Node count larger than the list (truncated) and smaller (trailing
  // garbage lines).
  EXPECT_FALSE(parses("nodes 2\nleaf 0 d 0 cc 0\n"));
  EXPECT_FALSE(parses(
      "nodes 1\n"
      "leaf 0 d 0 cc 0\n"
      "leaf 1 d 0 cc 0\n"));
  // Negative depth; absurd class-count length.
  EXPECT_FALSE(parses("nodes 1\nleaf 0 d -1 cc 0\n"));
  EXPECT_FALSE(parses("nodes 1\nleaf 0 d 0 cc 99999999999\n"));

  // Absurd header counts must fail before allocating.
  DecisionTree out;
  EXPECT_FALSE(DeserializeTree("cmp-tree 1\nattrs 2000000000\n", &out));
  EXPECT_FALSE(DeserializeTree(
      "cmp-tree 1\nattrs 0\nclasses 2000000000\n", &out));
}

// The hardened validator must keep accepting every tree the builders
// produce (including pruned ones) — round-trip stays lossless.
TEST(SerializeFuzz, RealTreesStillRoundTrip) {
  const std::string text = ValidSerialization();
  DecisionTree out;
  ASSERT_TRUE(DeserializeTree(text, &out));
  EXPECT_EQ(SerializeTree(out), text);
}

}  // namespace
}  // namespace cmp
