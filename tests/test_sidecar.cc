#include "io/sketch_sidecar.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/schema.h"
#include "datagen/agrawal.h"
#include "stream/grower.h"

namespace cmp {
namespace {

SketchSidecar MakeSidecar() {
  const Schema schema = AgrawalSchema();
  SketchSidecar sidecar;
  sidecar.SetSchema(schema);
  sidecar.sketch_capacity = 64;
  sidecar.intervals = 25;
  sidecar.records_seen = 12345;

  Rng rng(9);
  for (NodeId node : {2, 5, 9}) {
    LeafSketchState state;
    InitLeafState(schema, sidecar.sketch_capacity, &state);
    state.node = node;
    for (size_t c = 0; c < state.class_counts.size(); ++c) {
      state.class_counts[c] = 100 * (node + 1) + static_cast<int64_t>(c);
    }
    for (auto& sketch : state.sketches) {
      const int n = static_cast<int>(rng.UniformInt(0, 500));
      for (int i = 0; i < n; ++i) sketch.Add(rng.Uniform(-1e6, 1e6));
    }
    for (auto& table : state.cat_counts) {
      for (auto& cell : table) cell = rng.UniformInt(0, 50);
    }
    sidecar.leaves.push_back(std::move(state));
  }
  return sidecar;
}

TEST(SketchSidecar, RoundTrip) {
  const SketchSidecar sidecar = MakeSidecar();
  const std::vector<uint8_t> bytes = SerializeSketchSidecar(sidecar);

  SketchSidecar back;
  std::string error;
  ASSERT_TRUE(ParseSketchSidecar(bytes, &back, &error)) << error;

  EXPECT_EQ(back.sketch_capacity, sidecar.sketch_capacity);
  EXPECT_EQ(back.intervals, sidecar.intervals);
  EXPECT_EQ(back.records_seen, sidecar.records_seen);
  EXPECT_EQ(back.num_classes, sidecar.num_classes);
  EXPECT_EQ(back.attr_is_numeric, sidecar.attr_is_numeric);
  EXPECT_EQ(back.attr_cardinality, sidecar.attr_cardinality);
  ASSERT_EQ(back.leaves.size(), sidecar.leaves.size());
  for (size_t i = 0; i < back.leaves.size(); ++i) {
    const LeafSketchState& a = back.leaves[i];
    const LeafSketchState& b = sidecar.leaves[i];
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.class_counts, b.class_counts);
    EXPECT_EQ(a.cat_counts, b.cat_counts);
    ASSERT_EQ(a.sketches.size(), b.sketches.size());
    for (size_t s = 0; s < a.sketches.size(); ++s) {
      EXPECT_EQ(a.sketches[s].count(), b.sketches[s].count());
      EXPECT_EQ(a.sketches[s].rank_error_bound(),
                b.sketches[s].rank_error_bound());
      // Trailing empty levels are trimmed canonically, so compare only
      // up to the shorter ladder and require the rest empty.
      const auto& la = a.sketches[s].levels();
      const auto& lb = b.sketches[s].levels();
      const size_t common = std::min(la.size(), lb.size());
      for (size_t h = 0; h < common; ++h) EXPECT_EQ(la[h], lb[h]);
      for (size_t h = common; h < la.size(); ++h) EXPECT_TRUE(la[h].empty());
      for (size_t h = common; h < lb.size(); ++h) EXPECT_TRUE(lb[h].empty());
    }
  }
  EXPECT_TRUE(back.MatchesSchema(AgrawalSchema()));
}

TEST(SketchSidecar, SerializationIsDeterministic) {
  const SketchSidecar sidecar = MakeSidecar();
  EXPECT_EQ(SerializeSketchSidecar(sidecar), SerializeSketchSidecar(sidecar));
}

TEST(SketchSidecar, SaveLoadFile) {
  const SketchSidecar sidecar = MakeSidecar();
  const std::string path = testing::TempDir() + "/roundtrip.cmps";
  std::string error;
  ASSERT_TRUE(SaveSketchSidecar(sidecar, path, &error)) << error;
  SketchSidecar back;
  ASSERT_TRUE(LoadSketchSidecar(path, &back, &error)) << error;
  EXPECT_EQ(back.records_seen, sidecar.records_seen);
  EXPECT_EQ(back.leaves.size(), sidecar.leaves.size());
}

// Refit adds fresh counts into each leaf's categorical tables cell by
// cell, so a table must hold exactly cardinality x num_classes cells.
TEST(SketchSidecar, RejectsCategoricalTableOfWrongSize) {
  SketchSidecar sidecar = MakeSidecar();
  SketchSidecar out;
  std::string error;
  ASSERT_TRUE(
      ParseSketchSidecar(SerializeSketchSidecar(sidecar), &out, &error))
      << error;
  for (const int64_t delta : {-1, 1}) {
    SketchSidecar bad = sidecar;
    if (delta < 0) {
      bad.leaves[1].cat_counts[0].pop_back();
    } else {
      bad.leaves[1].cat_counts[0].push_back(0);
    }
    EXPECT_FALSE(ParseSketchSidecar(SerializeSketchSidecar(bad), &out, &error))
        << delta;
    EXPECT_NE(error.find("categorical table"), std::string::npos) << error;
  }
}

TEST(SketchSidecar, SchemaMismatchDetected) {
  SketchSidecar sidecar = MakeSidecar();
  EXPECT_TRUE(sidecar.MatchesSchema(AgrawalSchema()));

  std::vector<AttrInfo> attrs = {{"x", AttrKind::kNumeric, 0}};
  const Schema other(std::move(attrs), {"A", "B"});
  EXPECT_FALSE(sidecar.MatchesSchema(other));

  // Same attributes, different class count.
  sidecar.num_classes = 3;
  EXPECT_FALSE(sidecar.MatchesSchema(AgrawalSchema()));
}

TEST(SketchSidecar, LoadMissingFileFails) {
  SketchSidecar out;
  std::string error;
  EXPECT_FALSE(
      LoadSketchSidecar("/nonexistent/dir/side.cmps", &out, &error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace cmp
