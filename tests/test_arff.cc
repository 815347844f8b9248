#include "io/arff.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "datagen/agrawal.h"
#include "exact/exact.h"
#include "tree/evaluate.h"

namespace cmp {
namespace {

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream os(path, std::ios::trunc);
  os << content;
}

TEST(Arff, ParsesMixedSchema) {
  const std::string path = TempPath("mixed.arff");
  WriteFile(path,
            "% a comment\n"
            "@relation test\n"
            "@attribute x numeric\n"
            "@attribute color {red, green, blue}\n"
            "@attribute y real\n"
            "@attribute class {no, yes}\n"
            "@data\n"
            "1.5, red, -2.0, no\n"
            "\n"
            "% another comment\n"
            "3.0, blue, 4.5, yes\n");
  Dataset ds;
  ASSERT_TRUE(LoadArff(path, &ds));
  EXPECT_EQ(ds.num_records(), 2);
  EXPECT_EQ(ds.num_attrs(), 3);
  EXPECT_EQ(ds.num_classes(), 2);
  EXPECT_TRUE(ds.schema().is_numeric(0));
  EXPECT_FALSE(ds.schema().is_numeric(1));
  EXPECT_EQ(ds.schema().attr(1).cardinality, 3);
  EXPECT_DOUBLE_EQ(ds.numeric(0, 0), 1.5);
  EXPECT_EQ(ds.categorical(1, 0), 0);  // red
  EXPECT_EQ(ds.categorical(1, 1), 2);  // blue
  EXPECT_EQ(ds.label(0), 0);
  EXPECT_EQ(ds.label(1), 1);
  std::remove(path.c_str());
}

TEST(Arff, QuotedNamesAndValues) {
  const std::string path = TempPath("quoted.arff");
  WriteFile(path,
            "@relation q\n"
            "@attribute 'my attr' numeric\n"
            "@attribute class {'class a','class b'}\n"
            "@data\n"
            "1.0,'class b'\n");
  Dataset ds;
  ASSERT_TRUE(LoadArff(path, &ds));
  EXPECT_EQ(ds.schema().attr(0).name, "my attr");
  EXPECT_EQ(ds.label(0), 1);
  std::remove(path.c_str());
}

TEST(Arff, RejectsMalformedInputs) {
  Dataset ds;
  const std::string path = TempPath("bad.arff");

  EXPECT_FALSE(LoadArff(TempPath("missing.arff"), &ds));

  // Numeric class attribute.
  WriteFile(path,
            "@relation r\n@attribute x numeric\n@attribute class numeric\n"
            "@data\n1,2\n");
  EXPECT_FALSE(LoadArff(path, &ds));

  // Wrong field count.
  WriteFile(path,
            "@relation r\n@attribute x numeric\n@attribute class {a,b}\n"
            "@data\n1,2,a\n");
  EXPECT_FALSE(LoadArff(path, &ds));

  // Unknown nominal value.
  WriteFile(path,
            "@relation r\n@attribute x numeric\n@attribute class {a,b}\n"
            "@data\n1,zebra\n");
  EXPECT_FALSE(LoadArff(path, &ds));

  // Missing values unsupported.
  WriteFile(path,
            "@relation r\n@attribute x numeric\n@attribute class {a,b}\n"
            "@data\n?,a\n");
  EXPECT_FALSE(LoadArff(path, &ds));

  // NaN is a missing value too; infinities are numbers.
  WriteFile(path,
            "@relation r\n@attribute x numeric\n@attribute class {a,b}\n"
            "@data\n1,a\nnan,b\n");
  EXPECT_FALSE(LoadArff(path, &ds));
  WriteFile(path,
            "@relation r\n@attribute x numeric\n@attribute class {a,b}\n"
            "@data\ninf,a\n-inf,b\n");
  EXPECT_TRUE(LoadArff(path, &ds));

  // Unknown directive.
  WriteFile(path, "@relation r\n@frobnicate\n@data\n");
  EXPECT_FALSE(LoadArff(path, &ds));
  std::remove(path.c_str());
}

TEST(Arff, RoundTripThroughSaveArff) {
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF2;
  gen.num_records = 500;
  gen.seed = 501;
  const Dataset original = GenerateAgrawal(gen);
  const std::string path = TempPath("roundtrip.arff");
  ASSERT_TRUE(SaveArff(original, "agrawal_f2", path));
  Dataset loaded;
  ASSERT_TRUE(LoadArff(path, &loaded));
  ASSERT_EQ(loaded.num_records(), original.num_records());
  ASSERT_EQ(loaded.num_attrs(), original.num_attrs());
  for (RecordId r = 0; r < 50; ++r) {
    for (AttrId a = 0; a < original.num_attrs(); ++a) {
      if (original.schema().is_numeric(a)) {
        EXPECT_DOUBLE_EQ(loaded.numeric(a, r), original.numeric(a, r));
      } else {
        EXPECT_EQ(loaded.categorical(a, r), original.categorical(a, r));
      }
    }
    EXPECT_EQ(loaded.label(r), original.label(r));
  }
  std::remove(path.c_str());
}

TEST(Arff, LoadedDataTrains) {
  AgrawalOptions gen;
  gen.function = AgrawalFunction::kF1;
  gen.num_records = 3000;
  gen.seed = 503;
  const Dataset original = GenerateAgrawal(gen);
  const std::string path = TempPath("train.arff");
  ASSERT_TRUE(SaveArff(original, "f1", path));
  Dataset loaded;
  ASSERT_TRUE(LoadArff(path, &loaded));
  ExactBuilder builder;
  const BuildResult result = builder.Build(loaded);
  EXPECT_GT(Evaluate(result.tree, loaded).Accuracy(), 0.99);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cmp
