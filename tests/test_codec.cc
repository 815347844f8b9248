// The binary formats against their committed fixtures (tests/golden):
//   f2_64.cmpt                    `cmptool gen --function F2 --records 64
//                                 --seed 7` (table format version 2)
//   f2_64_v1.cmpt                 the same table in format version 1, as
//                                 an older `cmptool gen` wrote it
//   f2_64_stream.cmps             the sidecar of `cmptool train --algo
//                                 cmp-stream` on that table
//   cmp_full_default_blocked.cmpb a blob from an older compiler
// Each fixture loads and re-saves byte for byte (the version 1 table
// re-saves as version 2), and one corruption sweep runs over all four
// (plus an in-process blob with every split kind)
// and over the text formats (the tree cmp_full_linear.tree and a forest
// of three golden trees): every truncation prefix, every single-byte
// flip and an oversized value written over every count field must
// either be rejected or load, without a crash (ASan/UBSan make a bad
// access fail the test) and without allocating more than the input
// could hold.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "common/schema.h"
#include "infer/model_io.h"
#include "io/codec.h"
#include "io/model_blob.h"
#include "io/sketch_sidecar.h"
#include "io/stream.h"
#include "io/table_file.h"
#include "tree/serialize.h"
#include "tree/tree.h"

// The largest single operator-new request since the last reset.
namespace {
std::atomic<size_t> largest_new{0};
}  // namespace

// Kept out of line: GCC's -Wmismatched-new-delete misfires when it
// inlines a replaced delete that calls free().
__attribute__((noinline)) void* operator new(size_t size) {
  size_t seen = largest_new.load(std::memory_order_relaxed);
  while (size > seen && !largest_new.compare_exchange_weak(seen, size)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

namespace cmp {
namespace {

using Bytes = std::vector<uint8_t>;

std::string GoldenPath(const std::string& name) {
  return std::string(CMP_GOLDEN_DIR) + "/" + name;
}

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Bytes ReadBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(is)),
               std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const Bytes& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------
// Format pins: the committed fixtures re-save byte for byte.

TEST(CodecFixtures, TableResavesByteIdentically) {
  Dataset ds;
  ASSERT_TRUE(LoadTableFile(GoldenPath("f2_64.cmpt"), &ds));
  EXPECT_EQ(ds.num_records(), 64);
  const std::string path = TempPath("resave.cmpt");
  ASSERT_TRUE(SaveTableFile(ds, path));
  EXPECT_EQ(ReadBytes(path), ReadBytes(GoldenPath("f2_64.cmpt")));
  std::remove(path.c_str());
}

// A version 1 table loads to the version 2 table's values and labels,
// and re-saves as the version 2 fixture.
TEST(CodecFixtures, VersionOneTableLoadsLikeVersionTwo) {
  Dataset v1;
  Dataset v2;
  ASSERT_TRUE(LoadTableFile(GoldenPath("f2_64_v1.cmpt"), &v1));
  ASSERT_TRUE(LoadTableFile(GoldenPath("f2_64.cmpt"), &v2));
  ASSERT_TRUE(v1.schema() == v2.schema());
  ASSERT_EQ(v1.num_records(), v2.num_records());
  const Schema& schema = v1.schema();
  for (RecordId r = 0; r < v1.num_records(); ++r) {
    for (AttrId a = 0; a < schema.num_attrs(); ++a) {
      if (schema.is_numeric(a)) {
        EXPECT_EQ(v1.numeric(a, r), v2.numeric(a, r)) << a << " " << r;
      } else {
        EXPECT_EQ(v1.categorical(a, r), v2.categorical(a, r))
            << a << " " << r;
      }
    }
    EXPECT_EQ(v1.label(r), v2.label(r)) << r;
  }
  const std::string path = TempPath("resave_v1.cmpt");
  ASSERT_TRUE(SaveTableFile(v1, path));
  EXPECT_EQ(ReadBytes(path), ReadBytes(GoldenPath("f2_64.cmpt")));
  std::remove(path.c_str());
}

TEST(CodecFixtures, SidecarResavesByteIdentically) {
  SketchSidecar sidecar;
  std::string error;
  ASSERT_TRUE(LoadSketchSidecar(GoldenPath("f2_64_stream.cmps"), &sidecar,
                                &error))
      << error;
  for (const char* table : {"f2_64.cmpt", "f2_64_v1.cmpt"}) {
    Dataset ds;
    ASSERT_TRUE(LoadTableFile(GoldenPath(table), &ds)) << table;
    EXPECT_TRUE(sidecar.MatchesSchema(ds.schema())) << table;
    EXPECT_EQ(ds.num_records(), 64) << table;
  }
  EXPECT_EQ(sidecar.records_seen, 64);
  const std::string path = TempPath("resave.cmps");
  ASSERT_TRUE(SaveSketchSidecar(sidecar, path, &error)) << error;
  EXPECT_EQ(ReadBytes(path), ReadBytes(GoldenPath("f2_64_stream.cmps")));
  std::remove(path.c_str());
}

TEST(CodecFixtures, BlobResavesByteIdentically) {
  const std::string golden = GoldenPath("cmp_full_default_blocked.cmpb");
  CompiledModel model;
  std::string error;
  ASSERT_TRUE(LoadCompiledModel(golden, &model, &error)) << error;
  const std::string path = TempPath("resave.cmpb");
  ASSERT_TRUE(WriteWholeFile(
      path, {std::as_bytes(std::span(model.blob->data(), model.blob->size()))},
      &error))
      << error;
  EXPECT_EQ(ReadBytes(path), ReadBytes(golden));
  std::remove(path.c_str());

  // The schema section a fresh compile of the fixture's tree writes is
  // the fixture's, byte for byte.
  std::vector<DecisionTree> trees;
  ASSERT_TRUE(LoadTrees(GoldenPath("cmp_full_default.tree"), &trees));
  const CompiledModel fresh = CompileModel({&trees.front()}, &error);
  ASSERT_FALSE(fresh.empty()) << error;
  const BlobSection* old_schema =
      model.blob->Find(kGlobalSection, SectionKind::kSchema);
  const BlobSection* new_schema =
      fresh.blob->Find(kGlobalSection, SectionKind::kSchema);
  ASSERT_NE(old_schema, nullptr);
  ASSERT_NE(new_schema, nullptr);
  ASSERT_EQ(old_schema->bytes, new_schema->bytes);
  EXPECT_EQ(0, std::memcmp(model.blob->SectionData<uint8_t>(*old_schema),
                           fresh.blob->SectionData<uint8_t>(*new_schema),
                           old_schema->bytes));
  EXPECT_TRUE(*model.schema == trees.front().schema());
}

// ---------------------------------------------------------------------
// The one corruption sweep.

// Probe rows wider than any fixture's schema: the table fixture's
// records, then extremes and out-of-range codes. Built once, before any
// allocation is measured.
constexpr int32_t kProbeWidth = 16;

const std::vector<std::pair<std::vector<double>, std::vector<int32_t>>>&
ProbeRows() {
  static const auto rows = [] {
    Dataset ds;
    EXPECT_TRUE(LoadTableFile(GoldenPath("f2_64.cmpt"), &ds));
    const Schema& schema = ds.schema();
    std::vector<std::pair<std::vector<double>, std::vector<int32_t>>> out;
    for (RecordId r = 0; r < ds.num_records(); ++r) {
      std::vector<double> numeric(kProbeWidth, 0.0);
      std::vector<int32_t> categorical(kProbeWidth, 0);
      for (AttrId a = 0; a < schema.num_attrs(); ++a) {
        if (schema.is_numeric(a)) {
          numeric[a] = ds.numeric(a, r);
        } else {
          categorical[a] = ds.categorical(a, r);
        }
      }
      out.push_back({std::move(numeric), std::move(categorical)});
    }
    for (const double v : {-std::numeric_limits<double>::infinity(), -1e300,
                           0.0, 1e300}) {
      for (const int32_t c : {-1, 0, 1 << 20}) {
        out.push_back({std::vector<double>(kProbeWidth, v),
                       std::vector<int32_t>(kProbeWidth, c)});
      }
    }
    return out;
  }();
  return rows;
}

// Loads `bytes` the way the tools do and exercises what loaded. Returns
// true when the input was accepted.
using Loader = std::function<bool(const Bytes&)>;

bool LoadTable(const Bytes& bytes) {
  const std::string path = TempPath("sweep.cmpt");
  WriteBytes(path, bytes);
  Dataset ds;
  const bool loaded = LoadTableFile(path, &ds);
  // The scanner opens whatever has a well-formed header and size, and
  // its block reads check the payload.
  if (auto scanner = TableScanner::Open(path, 16)) {
    ColumnBlock block;
    while (scanner->NextBlock(&block)) {
    }
    // A table that loads whole also streams whole.
    if (loaded) {
      EXPECT_EQ(scanner->position(), scanner->num_records());
    }
  } else {
    EXPECT_FALSE(loaded) << "LoadTableFile accepted what the scanner refused";
  }
  return loaded;
}

bool LoadSidecar(const Bytes& bytes) {
  SketchSidecar out;
  std::string error;
  if (!ParseSketchSidecar(bytes, &out, &error)) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  for (const LeafSketchState& leaf : out.leaves) {
    EXPECT_EQ(leaf.class_counts.size(), static_cast<size_t>(out.num_classes));
  }
  return true;
}

// Predicts every probe row with every tree of `model`.
void Probe(const CompiledModel& model) {
  EXPECT_LE(model.schema->num_attrs(), kProbeWidth);
  if (model.schema->num_attrs() > kProbeWidth) return;
  for (const auto& [numeric, categorical] : ProbeRows()) {
    for (const CompiledTree& t : model.trees) {
      const ClassId c = t.PredictRow(numeric.data(), categorical.data());
      EXPECT_TRUE(c >= 0 && c < t.num_classes());
    }
  }
}

bool LoadBlob(const Bytes& bytes) {
  std::string error;
  std::shared_ptr<const ModelBlob> blob = ModelBlob::FromBytes(bytes, &error);
  if (blob == nullptr) {
    EXPECT_FALSE(error.empty());
    return false;
  }
  CompiledModel model;
  if (!ModelFromBlob(blob, &model, &error)) return false;
  Probe(model);
  return true;
}

// The text formats load through their parsers; what parses is compiled
// and probed like a blob. A forest whose trees disagree on the schema
// parses but does not compile.
void ProbeTrees(const std::vector<DecisionTree>& trees) {
  std::vector<const DecisionTree*> views;
  for (const DecisionTree& tree : trees) views.push_back(&tree);
  std::string error;
  const CompiledModel model = CompileModel(views, &error);
  if (!model.empty()) Probe(model);
}

bool LoadTextTree(const Bytes& bytes) {
  std::vector<DecisionTree> trees(1);
  const std::string text(bytes.begin(), bytes.end());
  if (!DeserializeTree(text, &trees[0])) return false;
  ProbeTrees(trees);
  return true;
}

bool LoadTextForest(const Bytes& bytes) {
  std::vector<DecisionTree> trees;
  const std::string text(bytes.begin(), bytes.end());
  if (!DeserializeForest(text, &trees)) return false;
  ProbeTrees(trees);
  return true;
}

// The table scanner and the blob container frame their input before any
// model or column is read; a truncated input must fail there already.
bool TableFrames(const Bytes& bytes) {
  const std::string path = TempPath("frame.cmpt");
  WriteBytes(path, bytes);
  return TableScanner::Open(path) != nullptr;
}

bool BlobFrames(const Bytes& bytes) {
  std::string error;
  return ModelBlob::FromBytes(bytes, &error) != nullptr;
}

bool SidecarFrames(const Bytes& bytes) { return LoadSidecar(bytes); }

// A one-tree blob with a numeric, a categorical and a linear split, so
// flips also land in the split kinds the committed blob lacks.
Bytes EverySplitKindBlob() {
  const Schema schema({{"n0", AttrKind::kNumeric, 0},
                       {"c0", AttrKind::kCategorical, 3},
                       {"n1", AttrKind::kNumeric, 0}},
                      {"alpha", "beta"});
  DecisionTree tree(schema);
  TreeNode split;
  split.is_leaf = false;
  split.split = Split::Numeric(0, 1.5);
  split.left = 1;
  split.right = 2;
  tree.AddNode(split);
  split.split = Split::Categorical(1, {1, 0, 1});
  split.depth = 1;
  split.left = 3;
  split.right = 4;
  tree.AddNode(split);
  split.split = Split::Linear(0, 2, 0.5, -1.0, 0.25);
  split.left = 5;
  split.right = 6;
  tree.AddNode(split);
  for (int i = 0; i < 4; ++i) {
    TreeNode leaf;
    leaf.is_leaf = true;
    leaf.leaf_class = i % 2;
    leaf.depth = 2;
    leaf.class_counts = {7 - i, i + 2};
    tree.AddNode(leaf);
  }
  std::string error;
  return PackModelBlob({&tree}, &error);
}

// How a format writes its counts: fixed-width u32/i64 fields, LEB128
// varints, or decimal words of text.
enum class Counts { kFixed, kVarint, kDecimal };

struct Fixture {
  std::string name;
  std::function<Bytes()> bytes;
  Loader load;
  // Checks the framing alone. Null for the text formats, which have no
  // framing apart from their parse.
  Loader frames;
  Counts counts;
  // The most one input byte may make a single allocation grow by.
  size_t expansion = 1;
};

// A parsed text node takes sizeof(TreeNode) bytes, its line as few as 16
// ("leaf 0 d 0 cc 0\n"), and the node array grows by doubling. So a text
// tree allocates more than its own bytes however its parser is written.
constexpr size_t kTextExpansion = 2 * sizeof(TreeNode) / 16;

void PrintTo(const Fixture& fixture, std::ostream* os) { *os << fixture.name; }

class CorruptionSweep : public ::testing::TestWithParam<Fixture> {
 protected:
  static void SetUpTestSuite() { ProbeRows(); }

  // Loads `bytes` and checks that no single allocation exceeded what an
  // input of that size can hold: the input's own bytes (times the
  // format's expansion), or an ifstream's fixed buffer (BUFSIZ),
  // whichever is larger.
  bool Load(const Bytes& bytes, const std::string& what) {
    largest_new = 0;
    bool loaded = false;
    EXPECT_NO_THROW(loaded = GetParam().load(bytes)) << what;
    const size_t bound =
        std::max<size_t>(bytes.size() * GetParam().expansion, BUFSIZ);
    EXPECT_LE(largest_new.load(), bound) << what;
    return loaded;
  }

  // False when the fixture has no framing check.
  bool Frames(const Bytes& bytes) {
    return GetParam().frames && GetParam().frames(bytes);
  }

  Bytes Good() { return GetParam().bytes(); }
};

TEST_P(CorruptionSweep, IntactFixtureLoads) {
  EXPECT_TRUE(Load(Good(), "intact"));
}

TEST_P(CorruptionSweep, EveryTruncationAndTrailingBytesFail) {
  const Bytes good = Good();
  for (size_t len = 0; len < good.size(); ++len) {
    const Bytes prefix(good.begin(), good.begin() + len);
    const std::string what = "prefix of " + std::to_string(len);
    EXPECT_FALSE(Frames(prefix)) << what;
    EXPECT_FALSE(Load(prefix, what));
  }
  Bytes padded = good;
  padded.push_back(0);
  EXPECT_FALSE(Frames(padded));
  EXPECT_FALSE(Load(padded, "one trailing byte"));
  padded = good;
  padded.insert(padded.end(), good.begin(), good.end());
  EXPECT_FALSE(Frames(padded));
  EXPECT_FALSE(Load(padded, "the input twice"));
}

TEST_P(CorruptionSweep, EverySingleByteFlipIsRejectedOrLoads) {
  const Bytes good = Good();
  for (const uint8_t mask : {uint8_t{0xff}, uint8_t{0x55}}) {
    for (size_t at = 0; at < good.size(); ++at) {
      Bytes mutant = good;
      mutant[at] ^= mask;
      Load(mutant, "flip at " + std::to_string(at));
    }
  }
}

bool IsDigit(uint8_t c) { return c >= '0' && c <= '9'; }
bool IsSpace(uint8_t c) { return c == ' ' || c == '\n'; }

TEST_P(CorruptionSweep, OversizedCountsAreRejectedOrLoad) {
  const Bytes good = Good();
  // Every offset stands in for "each count field": whatever field starts
  // there gets a value far beyond what the input could back.
  for (size_t at = 0; at < good.size(); ++at) {
    const std::string what = "oversized at " + std::to_string(at);
    if (GetParam().counts == Counts::kVarint) {
      // Replace the varint starting here with 2^62 and with the input's
      // size, each re-encoded.
      size_t end = at;
      while (end < good.size() && (good[end] & 0x80) != 0) ++end;
      end = std::min(end + 1, good.size());
      for (const uint64_t value : {uint64_t{1} << 62,
                                   static_cast<uint64_t>(good.size())}) {
        ByteWriter w;
        w.Var(value);
        Bytes mutant(good.begin(), good.begin() + at);
        const Bytes varint = w.Take();
        mutant.insert(mutant.end(), varint.begin(), varint.end());
        mutant.insert(mutant.end(), good.begin() + end, good.end());
        Load(mutant, what);
      }
      continue;
    }
    if (GetParam().counts == Counts::kDecimal) {
      // Replace the decimal word starting here, if one does, with
      // 2^31 - 1 and with 2^62.
      size_t end = at;
      while (end < good.size() && IsDigit(good[end])) ++end;
      const bool word = end > at && (at == 0 || IsSpace(good[at - 1])) &&
                        (end == good.size() || IsSpace(good[end]));
      if (!word) continue;
      for (const std::string& value :
           {std::to_string(std::numeric_limits<int32_t>::max()),
            std::to_string(int64_t{1} << 62)}) {
        Bytes mutant(good.begin(), good.begin() + at);
        mutant.insert(mutant.end(), value.begin(), value.end());
        mutant.insert(mutant.end(), good.begin() + end, good.end());
        Load(mutant, what);
      }
      continue;
    }
    for (const uint32_t value :
         {0xffffffffu, 0x7fffffffu, static_cast<uint32_t>(good.size())}) {
      if (at + sizeof(value) > good.size()) break;
      Bytes mutant = good;
      std::memcpy(&mutant[at], &value, sizeof(value));
      Load(mutant, what);
    }
    const int64_t huge = std::numeric_limits<int64_t>::max();
    if (at + sizeof(huge) <= good.size()) {
      Bytes mutant = good;
      std::memcpy(&mutant[at], &huge, sizeof(huge));
      Load(mutant, what);
    }
  }
}

std::function<Bytes()> GoldenBytes(const std::string& file) {
  return [file] { return ReadBytes(GoldenPath(file)); };
}

// A text forest of three golden trees over one schema, one of them with
// linear splits.
Bytes TextForest() {
  std::vector<DecisionTree> trees;
  for (const char* file :
       {"cmp_full_linear.tree", "cmp_s.tree", "cmp_full_default.tree"}) {
    EXPECT_TRUE(LoadTree(GoldenPath(file), &trees.emplace_back())) << file;
  }
  const std::string text = SerializeForest(trees);
  return Bytes(text.begin(), text.end());
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, CorruptionSweep,
    ::testing::Values(
        Fixture{"cmpt", GoldenBytes("f2_64.cmpt"), LoadTable, TableFrames,
                Counts::kFixed},
        Fixture{"cmpt_v1", GoldenBytes("f2_64_v1.cmpt"), LoadTable,
                TableFrames, Counts::kFixed},
        Fixture{"cmps", GoldenBytes("f2_64_stream.cmps"), LoadSidecar,
                SidecarFrames, Counts::kVarint},
        Fixture{"cmpb", GoldenBytes("cmp_full_default_blocked.cmpb"),
                LoadBlob, BlobFrames, Counts::kFixed},
        Fixture{"cmpb_every_split_kind", EverySplitKindBlob, LoadBlob,
                BlobFrames, Counts::kFixed},
        Fixture{"text_tree", GoldenBytes("cmp_full_linear.tree"),
                LoadTextTree, nullptr, Counts::kDecimal, kTextExpansion},
        Fixture{"text_forest", TextForest, LoadTextForest, nullptr,
                Counts::kDecimal, kTextExpansion}),
    [](const ::testing::TestParamInfo<Fixture>& info) {
      return info.param.name;
    });

// The tag fields each format names in its error.
TEST(CodecFixtures, BadMagicVersionAndEndianAreNamed) {
  const Bytes sidecar = ReadBytes(GoldenPath("f2_64_stream.cmps"));
  const Bytes blob = ReadBytes(GoldenPath("cmp_full_default_blocked.cmpb"));
  for (const auto& [at, word] : {std::pair<size_t, const char*>{0, "magic"},
                                 {4, "version"},
                                 {8, "endian"}}) {
    Bytes bad = sidecar;
    bad[at] ^= 0xff;
    SketchSidecar out;
    std::string error;
    EXPECT_FALSE(ParseSketchSidecar(bad, &out, &error));
    EXPECT_NE(error.find(word), std::string::npos) << error;
    bad = blob;
    bad[at] ^= 0xff;
    EXPECT_EQ(ModelBlob::FromBytes(bad, &error), nullptr);
    EXPECT_NE(error.find(word), std::string::npos) << error;
  }
  // The table's magic and version, with no error text to name them.
  const std::string path = TempPath("bad_tag.cmpt");
  for (const size_t at : {size_t{0}, size_t{4}}) {
    Bytes bad = ReadBytes(GoldenPath("f2_64.cmpt"));
    bad[at] ^= 0xff;
    WriteBytes(path, bad);
    Dataset ds;
    EXPECT_FALSE(LoadTableFile(path, &ds)) << at;
  }
  std::remove(path.c_str());
}

// A forest header's tree count is untrusted until its trees parse: the
// largest count the format allows, with no tree behind it, is rejected
// without allocating room for it.
TEST(CodecFixtures, ForestTreeCountAllocatesOnlyAsTreesParse) {
  const std::string text = "cmp-forest 1\ntrees 1048576\n";
  std::vector<DecisionTree> trees;
  largest_new = 0;
  EXPECT_FALSE(DeserializeForest(text, &trees));
  EXPECT_LE(largest_new.load(), 4 * text.size());
}

// Likewise a node's class-count count: the largest one allowed, with no
// count behind it, is rejected without allocating room for it.
TEST(CodecFixtures, TreeClassCountAllocatesOnlyAsCountsParse) {
  const std::string text =
      "cmp-tree 1\nattrs 0\nclasses 1\nc\nnodes 1\nleaf 0 d 0 cc 1048576\n";
  DecisionTree tree;
  largest_new = 0;
  EXPECT_FALSE(DeserializeTree(text, &tree));
  EXPECT_LE(largest_new.load(), 4 * text.size());
}

// ---------------------------------------------------------------------
// The one schema rule, as every decoder applies it.

TEST(SchemaRule, KindAndCardinality) {
  EXPECT_TRUE(ValidAttrEntry(0, 0));
  EXPECT_FALSE(ValidAttrEntry(0, 3));
  EXPECT_FALSE(ValidAttrEntry(0, -1));
  EXPECT_TRUE(ValidAttrEntry(1, 0));
  EXPECT_TRUE(ValidAttrEntry(1, 5));
  EXPECT_TRUE(ValidAttrEntry(1, kMaxCardinality));
  EXPECT_FALSE(ValidAttrEntry(1, kMaxCardinality + 1));
  EXPECT_FALSE(ValidAttrEntry(1, -1));
  EXPECT_FALSE(ValidAttrEntry(1, std::numeric_limits<int32_t>::max()));
  for (const int64_t kind : {-1, 2, 7, 255}) {
    EXPECT_FALSE(ValidAttrEntry(kind, 0)) << kind;
    EXPECT_FALSE(ValidAttrEntry(kind, 5)) << kind;
  }
}

TEST(SchemaRule, EveryFormatAppliesIt) {
  struct Case {
    AttrInfo attr;
    bool valid;
  };
  const Case cases[] = {
      {{"x", AttrKind::kNumeric, 0}, true},
      {{"x", AttrKind::kNumeric, 3}, false},
      {{"c", AttrKind::kCategorical, 5}, true},
      {{"c", AttrKind::kCategorical, 0}, true},
      {{"c", AttrKind::kCategorical, static_cast<int32_t>(kMaxCardinality)},
       true},
      {{"c", AttrKind::kCategorical,
        static_cast<int32_t>(kMaxCardinality + 1)},
       false},
      {{"c", AttrKind::kCategorical, std::numeric_limits<int32_t>::max()},
       false},
      {{"c", AttrKind::kCategorical, -1}, false},
      {{std::string(kMaxNameBytes + 1, 'n'), AttrKind::kNumeric, 0}, false},
  };
  const std::string path = TempPath("rule.cmpt");
  for (const Case& c : cases) {
    const std::string what = c.attr.name.substr(0, 8) + " card " +
                             std::to_string(c.attr.cardinality);
    const Schema schema({c.attr}, {"a", "b"});

    // .cmpt: an empty table of that schema.
    ASSERT_TRUE(SaveTableFile(Dataset(schema), path));
    Dataset ds;
    EXPECT_EQ(LoadTableFile(path, &ds), c.valid) << what;

    // .cmpb: a one-leaf tree of that schema.
    DecisionTree tree(schema);
    TreeNode leaf;
    leaf.is_leaf = true;
    leaf.leaf_class = 0;
    tree.AddNode(leaf);
    std::string error;
    const CompiledModel model = CompileModel({&tree}, &error);
    EXPECT_EQ(!model.empty(), c.valid) << what << ": " << error;

    // The text tree parser.
    DecisionTree parsed;
    EXPECT_EQ(DeserializeTree(SerializeTree(tree), &parsed), c.valid) << what;

    // .cmps: the sidecar's schema signature, which stores no names.
    if (c.attr.name.size() <= kMaxNameBytes) {
      SketchSidecar sidecar;
      sidecar.num_classes = 2;
      sidecar.attr_is_numeric = {c.attr.kind == AttrKind::kNumeric};
      sidecar.attr_cardinality = {c.attr.cardinality};
      SketchSidecar back;
      EXPECT_EQ(ParseSketchSidecar(SerializeSketchSidecar(sidecar), &back,
                                   &error),
                c.valid)
          << what << ": " << error;
    }
  }
  std::remove(path.c_str());
}

// The kind byte of a `.cmpt` entry: anything but 0 or 1 is rejected, as
// `.cmpb` always did.
TEST(SchemaRule, TableKindByteOutsideZeroOrOneFails) {
  Bytes bytes = ReadBytes(GoldenPath("f2_64.cmpt"));
  // F2's fourth attribute, elevel, keeps its kind byte at offset 72.
  ASSERT_EQ(bytes[72], 1);
  const std::string path = TempPath("kind.cmpt");
  for (const uint8_t kind : {uint8_t{2}, uint8_t{7}, uint8_t{0xff}}) {
    bytes[72] = kind;
    WriteBytes(path, bytes);
    Dataset ds;
    EXPECT_FALSE(LoadTableFile(path, &ds)) << int{kind};
    EXPECT_EQ(TableScanner::Open(path), nullptr) << int{kind};
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cmp
