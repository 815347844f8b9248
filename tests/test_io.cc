#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <new>
#include <sstream>
#include <string>

#include "common/stats.h"
#include "datagen/agrawal.h"
#include "io/csv.h"
#include "io/scan.h"
#include "io/stream.h"
#include "io/table_file.h"
#include "tree/serialize.h"

// The largest single operator-new request since the last reset, so the
// hostile-table tests can assert that counts read from a header never
// reach the allocator.
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

std::string TempPath(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Dataset SmallMixedDataset() {
  Schema schema({{"x", AttrKind::kNumeric, 0},
                 {"c", AttrKind::kCategorical, 4},
                 {"y", AttrKind::kNumeric, 0}},
                {"a", "b", "c"});
  Dataset ds(schema);
  ds.Append({1.25, -7.0}, {3}, 0);
  ds.Append({-0.5, 1e9}, {0}, 2);
  ds.Append({3.75, 0.001}, {1}, 1);
  return ds;
}

TEST(TableFile, RoundTrip) {
  const Dataset ds = SmallMixedDataset();
  const std::string path = TempPath("roundtrip.cmpt");
  ASSERT_TRUE(SaveTableFile(ds, path));
  Dataset loaded;
  ASSERT_TRUE(LoadTableFile(path, &loaded));
  ASSERT_TRUE(loaded.schema() == ds.schema());
  ASSERT_EQ(loaded.num_records(), ds.num_records());
  for (RecordId r = 0; r < ds.num_records(); ++r) {
    EXPECT_DOUBLE_EQ(loaded.numeric(0, r), ds.numeric(0, r));
    EXPECT_EQ(loaded.categorical(1, r), ds.categorical(1, r));
    EXPECT_DOUBLE_EQ(loaded.numeric(2, r), ds.numeric(2, r));
    EXPECT_EQ(loaded.label(r), ds.label(r));
  }
  std::remove(path.c_str());
}

TEST(TableFile, HeaderOnly) {
  const Dataset ds = SmallMixedDataset();
  const std::string path = TempPath("header.cmpt");
  ASSERT_TRUE(SaveTableFile(ds, path));
  Schema schema;
  int64_t n = 0;
  ASSERT_TRUE(ReadTableHeader(path, &schema, &n));
  EXPECT_TRUE(schema == ds.schema());
  EXPECT_EQ(n, 3);
  std::remove(path.c_str());
}

// The header is decoded from the file's first 4 KB, and from a doubled
// read while it runs past that: a long header still loads.
TEST(TableFile, HeaderLongerThanTheFirstReadLoads) {
  std::vector<AttrInfo> attrs;
  for (int a = 0; a < 600; ++a) {
    std::string name = "attribute_";
    name += std::to_string(a);
    attrs.push_back({name, a % 3 == 0 ? AttrKind::kCategorical
                                      : AttrKind::kNumeric,
                     a % 3 == 0 ? 4 : 0});
  }
  attrs.push_back({std::string(9000, 'n'), AttrKind::kNumeric, 0});
  const Schema schema(attrs, {"a", "b"});
  Dataset ds(schema);
  std::vector<double> numeric;
  std::vector<int32_t> categorical;
  for (int r = 0; r < 5; ++r) {
    numeric.clear();
    categorical.clear();
    for (AttrId a = 0; a < schema.num_attrs(); ++a) {
      if (schema.is_numeric(a)) {
        numeric.push_back(r * 0.5 + a);
      } else {
        categorical.push_back((r + a) % 4);
      }
    }
    ds.Append(numeric, categorical, r % 2);
  }
  const std::string path = TempPath("long_header.cmpt");
  ASSERT_TRUE(SaveTableFile(ds, path));
  TableLayout layout;
  ASSERT_TRUE(ComputeTableLayout(schema, 5, &layout));
  ASSERT_GT(layout.column_offsets[0], 4 * 4096);
  Dataset loaded;
  ASSERT_TRUE(LoadTableFile(path, &loaded));
  EXPECT_TRUE(loaded.schema() == schema);
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    for (RecordId r = 0; r < 5; ++r) {
      if (schema.is_numeric(a)) {
        EXPECT_EQ(loaded.numeric(a, r), ds.numeric(a, r));
      } else {
        EXPECT_EQ(loaded.categorical(a, r), ds.categorical(a, r));
      }
    }
  }
  Schema header;
  int64_t n = 0;
  ASSERT_TRUE(ReadTableHeader(path, &header, &n));
  EXPECT_TRUE(header == schema);
  EXPECT_EQ(n, 5);
  std::remove(path.c_str());
}

TEST(TableFile, MissingFileFails) {
  Dataset out;
  EXPECT_FALSE(LoadTableFile(TempPath("does_not_exist.cmpt"), &out));
}

TEST(TableFile, CorruptMagicFails) {
  const std::string path = TempPath("corrupt.cmpt");
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fputs("NOPE not a table file", f);
    fclose(f);
  }
  Dataset out;
  EXPECT_FALSE(LoadTableFile(path, &out));
  std::remove(path.c_str());
}

TEST(TableFile, TruncatedFileFails) {
  const Dataset ds = GenerateAgrawal(
      {AgrawalFunction::kF1, /*num_records=*/100, /*seed=*/1, 0.0});
  const std::string path = TempPath("trunc.cmpt");
  ASSERT_TRUE(SaveTableFile(ds, path));
  // Chop the file in half.
  FILE* f = fopen(path.c_str(), "rb");
  fseek(f, 0, SEEK_END);
  const long size = ftell(f);
  fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  Dataset out;
  EXPECT_FALSE(LoadTableFile(path, &out));
  std::remove(path.c_str());
}

std::string ReadBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Both readers must reject a malformed table by returning false (or a
// null scanner), never by throwing or crashing.
void ExpectRejected(const std::string& path, const std::string& what) {
  Dataset out;
  bool loaded = true;
  EXPECT_NO_THROW(loaded = LoadTableFile(path, &out)) << what;
  EXPECT_FALSE(loaded) << what;
  std::unique_ptr<TableScanner> scanner;
  EXPECT_NO_THROW(scanner = TableScanner::Open(path, 1000)) << what;
  EXPECT_EQ(scanner, nullptr) << what;
}

TEST(TableFile, HostileCountsFailBeforeAllocating) {
  const Dataset ds = GenerateAgrawal(
      {AgrawalFunction::kF7, /*num_records=*/3000, /*seed=*/2, 0.0});
  const std::string path = TempPath("hostile_count.cmpt");
  ASSERT_TRUE(SaveTableFile(ds, path));
  std::string bytes = ReadBytes(path);
  TableLayout layout;
  ASSERT_TRUE(ComputeTableLayout(ds.schema(), 3000, &layout));
  ASSERT_EQ(layout.file_size, static_cast<int64_t>(bytes.size()));
  const size_t count_at = static_cast<size_t>(layout.count_offset);
  for (const int64_t hostile :
       {int64_t{1} << 40, int64_t{3001}, int64_t{2999},
        std::numeric_limits<int64_t>::max()}) {
    std::memcpy(&bytes[count_at], &hostile, sizeof(hostile));
    WriteBytes(path, bytes);
    largest_new = 0;
    ExpectRejected(path, "num_records=" + std::to_string(hostile));
    // Nothing close to even the real table was allocated.
    EXPECT_LT(largest_new.load(), bytes.size()) << hostile;
  }
  // Hostile attribute and class counts (u32 fields after magic+version)
  // run into end of file instead of sizing a list from the header.
  ASSERT_TRUE(SaveTableFile(ds, path));
  bytes = ReadBytes(path);
  for (const size_t field : {size_t{8}, size_t{12}}) {
    std::string mangled = bytes;
    const uint32_t hostile = 0xffffffffu;
    std::memcpy(&mangled[field], &hostile, sizeof(hostile));
    WriteBytes(path, mangled);
    largest_new = 0;
    ExpectRejected(path, "u32 count at byte " + std::to_string(field));
    EXPECT_LT(largest_new.load(), bytes.size()) << field;
  }
  std::remove(path.c_str());
}

// An attribute entry must pass the schema rule (common/schema.h): kind
// byte 0 or 1, numeric cardinality 0, categorical cardinality in [0,
// 2^24], so no builder sizes a histogram from a hostile cardinality.
TEST(TableFile, HostileAttributeEntriesFail) {
  const Dataset ds = SmallMixedDataset();  // attr 1, "c", is categorical
  const std::string path = TempPath("hostile_entry.cmpt");
  ASSERT_TRUE(SaveTableFile(ds, path));
  const std::string good = ReadBytes(path);
  // Header: magic, version, two counts; entry 0 is "x" (4 + 1 + 1 + 4
  // bytes); entry 1's name "c" ends at 16 + 10 + 5.
  const size_t kind_at = 16 + 10 + 4 + 1;
  ASSERT_EQ(good[kind_at], 1);
  const std::pair<size_t, int32_t> hostile[] = {
      {kind_at, 7},  // kind byte (written as one byte)
      {kind_at + 1, std::numeric_limits<int32_t>::max()},
      {kind_at + 1, (1 << 24) + 1},
      {kind_at + 1, -1},
      {16 + 4 + 1 + 1, 3},  // numeric "x" with cardinality 3
  };
  for (const auto& [at, value] : hostile) {
    std::string bytes = good;
    if (at == kind_at) {
      bytes[at] = static_cast<char>(value);
    } else {
      std::memcpy(&bytes[at], &value, sizeof(value));
    }
    WriteBytes(path, bytes);
    ExpectRejected(path, std::to_string(value) + " at " + std::to_string(at));
  }
  WriteBytes(path, good);
  Dataset out;
  EXPECT_TRUE(LoadTableFile(path, &out));
  std::remove(path.c_str());
}

// The text tree parser applies the same rule.
TEST(TreeText, HostileAttributeEntriesFail) {
  const std::string tail = "classes 2\nA\nB\nnodes 1\nleaf 0 d 0 cc 0\n";
  auto parses = [&](const std::string& attr_line) {
    DecisionTree out;
    return DeserializeTree("cmp-tree 1\nattrs 1\n" + attr_line + "\n" + tail,
                           &out);
  };
  EXPECT_TRUE(parses("cat 5 elevel"));
  EXPECT_TRUE(parses("num 0 salary"));
  EXPECT_FALSE(parses("cat 2147483647 elevel"));
  EXPECT_FALSE(parses("cat 16777217 elevel"));
  EXPECT_FALSE(parses("cat -1 elevel"));
  EXPECT_FALSE(parses("num 3 salary"));
  EXPECT_FALSE(parses("ord 0 salary"));
  EXPECT_FALSE(parses("num 0 " + std::string(kMaxNameBytes + 1, 'n')));

  // Counts at the caps with nothing behind them fail without sizing a
  // list from the count.
  for (const std::string& text :
       {std::string("cmp-tree 1\nattrs 1048576\nnum 0 x\n"),
        std::string("cmp-tree 1\nattrs 0\nclasses 1048576\nA\n")}) {
    DecisionTree out;
    largest_new = 0;
    EXPECT_FALSE(DeserializeTree(text, &out));
    EXPECT_LT(largest_new.load(), size_t{1} << 16) << text;
  }
}

TEST(TableFile, OutOfRangeCategoricalCodeFails) {
  const Dataset ds = SmallMixedDataset();  // attr 1 has cardinality 4
  const std::string path = TempPath("bad_code.cmpt");
  ASSERT_TRUE(SaveTableFile(ds, path));
  const std::string good = ReadBytes(path);
  TableLayout layout;
  ASSERT_TRUE(ComputeTableLayout(ds.schema(), ds.num_records(), &layout));
  for (const int32_t code : {4, -1, 100000000}) {
    std::string bytes = good;
    // Record 2's code, so a reader must check past the first value.
    std::memcpy(&bytes[layout.column_offsets[1] + 2 * sizeof(int32_t)], &code,
                sizeof(code));
    WriteBytes(path, bytes);
    const std::string what = "code " + std::to_string(code);
    Dataset out;
    bool loaded = true;
    EXPECT_NO_THROW(loaded = LoadTableFile(path, &out)) << what;
    EXPECT_FALSE(loaded) << what;
    // The file's size is intact, so the scanner opens; its reads fail.
    auto scanner = TableScanner::Open(path, 2);
    ASSERT_NE(scanner, nullptr) << what;
    ColumnBlock block;
    EXPECT_TRUE(scanner->ReadBlock(0, 2, &block)) << what;
    EXPECT_FALSE(scanner->ReadBlock(1, 2, &block)) << what;
  }
  std::remove(path.c_str());
}

TEST(TableFile, NaNNumericValueFails) {
  const Dataset ds = SmallMixedDataset();  // attrs 0 and 2 are numeric
  const std::string path = TempPath("nan_value.cmpt");
  ASSERT_TRUE(SaveTableFile(ds, path));
  const std::string good = ReadBytes(path);
  TableLayout layout;
  ASSERT_TRUE(ComputeTableLayout(ds.schema(), ds.num_records(), &layout));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::string bytes = good;
  // Record 2's value, so a reader must check past the first value.
  std::memcpy(&bytes[layout.column_offsets[2] + 2 * sizeof(double)], &nan,
              sizeof(nan));
  WriteBytes(path, bytes);
  Dataset out;
  EXPECT_FALSE(LoadTableFile(path, &out));
  auto scanner = TableScanner::Open(path, 2);
  ASSERT_NE(scanner, nullptr);
  ColumnBlock block;
  EXPECT_TRUE(scanner->ReadBlock(0, 2, &block));
  EXPECT_FALSE(scanner->ReadBlock(1, 2, &block));

  // The loader checks every value of every numeric column: a NaN in the
  // first value of the first column or the last value of the last fails
  // it too.
  for (const int64_t at :
       {layout.column_offsets[0],
        layout.column_offsets[2] +
            (ds.num_records() - 1) * static_cast<int64_t>(sizeof(double))}) {
    bytes = good;
    std::memcpy(&bytes[at], &nan, sizeof(nan));
    WriteBytes(path, bytes);
    EXPECT_FALSE(LoadTableFile(path, &out)) << at;
  }

  // Infinities are ordinary values.
  bytes = good;
  for (const double inf : {std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::memcpy(&bytes[layout.column_offsets[2] + 2 * sizeof(double)], &inf,
                sizeof(inf));
    WriteBytes(path, bytes);
    ASSERT_TRUE(LoadTableFile(path, &out));
    EXPECT_EQ(out.numeric(2, 2), inf);
  }
  std::remove(path.c_str());
}

// The same table in format version 1: the header with version 1, then
// the columns back to back, without padding.
std::string AsVersionOne(const std::string& v2, const Schema& schema,
                         int64_t n) {
  TableLayout from;
  TableLayout to;
  EXPECT_TRUE(ComputeTableLayout(schema, n, &from));
  EXPECT_TRUE(ComputeTableLayout(schema, n, &to, 1));
  std::string v1(static_cast<size_t>(to.file_size), '\0');
  std::memcpy(&v1[0], v2.data(), static_cast<size_t>(from.count_offset + 8));
  const uint32_t version = 1;
  std::memcpy(&v1[4], &version, sizeof(version));
  for (AttrId a = 0; a < schema.num_attrs(); ++a) {
    const int64_t width = schema.is_numeric(a) ? 8 : 4;
    std::memcpy(&v1[to.column_offsets[a]], &v2[from.column_offsets[a]],
                static_cast<size_t>(n * width));
  }
  std::memcpy(&v1[to.label_offset], &v2[from.label_offset],
              static_cast<size_t>(n * 4));
  return v1;
}

void ExpectSameRecords(const Dataset& a, const Dataset& b) {
  ASSERT_TRUE(a.schema() == b.schema());
  ASSERT_EQ(a.num_records(), b.num_records());
  for (AttrId at = 0; at < a.num_attrs(); ++at) {
    for (RecordId r = 0; r < a.num_records(); ++r) {
      if (a.schema().is_numeric(at)) {
        EXPECT_EQ(a.numeric(at, r), b.numeric(at, r)) << at << " " << r;
      } else {
        EXPECT_EQ(a.categorical(at, r), b.categorical(at, r))
            << at << " " << r;
      }
    }
  }
  for (RecordId r = 0; r < a.num_records(); ++r) {
    EXPECT_EQ(a.label(r), b.label(r)) << r;
  }
}

// Version 2 pads after the header and after each column so every column
// starts 64-byte aligned; the padding is zero. An odd record count
// leaves a run before every column.
TEST(TableFile, ColumnsStartAlignedAfterZeroPadding) {
  const Dataset ds = SmallMixedDataset();
  TableLayout layout;
  ASSERT_TRUE(ComputeTableLayout(ds.schema(), ds.num_records(), &layout));
  ASSERT_EQ(layout.padding.size(), 4u);
  for (const int64_t offset : layout.column_offsets) {
    EXPECT_EQ(offset % kTableColumnAlign, 0) << offset;
  }
  EXPECT_EQ(layout.label_offset % kTableColumnAlign, 0);
  EXPECT_EQ(layout.file_size, layout.label_offset + 3 * 4);
  const std::string path = TempPath("padded.cmpt");
  ASSERT_TRUE(SaveTableFile(ds, path));
  const std::string bytes = ReadBytes(path);
  ASSERT_EQ(static_cast<int64_t>(bytes.size()), layout.file_size);
  for (const auto& [at, len] : layout.padding) {
    EXPECT_GT(len, 0);
    EXPECT_LT(len, kTableColumnAlign);
    EXPECT_EQ(bytes.substr(at, len), std::string(len, '\0')) << at;
  }
  std::remove(path.c_str());
}

// A nonzero padding byte fails the whole-table load and the scanner's
// open alike, so in-memory and streamed runs reject the same file.
TEST(TableFile, NonzeroPaddingFails) {
  const Dataset ds = SmallMixedDataset();
  TableLayout layout;
  ASSERT_TRUE(ComputeTableLayout(ds.schema(), ds.num_records(), &layout));
  const std::string path = TempPath("dirty_padding.cmpt");
  ASSERT_TRUE(SaveTableFile(ds, path));
  const std::string good = ReadBytes(path);
  for (const auto& [at, len] : layout.padding) {
    for (const int64_t byte : {at, at + len - 1}) {
      std::string bytes = good;
      bytes[byte] = 1;
      WriteBytes(path, bytes);
      ExpectRejected(path, "padding byte " + std::to_string(byte));
    }
  }
  WriteBytes(path, good);
  Dataset out;
  EXPECT_TRUE(LoadTableFile(path, &out));
  std::remove(path.c_str());
}

// A loaded version 2 table reads its columns in place: each column
// pointer sits at its layout offset from one page-aligned base, so it is
// 64-byte aligned and inside the file's mapping. A moved Dataset keeps
// reading them.
TEST(TableFile, LoadedColumnsPointIntoTheMapping) {
  const Dataset ds = GenerateAgrawal(
      {AgrawalFunction::kF7, /*num_records=*/1001, /*seed=*/4, 0.0});
  const std::string path = TempPath("mapped.cmpt");
  ASSERT_TRUE(SaveTableFile(ds, path));
  TableLayout layout;
  ASSERT_TRUE(ComputeTableLayout(ds.schema(), ds.num_records(), &layout));
  Dataset loaded;
  ASSERT_TRUE(LoadTableFile(path, &loaded));
  const auto* base = reinterpret_cast<const char*>(loaded.labels().data()) -
                     layout.label_offset;
  EXPECT_EQ(reinterpret_cast<uintptr_t>(base) % 4096, 0u);
  auto offset_of = [&](const void* p) {
    return static_cast<const char*>(p) - base;
  };
  for (AttrId a = 0; a < ds.num_attrs(); ++a) {
    const void* column = ds.schema().is_numeric(a)
                             ? static_cast<const void*>(
                                   loaded.numeric_column(a).data())
                             : loaded.categorical_column(a).data();
    EXPECT_EQ(offset_of(column), layout.column_offsets[a]) << a;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(column) % kTableColumnAlign, 0u)
        << a;
  }
  EXPECT_EQ(offset_of(loaded.labels().data() + loaded.num_records()),
            layout.file_size);
  ExpectSameRecords(loaded, ds);

  Dataset moved(std::move(loaded));
  EXPECT_EQ(loaded.num_records(), 0);
  EXPECT_EQ(offset_of(moved.labels().data()), layout.label_offset);
  ExpectSameRecords(moved, ds);
  Dataset assigned;
  assigned = std::move(moved);
  ExpectSameRecords(assigned, ds);
  std::remove(path.c_str());
}

// A version 1 table loads to the same records. Its columns sit wherever
// the header ends, so a column misaligned for its type is copied out of
// the mapping; no column is read through a misaligned pointer (UBSan
// builds check every read). The copies get every value check.
TEST(TableFile, VersionOneLoadsAndReadsAligned) {
  for (const int64_t n : {int64_t{3}, int64_t{1000}, int64_t{1001}}) {
    const Dataset ds = GenerateAgrawal(
        {AgrawalFunction::kF2, /*num_records=*/n, /*seed=*/5, 0.0});
    const std::string path = TempPath("version_one.cmpt");
    ASSERT_TRUE(SaveTableFile(ds, path));
    WriteBytes(path, AsVersionOne(ReadBytes(path), ds.schema(), n));
    TableLayout v1;
    ASSERT_TRUE(ComputeTableLayout(ds.schema(), n, &v1, 1));
    EXPECT_TRUE(v1.padding.empty());
    ASSERT_NE(v1.column_offsets[0] % 8, 0) << "want a misaligned column";
    Dataset loaded;
    ASSERT_TRUE(LoadTableFile(path, &loaded)) << n;
    for (AttrId a = 0; a < ds.num_attrs(); ++a) {
      if (ds.schema().is_numeric(a)) {
        EXPECT_EQ(reinterpret_cast<uintptr_t>(
                      loaded.numeric_column(a).data()) % alignof(double),
                  0u);
      } else {
        EXPECT_EQ(reinterpret_cast<uintptr_t>(
                      loaded.categorical_column(a).data()) % alignof(int32_t),
                  0u);
      }
    }
    ExpectSameRecords(loaded, ds);
    auto scanner = TableScanner::Open(path, 64);
    ASSERT_NE(scanner, nullptr);
    ColumnBlock block;
    int64_t seen = 0;
    while (scanner->NextBlock(&block)) {
      for (int64_t i = 0; i < block.count(); ++i) {
        EXPECT_EQ(block.label(i), ds.label(block.begin() + i));
      }
      seen += block.count();
    }
    EXPECT_EQ(seen, n);

    // A copied column is checked like one read in place: a NaN, an
    // out-of-range code or an out-of-range label in the last record
    // fails the load.
    const std::string good = ReadBytes(path);
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const int32_t bad_code = 1 << 20;
    for (AttrId a = 0; a <= ds.num_attrs(); ++a) {
      const bool labels = a == ds.num_attrs();
      const bool numeric = !labels && ds.schema().is_numeric(a);
      const size_t width = numeric ? sizeof(double) : sizeof(int32_t);
      const int64_t at = labels ? v1.label_offset : v1.column_offsets[a];
      std::string bytes = good;
      std::memcpy(&bytes[at + (n - 1) * static_cast<int64_t>(width)],
                  numeric ? static_cast<const void*>(&nan) : &bad_code, width);
      WriteBytes(path, bytes);
      Dataset rejected;
      EXPECT_FALSE(LoadTableFile(path, &rejected)) << n << " " << a;
    }
    std::remove(path.c_str());
  }
}

TEST(TableFile, NoNaNChecksEveryValue) {
  using Limits = std::numeric_limits<double>;
  const double inf = Limits::infinity();
  const std::vector<double> values = {-inf,         -0.0, 0.0,
                                      1e-310,       inf,  3.0,
                                      Limits::max(), Limits::lowest()};
  EXPECT_TRUE(NoNaN(values.data(), static_cast<int64_t>(values.size())));
  EXPECT_TRUE(NoNaN(nullptr, 0));
  // Quiet and signaling, either sign, smallest and largest payload.
  const std::vector<double> nans = {
      Limits::quiet_NaN(), -Limits::quiet_NaN(), Limits::signaling_NaN(),
      std::bit_cast<double>(uint64_t{0x7FF0000000000001}),
      std::bit_cast<double>(~uint64_t{0})};
  for (size_t i = 0; i < values.size(); ++i) {
    for (const double nan : nans) {
      std::vector<double> bad = values;
      bad[i] = nan;
      EXPECT_FALSE(NoNaN(bad.data(), static_cast<int64_t>(bad.size())))
          << i;
    }
  }
}

TEST(ScanTracker, ChargesScan) {
  BuildStats stats;
  ScanTracker tracker(&stats);
  const Dataset ds = SmallMixedDataset();
  tracker.ChargeScan(ds);
  tracker.ChargeScan(ds);
  EXPECT_EQ(stats.dataset_scans, 2);
  EXPECT_EQ(stats.records_read, 6);
  EXPECT_EQ(stats.bytes_read, 2 * ds.TotalBytes());
}

TEST(ScanTracker, NullStatsSafe) {
  ScanTracker tracker(nullptr);
  const Dataset ds = SmallMixedDataset();
  tracker.ChargeScan(ds);
  tracker.ChargeSort(100);
  tracker.NotePeakMemory(5);  // must not crash
}

TEST(ScanTracker, SortChargesNLogN) {
  BuildStats stats;
  ScanTracker tracker(&stats);
  tracker.ChargeSort(1024);
  EXPECT_EQ(stats.sort_comparisons, 1024 * 10);
  tracker.ChargeSort(1);  // no-op
  EXPECT_EQ(stats.sort_comparisons, 1024 * 10);
}

TEST(BuildStats, SimulatedSecondsMonotoneInBytes) {
  DiskModel model;
  BuildStats small;
  small.bytes_read = 1 << 20;
  BuildStats large;
  large.bytes_read = 1 << 24;
  EXPECT_LT(small.SimulatedSeconds(model), large.SimulatedSeconds(model));
}

TEST(BuildStats, AccumulateSumsAndPeaks) {
  BuildStats a;
  a.dataset_scans = 2;
  a.peak_memory_bytes = 100;
  BuildStats b;
  b.dataset_scans = 3;
  b.peak_memory_bytes = 50;
  a.Accumulate(b);
  EXPECT_EQ(a.dataset_scans, 5);
  EXPECT_EQ(a.peak_memory_bytes, 100);
}

}  // namespace
}  // namespace cmp

namespace cmp {
namespace {

TEST(CsvInfer, MixedColumnsInferred) {
  const std::string path = TempPath("infer.csv");
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs(
        "age,city,income,approved\n"
        "25, austin, 50000, no\n"
        "40, boston, 90000, yes\n"
        "31, austin, 72000.5, yes\n",
        f);
    fclose(f);
  }
  Dataset ds;
  ASSERT_TRUE(LoadCsvInferSchema(path, &ds));
  EXPECT_EQ(ds.num_records(), 3);
  EXPECT_EQ(ds.num_attrs(), 3);
  EXPECT_TRUE(ds.schema().is_numeric(0));
  EXPECT_FALSE(ds.schema().is_numeric(1));
  EXPECT_TRUE(ds.schema().is_numeric(2));
  EXPECT_EQ(ds.schema().attr(1).cardinality, 2);
  EXPECT_EQ(ds.schema().class_names(),
            (std::vector<std::string>{"no", "yes"}));
  EXPECT_EQ(ds.categorical(1, 0), 0);  // austin
  EXPECT_EQ(ds.categorical(1, 1), 1);  // boston
  EXPECT_DOUBLE_EQ(ds.numeric(2, 2), 72000.5);
  EXPECT_EQ(ds.label(1), 1);
  std::remove(path.c_str());
}

TEST(CsvInfer, NumericLookingClassStaysNominal) {
  const std::string path = TempPath("numclass.csv");
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("x,class\n1.0,0\n2.0,1\n3.0,0\n", f);
    fclose(f);
  }
  Dataset ds;
  ASSERT_TRUE(LoadCsvInferSchema(path, &ds));
  EXPECT_EQ(ds.num_classes(), 2);
  EXPECT_EQ(ds.schema().class_name(0), "0");
  std::remove(path.c_str());
}

TEST(CsvInfer, RejectsFreeTextColumns) {
  const std::string path = TempPath("freetext.csv");
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("note,class\n", f);
    for (int i = 0; i < 500; ++i) {
      fprintf(f, "unique_note_%d,a\n", i);
    }
    fclose(f);
  }
  Dataset ds;
  EXPECT_FALSE(LoadCsvInferSchema(path, &ds, /*max_categorical_card=*/256));
  std::remove(path.c_str());
}

TEST(CsvInfer, RejectsRaggedRowsAndEmpty) {
  const std::string path = TempPath("ragged.csv");
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("x,y,class\n1,2,a\n1,a\n", f);
    fclose(f);
  }
  Dataset ds;
  EXPECT_FALSE(LoadCsvInferSchema(path, &ds));
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("x,y,class\n", f);
    fclose(f);
  }
  EXPECT_FALSE(LoadCsvInferSchema(path, &ds));
  std::remove(path.c_str());
}

// A column is numeric iff every field is one number as ParseRealNumber
// reads it (the grammar of served rows); fields are trimmed of spaces
// and tabs first.
TEST(CsvInfer, NumberGrammarCaseTable) {
  struct Case {
    const char* field;
    bool numeric;
    double value;  // when numeric
  };
  const Case cases[] = {
      {"0x10", false, 0},    {"+1", false, 0},     {" 1", true, 1},
      {"1e999", false, 0},   {"1e-400", false, 0}, {"inf", true, HUGE_VAL},
      {"-0", true, -0.0},    {"nan", false, 0},    {"-2.5e3", true, -2500},
  };
  const std::string path = TempPath("grammar.csv");
  for (const Case& c : cases) {
    {
      FILE* f = fopen(path.c_str(), "w");
      fprintf(f, "x,class\n%s,a\n2,b\n", c.field);
      fclose(f);
    }
    Dataset ds;
    ASSERT_TRUE(LoadCsvInferSchema(path, &ds)) << c.field;
    EXPECT_EQ(ds.schema().is_numeric(0), c.numeric) << c.field;
    if (c.numeric) {
      EXPECT_EQ(ds.numeric(0, 0), c.value) << c.field;
      EXPECT_EQ(std::signbit(ds.numeric(0, 0)), std::signbit(c.value))
          << c.field;
    } else {
      EXPECT_EQ(ds.schema().attr(0).cardinality, 2) << c.field;
    }
  }
  std::remove(path.c_str());
}

// A column with one non-number is categorical, and the numbers before
// it are categories too, in first-appearance order.
TEST(CsvInfer, MixedColumnMapsItsNumbersAsCategories) {
  const std::string path = TempPath("mixed.csv");
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("x,y,class\n2,1,a\n+1,2,b\n2,3,a\n-0,4,b\n", f);
    fclose(f);
  }
  Dataset ds;
  ASSERT_TRUE(LoadCsvInferSchema(path, &ds));
  ASSERT_FALSE(ds.schema().is_numeric(0));
  EXPECT_TRUE(ds.schema().is_numeric(1));
  EXPECT_EQ(ds.schema().attr(0).cardinality, 3);  // "2", "+1", "-0"
  const int32_t want[] = {0, 1, 0, 2};
  for (RecordId r = 0; r < 4; ++r) EXPECT_EQ(ds.categorical(0, r), want[r]);
  std::remove(path.c_str());
}

// A numeric column with more distinct values than a categorical column
// may have still loads, and fails once a non-number makes it free text.
TEST(CsvInfer, ManyDistinctNumbersThenTextIsFreeText) {
  const std::string path = TempPath("many.csv");
  for (const bool text : {false, true}) {
    {
      FILE* f = fopen(path.c_str(), "w");
      fputs("x,class\n", f);
      for (int i = 0; i < 300; ++i) fprintf(f, "%d,a\n", i);
      fputs(text ? "word,b\n" : "7,b\n", f);
      fclose(f);
    }
    Dataset ds;
    EXPECT_EQ(LoadCsvInferSchema(path, &ds, /*max_categorical_card=*/256),
              !text);
    if (!text) {
      EXPECT_TRUE(ds.schema().is_numeric(0));
    }
  }
  std::remove(path.c_str());
}

// SaveCsv's precision-17 numbers read back bit for bit, extremes
// included.
TEST(CsvInfer, SaveCsvPrecisionRoundTripsExactly) {
  const double values[] = {0.1,
                           1.0 / 3.0,
                           -0.0,
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::lowest(),
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           123456789.123456789};
  Schema schema({{"a", AttrKind::kNumeric, 0}}, {"neg", "pos"});
  Dataset original(schema);
  for (const double v : values) original.Append({v}, {}, 0);
  original.Append({1.0}, {}, 1);
  const std::string path = TempPath("savecsv_precision.csv");
  ASSERT_TRUE(SaveCsv(original, path));
  Dataset loaded;
  ASSERT_TRUE(LoadCsvInferSchema(path, &loaded));
  ASSERT_EQ(loaded.num_records(), original.num_records());
  ASSERT_TRUE(loaded.schema().is_numeric(0));
  for (RecordId r = 0; r < original.num_records(); ++r) {
    EXPECT_EQ(std::bit_cast<uint64_t>(loaded.numeric(0, r)),
              std::bit_cast<uint64_t>(original.numeric(0, r)))
        << original.numeric(0, r);
  }
  std::remove(path.c_str());
}

TEST(CsvInfer, RoundTripWithSaveCsv) {
  // SaveCsv output (numeric attrs + named classes) must re-load via
  // inference with identical values.
  Schema schema({{"a", AttrKind::kNumeric, 0}, {"b", AttrKind::kNumeric, 0}},
                {"neg", "pos"});
  Dataset original(schema);
  original.Append({1.5, -2.25}, {}, 0);
  original.Append({3.0, 4.75}, {}, 1);
  const std::string path = TempPath("savecsv_infer.csv");
  ASSERT_TRUE(SaveCsv(original, path));
  Dataset loaded;
  ASSERT_TRUE(LoadCsvInferSchema(path, &loaded));
  ASSERT_EQ(loaded.num_records(), 2);
  EXPECT_DOUBLE_EQ(loaded.numeric(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(loaded.numeric(1, 1), 4.75);
  EXPECT_EQ(loaded.schema().class_name(loaded.label(1)), "pos");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cmp
