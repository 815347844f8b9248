// bench_hist: throughput of the binned scan kernels.
//
// Three questions, answered on one Agrawal-generated table:
//
//  1. Kernel speedup — filling a node's HistBundle through the
//     per-attribute kernels the scan's accumulate phase runs (bin-code
//     loads over tile-relative offsets, one histogram hot at a time) vs
//     the record-major Add path (per-record binary search across every
//     attribute), on contiguous and gapped record sets. Counts are
//     verified cell-identical before any number is reported.
//  2. Gini scan speedup — ScanBoundaryGinis vs BoundaryGini per row,
//     verified bit-identical.
//  3. Cache amortization — how many histogram passes the one-time
//     bin-code encode costs, i.e. after how many scan passes the cache
//     has paid for itself.
//
// Results go to stdout and BENCH_hist.json (or argv[1]). CMP_BENCH_SCALE
// scales the record count (default 0.1 => 100k rows). Exits nonzero on
// any count or bit mismatch.

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cmp/bundle.h"
#include "cmp/scan_pass.h"
#include "common/cpu_features.h"
#include "common/timer.h"
#include "datagen/agrawal.h"
#include "gini/gini.h"
#include "hist/bin_codes.h"
#include "hist/grids.h"

namespace {

// One tile of a scan's accumulate phase: records base + offsets[i].
struct Tile {
  cmp::RecordId base = 0;
  std::vector<uint32_t> offsets;
};

// Splits ascending record ids into the scan's tiles (built once, outside
// the timed loops: the scan's route phase produces them).
std::vector<Tile> ToTiles(const std::vector<cmp::RecordId>& rids) {
  std::vector<Tile> tiles;
  for (const cmp::RecordId r : rids) {
    const cmp::RecordId base =
        r / cmp::kScanTileRecords * cmp::kScanTileRecords;
    if (tiles.empty() || tiles.back().base != base) tiles.push_back({base, {}});
    tiles.back().offsets.push_back(static_cast<uint32_t>(r - base));
  }
  return tiles;
}

// Fills every histogram of `bundle`, one per-attribute kernel call per
// tile, as the scan's accumulate tasks do.
void FillByTiles(cmp::HistBundle* bundle, const cmp::BinCodeCache& codes,
                 const std::vector<Tile>& tiles, int num_attrs) {
  for (const Tile& t : tiles) {
    for (cmp::AttrId a = 0; a < num_attrs; ++a) {
      if (!bundle->HasHistogram(a)) continue;
      bundle->AccumulateCodedAttr(codes, a, t.base, t.offsets.data(),
                                  t.offsets.size());
    }
  }
}

bool SameCells(const cmp::HistBundle& a, const cmp::HistBundle& b,
               int num_attrs) {
  for (cmp::AttrId attr = 0; attr < num_attrs; ++attr) {
    const cmp::Histogram1D ha = a.HistFor(attr);
    const cmp::Histogram1D hb = b.HistFor(attr);
    if (ha.num_intervals() != hb.num_intervals()) return false;
    for (int i = 0; i < ha.num_intervals(); ++i) {
      for (cmp::ClassId c = 0; c < ha.num_classes(); ++c) {
        if (ha.count(i, c) != hb.count(i, c)) return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_hist.json";
  const int64_t n = std::max<int64_t>(
      static_cast<int64_t>(1000000 * cmp::bench::Scale()), 20000);

  cmp::AgrawalOptions gen;
  gen.function = cmp::AgrawalFunction::kF7;
  gen.perturbation = 0.3;
  gen.num_records = n;
  gen.seed = 17;
  const cmp::Dataset train = cmp::GenerateAgrawal(gen);
  const std::vector<cmp::IntervalGrid> grids =
      cmp::ComputeEqualDepthGrids(train, 100, nullptr);

  // --- one-time encode (the cache build the first pass pays) ---------
  cmp::Timer encode_timer;
  cmp::BinCodeCache codes(train.schema(), n, /*max_intervals=*/100);
  for (cmp::AttrId a = 0; a < train.num_attrs(); ++a) {
    if (train.schema().is_numeric(a)) {
      codes.EncodeNumericColumn(a, grids[a], train.numeric_column(a));
    } else {
      codes.EncodeCategoricalColumn(a, train.categorical_column(a));
    }
  }
  codes.SetLabels(train.labels());
  const double encode_seconds = encode_timer.Seconds();

  std::vector<cmp::RecordId> rids(n);
  for (int64_t i = 0; i < n; ++i) rids[i] = i;

  // --- record-major vs kernel accumulation, best of 3 passes each ----
  double record_major_s = 1e30;
  double kernel_s = 1e30;
  cmp::HistBundle serial;
  cmp::HistBundle filled;
  for (int pass = 0; pass < 3; ++pass) {
    serial = cmp::HistBundle::MakeUnivariate(train.schema(), grids);
    cmp::Timer t;
    for (int64_t r = 0; r < n; ++r) serial.Add(train, grids, r);
    record_major_s = std::min(record_major_s, t.Seconds());
  }
  const std::vector<Tile> all_tiles = ToTiles(rids);
  for (int pass = 0; pass < 3; ++pass) {
    filled = cmp::HistBundle::MakeUnivariate(train.schema(), grids);
    cmp::Timer t;
    FillByTiles(&filled, codes, all_tiles, train.num_attrs());
    kernel_s = std::min(kernel_s, t.Seconds());
  }
  const bool counts_match = SameCells(filled, serial, train.num_attrs());
  const double speedup = record_major_s / kernel_s;

  // --- gapped record sets ----------------------------------------------
  // Ascending rids with holes, the shape every post-root node sees
  // (the contiguous records above are the root pass). Cells are
  // re-verified against the record-major reference.
  std::vector<cmp::RecordId> gapped;
  gapped.reserve(n / 2);
  {
    uint64_t state = 0x243F6A8885A308D3ULL;  // fixed: same rids each run
    for (int64_t r = 0; r < n; ++r) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      if ((state & 1) != 0) gapped.push_back(r);
    }
  }
  cmp::HistBundle gapped_serial =
      cmp::HistBundle::MakeUnivariate(train.schema(), grids);
  for (const cmp::RecordId r : gapped) gapped_serial.Add(train, grids, r);
  const int64_t gn = static_cast<int64_t>(gapped.size());
  const std::vector<Tile> gapped_tiles = ToTiles(gapped);
  double gapped_s = 1e30;
  for (int pass = 0; pass < 5; ++pass) {
    filled = cmp::HistBundle::MakeUnivariate(train.schema(), grids);
    cmp::Timer t;
    FillByTiles(&filled, codes, gapped_tiles, train.num_attrs());
    gapped_s = std::min(gapped_s, t.Seconds());
  }
  const bool gapped_match =
      SameCells(filled, gapped_serial, train.num_attrs());

  // --- the gini boundary scan vs BoundaryGini per row ---------------
  // 5 divides per boundary, where the 2-wide SSE2 divpd multiplies
  // throughput. Bit-equality with the per-row reference is checked
  // before the time is reported.
  const int gini_nb = 99;
  const int gini_nc = 2;
  const int gini_nodes = 2000;  // distinct prefix matrices, scanned in turn
  std::vector<int64_t> gini_prefix(
      static_cast<size_t>(gini_nodes) * gini_nb * gini_nc);
  std::vector<int64_t> gini_totals(
      static_cast<size_t>(gini_nodes) * gini_nc);
  {
    uint64_t state = 0x452821E638D01377ULL;
    for (int node = 0; node < gini_nodes; ++node) {
      int64_t acc[2] = {0, 0};
      for (int b = 0; b < gini_nb; ++b) {
        for (int c = 0; c < gini_nc; ++c) {
          state ^= state << 13;
          state ^= state >> 7;
          state ^= state << 17;
          acc[c] += static_cast<int64_t>(state % 9);
          gini_prefix[(static_cast<size_t>(node) * gini_nb + b) * gini_nc +
                      c] = acc[c];
        }
      }
      for (int c = 0; c < gini_nc; ++c) {
        gini_totals[static_cast<size_t>(node) * gini_nc + c] = acc[c] + 3;
      }
    }
  }
  std::vector<double> gini_ref(static_cast<size_t>(gini_nodes) * gini_nb);
  std::vector<double> gini_out(gini_ref.size());
  double gini_rowwise_s = 1e30;
  double gini_scan_s = 1e30;
  for (int pass = 0; pass < 5; ++pass) {
    cmp::Timer t;
    for (int node = 0; node < gini_nodes; ++node) {
      const std::span<const int64_t> totals(
          gini_totals.data() + static_cast<size_t>(node) * gini_nc, gini_nc);
      for (int b = 0; b < gini_nb; ++b) {
        gini_ref[static_cast<size_t>(node) * gini_nb + b] = cmp::BoundaryGini(
            std::span<const int64_t>(
                gini_prefix.data() +
                    (static_cast<size_t>(node) * gini_nb + b) * gini_nc,
                gini_nc),
            totals);
      }
    }
    gini_rowwise_s = std::min(gini_rowwise_s, t.Seconds());
  }
  for (int pass = 0; pass < 5; ++pass) {
    cmp::Timer t;
    for (int node = 0; node < gini_nodes; ++node) {
      cmp::ScanBoundaryGinis(
          gini_prefix.data() + static_cast<size_t>(node) * gini_nb * gini_nc,
          gini_nb, gini_nc,
          gini_totals.data() + static_cast<size_t>(node) * gini_nc,
          gini_out.data() + static_cast<size_t>(node) * gini_nb);
    }
    gini_scan_s = std::min(gini_scan_s, t.Seconds());
  }
  const bool gini_match = gini_out == gini_ref;  // bitwise on doubles
  const double gini_speedup = gini_rowwise_s / gini_scan_s;
  const double gini_boundaries = static_cast<double>(gini_nodes) * gini_nb;

  // Passes until the encode cost is recovered by the per-pass saving.
  const double amortize_passes =
      record_major_s > kernel_s
          ? encode_seconds / (record_major_s - kernel_s)
          : -1.0;
  const bool verified = counts_match && gapped_match && gini_match;

  std::cout << "histogram accumulation over " << n << " records, "
            << train.num_attrs() << " attrs, q=100\n\n"
            << "record-major Add:     " << record_major_s << " s\n"
            << "per-attribute kernels: " << kernel_s << " s  ("
            << speedup << "x)\n"
            << "counts cell-identical: " << (counts_match ? "yes" : "NO")
            << "\n"
            << "kernels, gapped records: " << gn / gapped_s
            << " rows/s (cells " << (gapped_match ? "ok" : "MISMATCH")
            << ")\n\n"
            << "gini, BoundaryGini per row: "
            << gini_boundaries / gini_rowwise_s << " boundaries/s\n"
            << "gini, ScanBoundaryGinis:    " << gini_boundaries / gini_scan_s
            << " boundaries/s (" << gini_speedup << "x, bits "
            << (gini_match ? "ok" : "MISMATCH") << ")\n\n"
            << "bin-code encode: " << encode_seconds << " s, "
            << codes.MemoryBytes() << " bytes resident\n"
            << "encode amortized after " << amortize_passes
            << " scan passes\n";

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"hist\",\n"
       << "  \"rows\": " << n << ",\n"
       << "  \"scale\": " << cmp::bench::Scale() << ",\n"
       << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ",\n"
       << "  \"kernel_isa\": \"" << cmp::KernelIsaName(cmp::ActiveKernelIsa())
       << "\",\n"
       << "  \"verified\": " << (verified ? "true" : "false") << ",\n"
       << "  \"record_major_rows_per_sec\": " << n / record_major_s << ",\n"
       << "  \"kernel_rows_per_sec\": " << n / kernel_s << ",\n"
       << "  \"kernel_gapped_rows_per_sec\": " << gn / gapped_s << ",\n"
       << "  \"kernel_speedup\": " << speedup << ",\n"
       << "  \"gini_rowwise_boundaries_per_sec\": "
       << gini_boundaries / gini_rowwise_s << ",\n"
       << "  \"gini_scan_boundaries_per_sec\": "
       << gini_boundaries / gini_scan_s << ",\n"
       << "  \"gini_scan_speedup\": " << gini_speedup << ",\n"
       << "  \"code_cache_bytes\": " << codes.MemoryBytes() << ",\n"
       << "  \"encode_seconds\": " << encode_seconds << ",\n"
       << "  \"encode_amortize_passes\": " << amortize_passes << "\n"
       << "}\n";
  std::cout << "wrote " << json_path << "\n";
  return verified ? 0 : 1;
}
