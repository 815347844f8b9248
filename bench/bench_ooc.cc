// bench_ooc: out-of-core training throughput vs the in-memory build.
//
// Generates an Agrawal training set, saves it as a CMPT table, and
// trains CMP-S three ways: fully in memory, and streamed from the table
// in 65536-record blocks / in one whole-table block (2 threads, so the
// next block is read ahead on a worker). Reports
// rows/sec for each, the real bytes the streamed builds pulled from the
// file per training pass (measured I/O, vs the in-memory build's
// simulated byte count), and verifies every streamed tree is
// byte-identical to the in-memory one before reporting — a throughput
// number for a wrong tree would be meaningless.
//
// Results go to stdout as a table and to BENCH_ooc.json (or argv[1]).
// CMP_BENCH_SCALE scales the record count (default 0.1 => 100k rows).
// The JSON records hardware_threads.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cmp/cmp.h"
#include "common/timer.h"
#include "datagen/agrawal.h"
#include "io/block_source.h"
#include "io/table_file.h"
#include "tree/serialize.h"

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_ooc.json";
  const std::string table_path = "/tmp/cmp_bench_ooc.cmpt";
  const int64_t train_n = std::max<int64_t>(
      static_cast<int64_t>(1000000 * cmp::bench::Scale()), 20000);
  const int64_t block = 65536;

  cmp::AgrawalOptions gen;
  gen.function = cmp::AgrawalFunction::kF7;
  gen.perturbation = 0.3;
  gen.num_records = train_n;
  gen.seed = 11;
  const cmp::Dataset train = cmp::GenerateAgrawal(gen);
  if (!cmp::SaveTableFile(train, table_path)) {
    std::cerr << "failed to write " << table_path << "\n";
    return 1;
  }

  cmp::CmpOptions opts = cmp::CmpSOptions();
  opts.base.prune = false;
  opts.base.num_threads = 2;
  cmp::CmpBuilder builder(opts);

  struct Row {
    std::string name;
    double rows_per_sec = 0;
    int64_t bytes_read = 0;
    int64_t scans = 0;
    std::string tree;
  };
  std::vector<Row> rows;

  // Best of two passes per mode, absorbing first-touch/page-cache noise
  // (every streamed pass after the first reads from the warm page
  // cache, which is the steady state a repeated-training workload sees).
  auto run = [&](const std::string& name, auto build) {
    Row row;
    row.name = name;
    for (int pass = 0; pass < 2; ++pass) {
      cmp::Timer timer;
      const cmp::BuildResult result = build();
      const double rps = static_cast<double>(train_n) / timer.Seconds();
      if (rps > row.rows_per_sec) row.rows_per_sec = rps;
      row.bytes_read = result.stats.bytes_read;
      row.scans = result.stats.dataset_scans;
      row.tree = cmp::SerializeTree(result.tree);
    }
    rows.push_back(row);
  };

  run("in_memory", [&] { return builder.Build(train); });
  run("streamed_prefetch", [&] {
    auto source = cmp::TableBlockSource::Open(table_path, block);
    return builder.BuildStreamed(*source);
  });
  run("streamed_one_block", [&] {
    auto source = cmp::TableBlockSource::Open(table_path, train_n);
    return builder.BuildStreamed(*source);
  });

  bool identical = true;
  for (const Row& r : rows) {
    if (r.tree != rows.front().tree) identical = false;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const double base = rows.front().rows_per_sec;

  std::cout << "training " << train_n << " records, CMP-S, no prune, "
            << opts.base.num_threads << " threads, block=" << block
            << "\n\n";
  std::cout << "mode                    rows/sec    vs in-mem   scans"
            << "   MB read/pass\n";
  for (const Row& r : rows) {
    std::printf("%-22s %10d   %6.2fx   %5d   %10.2f\n", r.name.c_str(),
                static_cast<int>(r.rows_per_sec), r.rows_per_sec / base,
                static_cast<int>(r.scans),
                static_cast<double>(r.bytes_read) / r.scans /
                    (1024.0 * 1024.0));
  }
  std::cout << "(in_memory bytes are the disk simulation; streamed bytes"
            << " are measured file reads)\n";
  std::cout << "\ntrees bit-identical across all modes: "
            << (identical ? "yes" : "NO — DETERMINISM VIOLATION") << "\n";
  std::cout << "hardware threads on this host: " << hw << "\n";

  std::ofstream json(json_path);
  json << "{\n"
       << "  \"bench\": \"ooc\",\n"
       << "  \"rows\": " << train_n << ",\n"
       << "  \"block_records\": " << block << ",\n"
       << "  \"hardware_threads\": " << hw << ",\n"
       << "  \"deterministic\": " << (identical ? "true" : "false") << ",\n";
  for (const Row& r : rows) {
    json << "  \"" << r.name << "_rows_per_sec\": " << r.rows_per_sec
         << ",\n"
         << "  \"" << r.name << "_bytes_per_pass\": "
         << r.bytes_read / r.scans << ",\n";
  }
  json << "  \"streamed_vs_memory\": " << rows[1].rows_per_sec / base
       << "\n";
  json << "}\n";
  std::cout << "wrote " << json_path << "\n";
  std::remove(table_path.c_str());
  return identical ? 0 : 1;
}
