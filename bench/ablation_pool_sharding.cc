// Ablation: buffer-pool sharding for parallel disk FindShapes.
//
// The scan is work-partitioned across threads; this ablation isolates the
// pager-side lever beneath it: the page table + latch are partitioned by a
// mixed hash of the page id, so concurrent workers faulting different
// pages stop serializing on one global pool mutex. Threads x pool shards
// are swept on a cold pool, where every page access takes the miss path
// (the contended one).
//
// Each configuration scans a freshly opened database (cold pool) and then
// re-scans it (warm pool) with the uniform access/I-O metering columns of
// the other FindShapes benches. Speedups are against the 1-thread,
// 1-shard cold scan. Thread counts above the machine's core count (8 on a
// 4-core box) measure latch contention under oversubscription, not
// speedup.

#include <cstdio>
#include <iostream>

#include "common.h"
#include "pager/disk_database.h"
#include "pager/disk_shape_source.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

using namespace chase;
using namespace chase::bench;

namespace {

// Deliberately smaller than the workload's page count: scans must fault
// pages all the way through (the regime the sharding exists for). "warm" rows rescan the same pool — with data larger than the
// pool they stay fault-heavy, which is exactly the sustained-scan serving
// regime.
constexpr uint32_t kFrames = 128;

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  const uint32_t reps = flags.reps != 0 ? flags.reps : 3;
  Rng rng(flags.seed);

  DataGenParams params;
  params.preds = 20;
  params.min_arity = 1;
  params.max_arity = 5;
  params.dsize = 1'000'000;
  params.rsize = std::max<uint64_t>(
      1, static_cast<uint64_t>(200'000 * flags.scale) / params.preds);
  params.seed = rng.Next();
  auto data = GenerateData(params);
  if (!data.ok()) {
    std::cerr << data.status() << "\n";
    return 1;
  }

  storage::Catalog catalog(data->database.get());
  storage::MemoryShapeSource memory(&catalog);
  auto expected =
      storage::FindShapes(memory, {storage::ShapeFinderMode::kScan, 1});
  if (!expected.ok()) {
    std::cerr << expected.status() << "\n";
    return 1;
  }

  const std::string path = "/tmp/chase_bench_pool_sharding.db";
  {
    auto created =
        pager::DiskDatabase::Create(path, *data->database, kFrames);
    if (!created.ok()) {
      std::cerr << created.status() << "\n";
      return 1;
    }
  }

  std::vector<std::string> columns = {"threads", "pool-shards", "pool",
                                      "t-scan-ms", "speedup"};
  for (const std::string& name : AccessColumnNames()) {
    columns.push_back(name);
  }
  TablePrinter table(columns);

  double base_ms = 0;  // 1 thread, 1 shard, cold
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    for (unsigned shards : {1u, 4u, 16u}) {
      double cold_ms = 0, warm_ms = 0;
      storage::AccessStats cold_access, warm_access;
      storage::IoCounters cold_io, warm_io;
      for (uint32_t rep = 0; rep < reps; ++rep) {
        // Fresh open per rep: the pool starts empty (cold).
        auto disk_db = pager::DiskDatabase::Open(path, kFrames, shards);
        if (!disk_db.ok()) {
          std::cerr << disk_db.status() << "\n";
          return 1;
        }
        pager::DiskShapeSource source(disk_db->get());
        const storage::FindShapesOptions options{
            storage::ShapeFinderMode::kScan, threads};

        for (bool warm : {false, true}) {
          source.stats().Reset();
          const storage::IoCounters before = source.Io();
          Timer timer;
          auto shapes = storage::FindShapes(source, options);
          const double ms = timer.ElapsedMillis();
          if (!shapes.ok() || *shapes != expected.value()) {
            std::cerr << "pool-sharding scan mismatch (threads=" << threads
                      << ", shards=" << shards << ")\n";
            return 1;
          }
          const storage::IoCounters io = source.Io().Since(before);
          if (warm) {
            warm_ms = rep == 0 ? ms : std::min(warm_ms, ms);
            warm_access = source.stats();
            warm_io = io;
          } else {
            cold_ms = rep == 0 ? ms : std::min(cold_ms, ms);
            cold_access = source.stats();
            cold_io = io;
          }
        }
      }
      if (threads == 1 && shards == 1) base_ms = cold_ms;
      for (bool warm : {false, true}) {
        const double ms = warm ? warm_ms : cold_ms;
        std::vector<std::string> row = {
            std::to_string(threads), std::to_string(shards),
            warm ? "warm" : "cold", FmtMs(ms),
            Fmt(base_ms / std::max(ms, 1e-6), 1) + "x"};
        for (const std::string& value : AccessColumnValues(
                 warm ? warm_access : cold_access, warm ? warm_io : cold_io)) {
          row.push_back(value);
        }
        table.AddRow(row);
      }
    }
  }
  std::remove(path.c_str());
  Emit(flags,
       "Ablation: buffer-pool sharding (parallel disk FindShapes, cold vs "
       "warm pool)",
       table);
  if (!WriteBenchJson(flags, "pool_sharding", table)) return 1;
  return 0;
}
