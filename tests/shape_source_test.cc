// Cross-implementation property tests for the ShapeSource layer: every
// (backend, mode, threads) combination of the unified FindShapes — memory
// and disk; scan, exists, and sharded-index plans; serial and
// work-partitioned parallel, including the parallel-disk path no
// pre-ShapeSource code offered — must return the identical sorted
// shape(D), with uniform logical metering.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

#include "base/rng.h"
#include "gen/data_generator.h"
#include "index/find_shapes.h"
#include "pager/disk_database.h"
#include "pager/disk_shape_source.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

using storage::ShapeFinderMode;

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

GeneratedData MakeRandomData(Rng* rng) {
  DataGenParams params;
  params.preds = 1 + static_cast<uint32_t>(rng->Below(6));
  params.min_arity = 1;
  params.max_arity = 1 + static_cast<uint32_t>(rng->Below(5));
  // Small domains force repeated constants, so coarse shapes actually occur
  // (64 is the generator's minimum).
  params.dsize = 64 + rng->Below(150);
  params.rsize = rng->Below(800);
  params.seed = rng->Next();
  auto data = GenerateData(params);
  EXPECT_TRUE(data.ok()) << data.status();
  return std::move(data).value();
}

TEST(ShapeSourceTest, AllBackendModeThreadCombinationsAgree) {
  Rng rng(20260728);
  for (int trial = 0; trial < 12; ++trial) {
    GeneratedData data = MakeRandomData(&rng);
    storage::Catalog catalog(data.database.get());
    auto expected = storage::FindShapes(storage::MemoryShapeSource(&catalog));
    ASSERT_TRUE(expected.ok()) << expected.status();

    const std::string path =
        TempPath("chase_shape_source_" + std::to_string(trial) + ".db");
    auto disk_db = pager::DiskDatabase::Create(path, *data.database,
                                               /*num_frames=*/16);
    ASSERT_TRUE(disk_db.ok()) << disk_db.status();
    storage::MemoryShapeSource memory(&catalog);
    pager::DiskShapeSource disk(disk_db->get());

    for (const storage::ShapeSource* source :
         std::initializer_list<const storage::ShapeSource*>{&memory, &disk}) {
      // The layer split: storage/ cannot name the sharded index, so the
      // index plan is only reachable through index::FindShapes, which
      // dispatches it before falling through to storage::FindShapes.
      EXPECT_EQ(storage::FindShapes(*source, {ShapeFinderMode::kIndex})
                    .status()
                    .code(),
                StatusCode::kInvalidArgument)
          << "backend " << source->Name();
      for (ShapeFinderMode mode :
           {ShapeFinderMode::kScan, ShapeFinderMode::kExists,
            ShapeFinderMode::kIndex}) {
        for (unsigned threads : {1u, 2u, 4u}) {
          auto shapes = index::FindShapes(*source, {mode, threads});
          ASSERT_TRUE(shapes.ok()) << shapes.status();
          EXPECT_EQ(*shapes, *expected)
              << "trial " << trial << ", backend " << source->Name()
              << ", mode " << storage::ShapeFinderModeName(mode)
              << ", threads " << threads;
        }
      }
    }
    std::remove(path.c_str());
  }
}

TEST(ShapeSourceTest, DiskRangeScansMatchMemory) {
  Rng rng(424242);
  GeneratedData data = MakeRandomData(&rng);
  const std::string path = TempPath("chase_shape_source_ranges.db");
  // A tiny pool forces the ranged scans through real evictions.
  auto disk_db =
      pager::DiskDatabase::Create(path, *data.database, /*num_frames=*/4);
  ASSERT_TRUE(disk_db.ok()) << disk_db.status();

  storage::Catalog catalog(data.database.get());
  storage::MemoryShapeSource memory(&catalog);
  pager::DiskShapeSource disk(disk_db->get());

  auto collect = [](const storage::ShapeSource& source, PredId pred,
                    uint64_t first, uint64_t count) {
    std::vector<std::vector<uint32_t>> rows;
    EXPECT_TRUE(source
                    .ScanRange(pred, first, count,
                               [&](std::span<const uint32_t> tuple) {
                                 rows.emplace_back(tuple.begin(), tuple.end());
                                 return true;
                               })
                    .ok());
    return rows;
  };

  for (PredId pred : memory.NonEmptyRelations()) {
    const uint64_t rows = memory.NumTuples(pred);
    for (int probe = 0; probe < 16; ++probe) {
      // Ranges both inside and (deliberately) past the end of the relation.
      const uint64_t first = rng.Below(rows + 2);
      const uint64_t count = rng.Below(rows + 2);
      EXPECT_EQ(collect(disk, pred, first, count),
                collect(memory, pred, first, count))
          << "pred " << pred << " range [" << first << ", +" << count << ")";
    }
  }
  std::remove(path.c_str());
}

TEST(ShapeSourceTest, MeteringIsUniformAcrossBackends) {
  Rng rng(77);
  GeneratedData data = MakeRandomData(&rng);
  const std::string path = TempPath("chase_shape_source_metering.db");
  auto disk_db = pager::DiskDatabase::Create(path, *data.database,
                                             /*num_frames=*/16);
  ASSERT_TRUE(disk_db.ok()) << disk_db.status();

  for (ShapeFinderMode mode :
       {ShapeFinderMode::kScan, ShapeFinderMode::kExists,
        ShapeFinderMode::kIndex}) {
    for (unsigned threads : {1u, 4u}) {
      // Fresh sources per run: each carries its own logical counters.
      storage::Catalog catalog(data.database.get());
      storage::MemoryShapeSource memory(&catalog);
      pager::DiskShapeSource disk(disk_db->get());
      ASSERT_TRUE(index::FindShapes(memory, {mode, threads}).ok());
      ASSERT_TRUE(index::FindShapes(disk, {mode, threads}).ok());
      // The plans execute the same logical accesses on both backends: heap
      // order preserves row-store order, so scans and early exits align.
      EXPECT_EQ(memory.stats().tuples_scanned, disk.stats().tuples_scanned);
      EXPECT_EQ(memory.stats().exists_queries, disk.stats().exists_queries);
      EXPECT_EQ(memory.stats().relations_loaded,
                disk.stats().relations_loaded);
      // Physical metering is backend-specific: no I/O in memory, real page
      // reads on disk.
      EXPECT_EQ(memory.Io().pages_read, 0u);
      if (data.database->TotalFacts() > 0) {
        EXPECT_GT(disk.Io().pool_hits + disk.Io().pool_misses, 0u);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(ShapeSourceTest, ProbeRejectsOversizedIdTuplesInsteadOfSmashing) {
  // Schemas cap arity at Schema::kMaxArity, but ProbeShapeExists is public
  // API: an id-tuple longer than its fixed-width scratch must be refused,
  // not written past the arrays.
  Schema schema;
  auto pred = schema.AddPredicate("r", 2);
  ASSERT_TRUE(pred.ok());
  Database db(&schema);
  db.EnsureAnonymousDomain(4);
  std::vector<uint32_t> tuple = {1, 2};
  ASSERT_TRUE(db.AddFact(*pred, tuple).ok());
  storage::Catalog catalog(&db);
  storage::MemoryShapeSource memory(&catalog);

  IdTuple oversized(Schema::kMaxArity + 10, 1);
  storage::AccessStats stats;
  auto probe =
      storage::ProbeShapeExists(memory, *pred, oversized, false, &stats);
  EXPECT_EQ(probe.status().code(), StatusCode::kInvalidArgument);

  // A maximal legal id-tuple stays accepted (no witness, but no error).
  IdTuple maximal(Schema::kMaxArity, 1);
  auto legal =
      storage::ProbeShapeExists(memory, *pred, maximal, true, &stats);
  ASSERT_TRUE(legal.ok()) << legal.status();
  EXPECT_FALSE(legal.value());
}

TEST(ShapeSourceTest, ParallelDiskScanCountsEveryTupleOnce) {
  Rng rng(31337);
  GeneratedData data = MakeRandomData(&rng);
  const std::string path = TempPath("chase_shape_source_parallel.db");
  auto disk_db =
      pager::DiskDatabase::Create(path, *data.database, /*num_frames=*/8);
  ASSERT_TRUE(disk_db.ok()) << disk_db.status();

  pager::DiskShapeSource disk(disk_db->get());
  auto shapes = index::FindShapes(disk, {ShapeFinderMode::kScan, /*threads=*/4});
  ASSERT_TRUE(shapes.ok()) << shapes.status();
  EXPECT_EQ(disk.stats().tuples_scanned, data.database->TotalFacts());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace chase
