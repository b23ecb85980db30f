// Cross-implementation property tests for the ShapeSource layer: every
// (backend, mode, threads) combination of the unified FindShapes — memory
// and disk; scan and exists plans; serial and
// work-partitioned parallel, including the parallel-disk path no
// pre-ShapeSource code offered — must return the identical sorted
// shape(D), with uniform logical metering.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <numeric>
#include <set>
#include <string>
#include <system_error>
#include <vector>

#include "base/rng.h"
#include "gen/data_generator.h"
#include "pager/disk_database.h"
#include "pager/disk_shape_source.h"
#include "pager/heap_file.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"
#include "storage/tuple_run.h"

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
      for (ShapeFinderMode mode :
           {ShapeFinderMode::kScan, ShapeFinderMode::kExists}) {
        for (unsigned threads : {1u, 2u, 4u}) {
          auto shapes = storage::FindShapes(*source, {mode, threads});
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
                               [&](storage::TupleRun run) {
                                 EXPECT_GT(run.rows(), 0u);
                                 for (size_t i = 0; i < run.rows(); ++i) {
                                   const auto tuple = run.row(i);
                                   rows.emplace_back(tuple.begin(),
                                                     tuple.end());
                                 }
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
       {ShapeFinderMode::kScan, ShapeFinderMode::kExists}) {
    for (unsigned threads : {1u, 4u}) {
      // Fresh sources per run: each carries its own logical counters.
      storage::Catalog catalog(data.database.get());
      storage::MemoryShapeSource memory(&catalog);
      pager::DiskShapeSource disk(disk_db->get());
      ASSERT_TRUE(storage::FindShapes(memory, {mode, threads}).ok());
      ASSERT_TRUE(storage::FindShapes(disk, {mode, threads}).ok());
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
  auto shapes = storage::FindShapes(disk, {ShapeFinderMode::kScan, /*threads=*/4});
  ASSERT_TRUE(shapes.ok()) << shapes.status();
  EXPECT_EQ(disk.stats().tuples_scanned, data.database->TotalFacts());
  std::remove(path.c_str());
}

TEST(ShapeSourceTest, ScanPlanHandlesMaximalArity) {
  // The scan plan writes each tuple's id-tuple into a fixed
  // Schema::kMaxArity stack buffer. Relations of arity 64 and 255 fill it
  // to the last byte, with ids up to 255; the shapes must match the heap
  // IdOf reference on both backends at 1 and 4 threads.
  Schema schema;
  const PredId wide = schema.AddPredicate("wide", 64).value();
  const PredId widest =
      schema.AddPredicate("widest", Schema::kMaxArity).value();
  Database db(&schema);
  db.EnsureAnonymousDomain(2 * Schema::kMaxArity);
  Rng rng(20261018);
  std::set<Shape> reference;
  for (PredId pred : {wide, widest}) {
    std::vector<uint32_t> tuple(schema.Arity(pred));
    for (int row = 0; row < 120; ++row) {
      switch (row % 4) {
        case 0:  // all distinct: ids 1..arity
          std::iota(tuple.begin(), tuple.end(), static_cast<uint32_t>(row));
          break;
        case 1:  // all equal
          std::fill(tuple.begin(), tuple.end(), static_cast<uint32_t>(row));
          break;
        case 2:  // few blocks
          for (uint32_t& c : tuple) c = static_cast<uint32_t>(rng.Below(3));
          break;
        default:  // many blocks
          for (uint32_t& c : tuple) {
            c = static_cast<uint32_t>(rng.Below(2 * Schema::kMaxArity));
          }
      }
      ASSERT_TRUE(db.AddFact(pred, tuple).ok());
      reference.insert(
          Shape(pred, IdOf(std::span<const uint32_t>(tuple))));
    }
  }
  const std::vector<Shape> expected(reference.begin(), reference.end());

  const std::string path = TempPath("chase_shape_source_wide.db");
  auto disk_db = pager::DiskDatabase::Create(path, db, /*num_frames=*/16);
  ASSERT_TRUE(disk_db.ok()) << disk_db.status();
  storage::Catalog catalog(&db);
  storage::MemoryShapeSource memory(&catalog);
  pager::DiskShapeSource disk(disk_db->get());
  for (const storage::ShapeSource* source :
       std::initializer_list<const storage::ShapeSource*>{&memory, &disk}) {
    for (unsigned threads : {1u, 4u}) {
      auto shapes =
          storage::FindShapes(*source, {ShapeFinderMode::kScan, threads});
      ASSERT_TRUE(shapes.ok()) << shapes.status();
      EXPECT_EQ(*shapes, expected)
          << "backend " << source->Name() << ", threads " << threads;
    }
  }
  std::remove(path.c_str());
}

// Fills `tuple` with one of the row kinds the scan kernel must classify:
// all equal, all distinct, or drawn from a domain of 2..arity+1 values
// (so coarse and fine shapes alike occur).
void FillKernelRow(Rng* rng, std::vector<uint32_t>* tuple) {
  const auto arity = static_cast<uint32_t>(tuple->size());
  const auto base = static_cast<uint32_t>(rng->Below(64));
  switch (rng->Below(4)) {
    case 0:
      std::fill(tuple->begin(), tuple->end(), base);
      break;
    case 1:
      std::iota(tuple->begin(), tuple->end(), base);
      break;
    default: {
      const uint64_t domain = 2 + rng->Below(arity);
      for (uint32_t& c : *tuple) {
        c = base + static_cast<uint32_t>(rng->Below(domain));
      }
    }
  }
}

TEST(ShapeSourceTest, ScanKernelMatchesBruteForceOnBothSidesOfMaskCutoff) {
  // One relation per arity 1..8, so both the equality-mask kernel (arity
  // <= 6) and the per-tuple id-tuple path (7 and 8) run; row counts up to
  // a few pages' worth, so relations split across chunks and disk runs.
  Rng rng(20261020);
  for (int trial = 0; trial < 4; ++trial) {
    Schema schema;
    Database db(&schema);
    db.EnsureAnonymousDomain(128);
    std::set<Shape> reference;
    for (uint32_t arity = 1; arity <= 8; ++arity) {
      const PredId pred =
          schema.AddPredicate("r" + std::to_string(arity), arity).value();
      const uint64_t rows = trial == 0 ? 3 : rng.Below(2500);
      std::vector<uint32_t> tuple(arity);
      for (uint64_t row = 0; row < rows; ++row) {
        FillKernelRow(&rng, &tuple);
        ASSERT_TRUE(db.AddFact(pred, tuple).ok());
        reference.insert(ShapeOfTuple(pred, tuple));
      }
    }
    const std::vector<Shape> expected(reference.begin(), reference.end());

    const std::string path =
        TempPath("chase_shape_source_kernel_" + std::to_string(trial) + ".db");
    auto disk_db = pager::DiskDatabase::Create(path, db, /*num_frames=*/8);
    ASSERT_TRUE(disk_db.ok()) << disk_db.status();
    for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
      // Fresh sources per run: each carries its own logical counters.
      storage::Catalog catalog(&db);
      storage::MemoryShapeSource memory(&catalog);
      pager::DiskShapeSource disk(disk_db->get());
      for (const storage::ShapeSource* source :
           std::initializer_list<const storage::ShapeSource*>{&memory,
                                                              &disk}) {
        auto shapes =
            storage::FindShapes(*source, {ShapeFinderMode::kScan, threads});
        ASSERT_TRUE(shapes.ok()) << shapes.status();
        EXPECT_EQ(*shapes, expected)
            << "trial " << trial << ", backend " << source->Name()
            << ", threads " << threads;
        EXPECT_EQ(source->stats().tuples_scanned, db.TotalFacts())
            << "trial " << trial << ", backend " << source->Name()
            << ", threads " << threads;
      }
    }
    std::remove(path.c_str());
  }
}

// Threads of this process, or 0 where /proc/self/task is not available.
size_t LiveThreads() {
  std::error_code error;
  std::filesystem::directory_iterator it("/proc/self/task", error);
  if (error) return 0;
  return static_cast<size_t>(
      std::distance(it, std::filesystem::directory_iterator()));
}

TEST(ShapeSourceTest, ScanStartsNoMoreWorkersThanChunks) {
  const size_t before = LiveThreads();
  if (before == 0) GTEST_SKIP() << "no /proc/self/task to count threads in";
  Schema schema;
  const PredId pred = schema.AddPredicate("r", 2).value();
  Database db(&schema);
  db.EnsureAnonymousDomain(8);
  for (uint32_t row = 0; row < 3; ++row) {
    const std::vector<uint32_t> tuple = {row, row + 1};
    ASSERT_TRUE(db.AddFact(pred, tuple).ok());
  }
  storage::Catalog catalog(&db);
  storage::MemoryShapeSource memory(&catalog);

  // Three rows deal as at most three chunks, so at most two workers join
  // the calling thread, however many threads are asked for.
  std::vector<size_t> observed(8, 0);
  uint64_t rows = 0;
  std::vector<uint64_t> worker_rows(8, 0);
  ASSERT_TRUE(storage::ParallelTupleScan(
                  memory, {pred}, /*threads=*/8,
                  [&](unsigned t, PredId, storage::TupleRun run) {
                    observed[t] = std::max(observed[t], LiveThreads());
                    worker_rows[t] += run.rows();
                  })
                  .ok());
  for (uint64_t n : worker_rows) rows += n;
  EXPECT_EQ(rows, 3u);
  EXPECT_EQ(memory.stats().tuples_scanned, 3u);
  const size_t most = *std::max_element(observed.begin(), observed.end());
  EXPECT_GT(most, 0u);
  EXPECT_LE(most, before + 2);
}

TEST(ShapeSourceTest, ExistsProbeMetersTuplesThroughFirstWitness) {
  // Distinct pairs (shape [1,2]) over more than three disk pages, with one
  // equal pair (shape [1,1]) as the only witness of the probed shape. Each
  // probe must meter the tuples up to and including its witness, on both
  // backends, wherever the witness sits: early in the first page, at the
  // end of the first page, at the start of a middle page, in the last
  // page — and the whole relation when there is none.
  const uint32_t per_page = pager::HeapFile::TuplesPerPage(2);
  const uint64_t rows = 3 * per_page + 7;
  const IdTuple equal_pair = {1, 1};
  struct Case {
    const char* where;
    uint64_t witness;  // row of the equal pair; `rows` for none
  };
  const Case cases[] = {{"first page", 3},
                        {"end of first page", per_page - 1},
                        {"middle page", 2 * per_page},
                        {"last page", rows - 1},
                        {"none", rows}};
  for (const Case& c : cases) {
    Schema schema;
    const PredId pred = schema.AddPredicate("r", 2).value();
    Database db(&schema);
    db.EnsureAnonymousDomain(rows + 1);
    for (uint64_t row = 0; row < rows; ++row) {
      const auto v = static_cast<uint32_t>(row);
      const std::vector<uint32_t> tuple = {v, row == c.witness ? v : v + 1};
      ASSERT_TRUE(db.AddFact(pred, tuple).ok());
    }
    const std::string path = TempPath("chase_shape_source_probe.db");
    auto disk_db = pager::DiskDatabase::Create(path, db, /*num_frames=*/4);
    ASSERT_TRUE(disk_db.ok()) << disk_db.status();
    storage::Catalog catalog(&db);
    storage::MemoryShapeSource memory(&catalog);
    pager::DiskShapeSource disk(disk_db->get());
    const bool present = c.witness < rows;
    const uint64_t expected_scanned = present ? c.witness + 1 : rows;
    for (const storage::ShapeSource* source :
         std::initializer_list<const storage::ShapeSource*>{&memory, &disk}) {
      for (bool exact : {false, true}) {
        storage::AccessStats stats;
        auto found =
            storage::ProbeShapeExists(*source, pred, equal_pair, exact, &stats);
        ASSERT_TRUE(found.ok()) << found.status();
        EXPECT_EQ(*found, present)
            << c.where << ", backend " << source->Name() << ", exact "
            << exact;
        EXPECT_EQ(stats.tuples_scanned, expected_scanned)
            << c.where << ", backend " << source->Name() << ", exact "
            << exact;
        EXPECT_EQ(stats.exists_queries, 1u);
      }
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace chase
