// ShapeIndex at scale: the parallel (formerly sharded) build, concurrent
// writers, snapshots and the index-fed check of the one index::ShapeIndex.
//
//  * equivalence: parallel builds over both ShapeSource backends return
//    exactly the scan plan's shapes, with per-shape multiplicities equal
//    to counts over the database rows, and meter the same logical
//    accesses on both;
//  * concurrency: a multi-threaded insert/remove stress run lands in the
//    same state as a serial replay (run under ThreadSanitizer in CI);
//  * persistence: snapshots round-trip bit-exactly, snapshots written with
//    a shard count in the reserved field still load, and corrupt or
//    truncated snapshots are rejected;
//  * index-fed check: IsChaseFinite[L] fed the index's shapes agrees with
//    the scanning implementation.
//
// Insert/remove semantics and the churn property are in shape_index_test.cc.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "base/rng.h"
#include "core/is_chase_finite.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "index/shape_index.h"
#include "io/binary_io.h"
#include "logic/shape.h"
#include "pager/disk_database.h"
#include "pager/disk_shape_source.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

using index::ShapeIndex;
using storage::ShapeFinderMode;

using ShapeCounts = std::map<Shape, uint64_t>;

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

// The scan plan over the row store: an independent algorithm the index's
// shape set must match.
std::vector<Shape> ScanShapes(const Database& db) {
  storage::Catalog catalog(&db);
  auto shapes = storage::FindShapes(storage::MemoryShapeSource(&catalog),
                                    {ShapeFinderMode::kScan, 1});
  EXPECT_TRUE(shapes.ok()) << shapes.status();
  return shapes.ok() ? std::move(shapes).value() : std::vector<Shape>{};
}

// A serial index build over the row store.
ShapeIndex BuildIndex(const Database& db) {
  storage::Catalog catalog(&db);
  auto built = ShapeIndex::Build(storage::MemoryShapeSource(&catalog));
  EXPECT_TRUE(built.ok()) << built.status();
  return built.ok() ? std::move(built).value() : ShapeIndex();
}

// Per-shape multiplicities counted straight off the database rows.
ShapeCounts CountShapes(const Database& db) {
  ShapeCounts counts;
  for (PredId pred : db.NonEmptyPredicates()) {
    const uint32_t arity = db.schema().Arity(pred);
    const auto tuples = db.Tuples(pred);
    for (size_t row = 0; row < tuples.size() / arity; ++row) {
      ++counts[ShapeOfTuple(pred, tuples.subspan(row * arity, arity))];
    }
  }
  return counts;
}

// The index's shapes, multiplicities and tuple total equal `expected`.
void ExpectCounts(const ShapeIndex& index, const ShapeCounts& expected) {
  std::vector<Shape> shapes;
  uint64_t tuples = 0;
  for (const auto& [shape, count] : expected) {
    shapes.push_back(shape);
    tuples += count;
    EXPECT_EQ(index.Count(shape), count);
  }
  EXPECT_EQ(index.CurrentShapes(), shapes);
  EXPECT_EQ(index.NumShapes(), shapes.size());
  EXPECT_EQ(index.NumIndexedTuples(), tuples);
}

// Build over both backends at every thread count must equal the scan
// plan.
TEST(ShapeIndexTest, BuildMatchesScanPlanOnBothBackends) {
  Rng rng(20260728);
  for (int trial = 0; trial < 6; ++trial) {
    GeneratedData data = MakeRandomData(&rng);
    const std::vector<Shape> expected = ScanShapes(*data.database);

    const std::string path =
        TempPath("chase_shape_index_build_" + std::to_string(trial) +
                 ".db");
    auto disk_db = pager::DiskDatabase::Create(path, *data.database,
                                               /*num_frames=*/16);
    ASSERT_TRUE(disk_db.ok()) << disk_db.status();
    storage::Catalog catalog(data.database.get());
    storage::MemoryShapeSource memory(&catalog);
    pager::DiskShapeSource disk(disk_db->get());

    for (const storage::ShapeSource* source :
         {static_cast<const storage::ShapeSource*>(&memory),
          static_cast<const storage::ShapeSource*>(&disk)}) {
      for (unsigned threads : {1u, 4u}) {
        auto built = ShapeIndex::Build(*source, threads);
        ASSERT_TRUE(built.ok()) << built.status();
        EXPECT_EQ(built->CurrentShapes(), expected)
            << "trial " << trial << ", backend " << source->Name()
            << ", threads " << threads;
        EXPECT_EQ(built->NumIndexedTuples(), data.database->TotalFacts());
      }
    }
    // The build scans through the same ParallelTupleScan on both backends:
    // every tuple once per build.
    EXPECT_EQ(memory.stats().tuples_scanned, disk.stats().tuples_scanned);
    EXPECT_EQ(memory.stats().tuples_scanned,
              2 * data.database->TotalFacts());
    std::remove(path.c_str());
  }
}

// Per-shape multiplicities (not just the distinct set) must match counts
// over the database rows, after the serial and the parallel build.
TEST(ShapeIndexTest, BuildPreservesMultiplicities) {
  Rng rng(7311);
  GeneratedData data = MakeRandomData(&rng);
  const ShapeCounts expected = CountShapes(*data.database);
  ExpectCounts(BuildIndex(*data.database), expected);

  storage::Catalog catalog(data.database.get());
  storage::MemoryShapeSource memory(&catalog);
  auto built = ShapeIndex::Build(memory, /*threads=*/4);
  ASSERT_TRUE(built.ok()) << built.status();
  ExpectCounts(*built, expected);
}

// The multi-threaded stress test: writers hammer one index concurrently;
// the final state must equal a serial replay. Exercises the latch and the
// concurrent read paths; run under TSan in CI.
TEST(ShapeIndexTest, ConcurrentInsertRemoveMatchesSerialReplay) {
  constexpr unsigned kThreads = 8;
  constexpr int kOpsPerThread = 4000;

  Schema schema;
  std::vector<PredId> preds;
  for (int i = 0; i < 5; ++i) {
    auto pred = schema.AddPredicate("p" + std::to_string(i),
                                    1 + static_cast<uint32_t>(i % 4));
    ASSERT_TRUE(pred.ok());
    preds.push_back(*pred);
  }

  struct Op {
    bool remove;
    PredId pred;
    std::vector<uint32_t> tuple;
  };

  ShapeIndex shared;
  std::vector<std::vector<Op>> logs(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(1000 + t);
      // Tuples this worker inserted and has not yet removed: removals are
      // restricted to them, so no interleaving can drive a counter negative.
      std::vector<std::pair<PredId, std::vector<uint32_t>>> live;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const bool remove = !live.empty() && rng.Below(100) < 40;
        if (remove) {
          const size_t victim = rng.Below(live.size());
          auto [pred, tuple] = live[victim];
          ASSERT_TRUE(shared.Remove(pred, tuple).ok());
          logs[t].push_back({true, pred, std::move(tuple)});
          live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
        } else {
          const size_t which = rng.Below(preds.size());
          const PredId pred = preds[which];
          std::vector<uint32_t> tuple(schema.Arity(pred));
          for (uint32_t& v : tuple) {
            v = static_cast<uint32_t>(rng.Below(5));  // small → collisions
          }
          shared.Insert(pred, tuple);
          logs[t].push_back({false, pred, tuple});
          live.emplace_back(pred, std::move(tuple));
        }
        if (op % 512 == 0) {
          // Concurrent readers: must be data-race-free with the writers.
          (void)shared.NumShapes();
          (void)shared.Contains(Shape(preds[0], {1}));
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  // Serial replay, thread by thread, into plain per-shape counters: each
  // per-thread log is individually valid, and threads only remove their own
  // inserts, so any thread order replays cleanly and all orders end in the
  // same counter state.
  ShapeCounts replay;
  for (const auto& log : logs) {
    for (const Op& op : log) {
      const Shape shape = ShapeOfTuple(op.pred, op.tuple);
      if (!op.remove) {
        ++replay[shape];
      } else if (--replay[shape] == 0) {
        replay.erase(shape);
      }
    }
  }
  ExpectCounts(shared, replay);
}

TEST(ShapeIndexTest, SnapshotRoundTrips) {
  Rng rng(555);
  GeneratedData data = MakeRandomData(&rng);
  ShapeIndex built = BuildIndex(*data.database);

  const std::string path = TempPath("chase_shape_index_snapshot.chidx");
  ASSERT_TRUE(built.Save(path).ok());
  auto loaded = ShapeIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->CurrentShapes(), built.CurrentShapes());
  EXPECT_EQ(loaded->NumIndexedTuples(), built.NumIndexedTuples());
  for (const Shape& shape : built.CurrentShapes()) {
    EXPECT_EQ(loaded->Count(shape), built.Count(shape));
  }

  // Snapshot bytes are canonical: saving the loaded index reproduces them.
  auto first = io::LoadShapeSnapshot(path);
  ASSERT_TRUE(first.ok());
  const std::string path2 = TempPath("chase_shape_index_snapshot2.chidx");
  ASSERT_TRUE(loaded->Save(path2).ok());
  auto second = io::LoadShapeSnapshot(path2);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(io::SerializeShapeSnapshot(*first),
            io::SerializeShapeSnapshot(*second));
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

// Snapshots written when the index was sharded carry the shard count in
// what is now a reserved field; they load with the same contents, and
// saving them again writes the reserved value 1.
TEST(ShapeIndexTest, SnapshotWithShardCountLoads) {
  Rng rng(556);
  GeneratedData data = MakeRandomData(&rng);
  const ShapeCounts expected = CountShapes(*data.database);

  io::ShapeSnapshot snapshot;
  snapshot.num_shards = 12;
  snapshot.fingerprint = index::DatabaseFingerprint(*data.database);
  for (const auto& [shape, count] : expected) {
    snapshot.counts.push_back({shape, count});
  }
  const std::string path = TempPath("chase_shape_index_sharded.chidx");
  ASSERT_TRUE(io::SaveShapeSnapshot(snapshot, path).ok());
  auto loaded = ShapeIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectCounts(*loaded, expected);
  EXPECT_EQ(loaded->ContentFingerprint(), snapshot.fingerprint);

  ASSERT_TRUE(loaded->Save(path).ok());
  auto resaved = io::LoadShapeSnapshot(path);
  ASSERT_TRUE(resaved.ok()) << resaved.status();
  EXPECT_EQ(resaved->num_shards, 1u);
  EXPECT_EQ(resaved->fingerprint, snapshot.fingerprint);
  std::remove(path.c_str());
}

TEST(ShapeIndexTest, CorruptAndTruncatedSnapshotsAreRejected) {
  Schema schema;
  auto pred = schema.AddPredicate("r", 2);
  ASSERT_TRUE(pred.ok());
  ShapeIndex index;
  std::vector<uint32_t> tuple = {3, 3};
  index.Insert(*pred, tuple);

  io::ShapeSnapshot snapshot;
  for (const Shape& shape : index.CurrentShapes()) {
    snapshot.counts.push_back({shape, index.Count(shape)});
  }
  std::vector<uint8_t> bytes = io::SerializeShapeSnapshot(snapshot);

  // Bit flip in the payload: checksum mismatch.
  std::vector<uint8_t> corrupt = bytes;
  corrupt.back() ^= 0xff;
  EXPECT_EQ(io::DeserializeShapeSnapshot(corrupt).status().code(),
            StatusCode::kFailedPrecondition);

  // Truncation: reported as such, never read past the end.
  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 3);
  EXPECT_EQ(io::DeserializeShapeSnapshot(truncated).status().code(),
            StatusCode::kOutOfRange);

  // Wrong magic (a program is not a snapshot).
  EXPECT_FALSE(io::DeserializeShapeSnapshot(
                   io::SerializeProgram(schema, Database(&schema), {}))
                   .ok());

  // An id-tuple that is not a restricted-growth string.
  io::ShapeSnapshot bad = snapshot;
  bad.counts[0].shape.id = {2, 1};
  EXPECT_EQ(io::DeserializeShapeSnapshot(io::SerializeShapeSnapshot(bad))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);

  // The reserved field outside [1, kMaxSnapshotShards].
  for (uint32_t reserved : {0u, io::kMaxSnapshotShards + 1}) {
    io::ShapeSnapshot out_of_range = snapshot;
    out_of_range.num_shards = reserved;
    EXPECT_EQ(io::DeserializeShapeSnapshot(
                  io::SerializeShapeSnapshot(out_of_range))
                  .status()
                  .code(),
              StatusCode::kFailedPrecondition)
        << reserved;
  }
}

// IsChaseFinite[L] fed shapes extracted from the index up front
// (LCheckOptions::precomputed_shapes): same verdict as the scanning
// implementation, zero db-dependent work.
class IndexFedCheckTest : public testing::TestWithParam<uint64_t> {};

TEST_P(IndexFedCheckTest, PrecomputedShapesMatchScanningVerdict) {
  Rng rng(GetParam());
  DataGenParams data_params;
  data_params.preds = 6;
  data_params.min_arity = 1;
  data_params.max_arity = 5;
  data_params.dsize = 100;
  data_params.rsize = 50;
  data_params.seed = rng.Next();
  auto data = GenerateData(data_params);
  ASSERT_TRUE(data.ok()) << data.status();
  TgdGenParams params;
  params.ssize = 6;
  params.min_arity = 1;
  params.max_arity = 5;
  params.tsize = 20;
  params.tclass = TgdClass::kLinear;
  params.seed = rng.Next();
  auto tgds = GenerateTgds(*data->schema, params);
  ASSERT_TRUE(tgds.ok()) << tgds.status();

  auto scanned = IsChaseFiniteL(*data->database, tgds.value());
  ASSERT_TRUE(scanned.ok()) << scanned.status();

  std::vector<Shape> shapes =
      BuildIndex(*data->database).CurrentShapes();
  LCheckOptions options;
  options.precomputed_shapes = &shapes;
  LCheckStats stats;
  auto indexed = IsChaseFiniteL(*data->database, tgds.value(), options,
                                &stats);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  EXPECT_EQ(indexed.value(), scanned.value());
  EXPECT_EQ(stats.access.tuples_scanned, 0u);
  EXPECT_EQ(stats.access.exists_queries, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexFedCheckTest,
                         testing::Values(2, 3, 4, 5, 6, 8, 10, 12, 13, 14,
                                         21, 34));

// ---------------------------------------------------------------------------
// Content fingerprint: the order-independent digest behind the snapshot
// staleness guard.

TEST(ShapeFingerprintTest, EveryBuildPathAgreesWithDatabaseFingerprint) {
  Rng rng(808);
  for (int trial = 0; trial < 4; ++trial) {
    GeneratedData data = MakeRandomData(&rng);
    const uint64_t expected = index::DatabaseFingerprint(*data.database);

    // Serial and parallel builds over memory, parallel over disk.
    storage::Catalog catalog(data.database.get());
    storage::MemoryShapeSource memory(&catalog);
    for (unsigned threads : {1u, 4u}) {
      auto built = ShapeIndex::Build(memory, threads);
      ASSERT_TRUE(built.ok()) << built.status();
      EXPECT_EQ(built->ContentFingerprint(), expected)
          << "threads " << threads;
    }

    const std::string path =
        TempPath("chase_fingerprint_" + std::to_string(trial) + ".db");
    auto disk_db = pager::DiskDatabase::Create(path, *data.database,
                                               /*num_frames=*/16);
    ASSERT_TRUE(disk_db.ok()) << disk_db.status();
    pager::DiskShapeSource disk(disk_db->get());
    auto disk_built = ShapeIndex::Build(disk, /*threads=*/4);
    ASSERT_TRUE(disk_built.ok()) << disk_built.status();
    EXPECT_EQ(disk_built->ContentFingerprint(), expected);
    std::remove(path.c_str());
  }
}

TEST(ShapeFingerprintTest, WriteThroughMaintainsFingerprint) {
  Rng rng(909);
  Schema schema;
  auto pred = schema.AddPredicate("p", 3);
  ASSERT_TRUE(pred.ok());
  Database db(&schema);
  db.EnsureAnonymousDomain(8);

  ShapeIndex index;
  for (int i = 0; i < 200; ++i) {
    std::vector<uint32_t> tuple(3);
    for (uint32_t& v : tuple) v = static_cast<uint32_t>(rng.Below(5));
    ASSERT_TRUE(db.AddFact(*pred, tuple).ok());
    index.Insert(*pred, tuple);
  }
  EXPECT_EQ(index.ContentFingerprint(), index::DatabaseFingerprint(db));

  // Insert/remove round-trips restore the digest exactly.
  const uint64_t before = index.ContentFingerprint();
  std::vector<uint32_t> extra = {1, 2, 1};
  index.Insert(*pred, extra);
  EXPECT_NE(index.ContentFingerprint(), before);
  ASSERT_TRUE(index.Remove(*pred, extra).ok());
  EXPECT_EQ(index.ContentFingerprint(), before);
}

TEST(ShapeFingerprintTest, CatchesRemoveInsertPairThatPreservesCounts) {
  // The staleness-guard scenario: two databases with the same tuple count
  // (and here even the same shapes) but different contents must disagree.
  Schema schema;
  auto pred = schema.AddPredicate("r", 2);
  ASSERT_TRUE(pred.ok());
  Database a(&schema);
  a.EnsureAnonymousDomain(16);
  Database b(&schema);
  b.EnsureAnonymousDomain(16);
  std::vector<uint32_t> t1 = {1, 2};
  std::vector<uint32_t> t2 = {3, 4};  // same shape (1,2) as t1
  std::vector<uint32_t> shared = {5, 5};
  ASSERT_TRUE(a.AddFact(*pred, t1).ok());
  ASSERT_TRUE(a.AddFact(*pred, shared).ok());
  ASSERT_TRUE(b.AddFact(*pred, t2).ok());
  ASSERT_TRUE(b.AddFact(*pred, shared).ok());

  const ShapeIndex ia = BuildIndex(a);
  const ShapeIndex ib = BuildIndex(b);
  EXPECT_EQ(ia.NumIndexedTuples(), ib.NumIndexedTuples());
  EXPECT_EQ(ia.CurrentShapes(), ib.CurrentShapes());
  EXPECT_NE(ia.ContentFingerprint(), ib.ContentFingerprint());
  EXPECT_NE(index::DatabaseFingerprint(a), index::DatabaseFingerprint(b));
}

TEST(ShapeFingerprintTest, SnapshotPersistsFingerprint) {
  Rng rng(1010);
  GeneratedData data = MakeRandomData(&rng);
  ShapeIndex built = BuildIndex(*data.database);
  const std::string path = TempPath("chase_fingerprint_snapshot.chidx");
  ASSERT_TRUE(built.Save(path).ok());
  auto loaded = ShapeIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->ContentFingerprint(), built.ContentFingerprint());
  EXPECT_EQ(loaded->ContentFingerprint(),
            index::DatabaseFingerprint(*data.database));
  std::remove(path.c_str());
}

TEST(ShapeFingerprintTest, SameShapeDifferentContentDigestsDifferently) {
  // Two tuples in the same equality pattern digest differently: the
  // fingerprint is content-based, not shape-based.
  std::vector<uint32_t> row = {7, 7, 9};
  std::vector<uint32_t> other = {8, 8, 9};
  EXPECT_NE(index::TupleFingerprint(2, std::span<const uint32_t>(row)),
            index::TupleFingerprint(2, std::span<const uint32_t>(other)));
}

}  // namespace
}  // namespace chase
