#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gen/data_generator.h"
#include "pager/buffer_pool.h"
#include "pager/disk_database.h"
#include "pager/disk_manager.h"
#include "pager/disk_shape_source.h"
#include "pager/heap_file.h"
#include "pager/page.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"
#include "storage/tuple_run.h"

namespace chase {
namespace pager {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

GeneratedData MakeData(uint32_t preds, uint64_t rsize, uint64_t seed) {
  DataGenParams params;
  params.preds = preds;
  params.min_arity = 1;
  params.max_arity = 5;
  params.dsize = 100;
  params.rsize = rsize;
  params.seed = seed;
  auto data = GenerateData(params);
  EXPECT_TRUE(data.ok()) << data.status();
  return std::move(data).value();
}

// shape(D) by the scan plan over the row store: the disk backend's oracle.
std::vector<Shape> MemoryScanShapes(const storage::Catalog& catalog) {
  auto shapes = storage::FindShapes(storage::MemoryShapeSource(&catalog));
  EXPECT_TRUE(shapes.ok()) << shapes.status();
  return shapes.ok() ? std::move(shapes).value() : std::vector<Shape>{};
}

// shape(D) by one serial plan over the disk store.
StatusOr<std::vector<Shape>> DiskShapes(const DiskDatabase& db,
                                        storage::ShapeFinderMode mode) {
  return storage::FindShapes(DiskShapeSource(&db), {mode});
}

// ---------------------------------------------------------------------------
// Page

TEST(PageTest, SealThenVerify) {
  Page page;
  page.Zero();
  PageHeader header;
  header.kind = static_cast<uint32_t>(PageKind::kHeap);
  WritePageHeader(&page, header);
  page.WriteU32(kPageHeaderSize, 0xdeadbeef);
  SealPage(&page);
  EXPECT_TRUE(VerifyPage(page));
}

TEST(PageTest, CorruptedBodyFailsVerify) {
  Page page;
  page.Zero();
  WritePageHeader(&page, PageHeader{});
  page.WriteU32(kPageHeaderSize, 1);
  SealPage(&page);
  page.WriteU32(kPageHeaderSize, 2);  // corrupt after sealing
  EXPECT_FALSE(VerifyPage(page));
}

TEST(PageTest, EverySingleByteFlipInTheBodyFailsVerify) {
  Page page;
  page.Zero();
  WritePageHeader(&page, PageHeader{});
  for (uint32_t offset = kPageHeaderSize; offset < kPageSize; ++offset) {
    page.bytes[offset] = static_cast<uint8_t>(offset * 7);
  }
  SealPage(&page);
  ASSERT_TRUE(VerifyPage(page));
  for (uint32_t offset = kPageHeaderSize; offset < kPageSize; ++offset) {
    page.bytes[offset] ^= 0x10;
    EXPECT_FALSE(VerifyPage(page)) << "accepted a flip at byte " << offset;
    page.bytes[offset] ^= 0x10;
  }
  EXPECT_TRUE(VerifyPage(page));
}

TEST(PageTest, BadMagicFailsVerify) {
  Page page;
  page.Zero();
  WritePageHeader(&page, PageHeader{});
  SealPage(&page);
  page.WriteU32(0, 0);  // clobber magic
  EXPECT_FALSE(VerifyPage(page));
}

TEST(PageTest, HeaderRoundTrip) {
  Page page;
  page.Zero();
  PageHeader header;
  header.kind = static_cast<uint32_t>(PageKind::kCatalog);
  header.next = 17;
  header.count = 42;
  WritePageHeader(&page, header);
  PageHeader read = ReadPageHeader(page);
  EXPECT_EQ(read.kind, header.kind);
  EXPECT_EQ(read.next, header.next);
  EXPECT_EQ(read.count, header.count);
}

// ---------------------------------------------------------------------------
// DiskManager

TEST(DiskManagerTest, CreateStartsWithCatalogRoot) {
  auto manager = DiskManager::Create(TempPath("dm_create.db"));
  ASSERT_TRUE(manager.ok()) << manager.status();
  EXPECT_EQ(manager->num_pages(), 1u);
  Page page;
  ASSERT_TRUE(manager->ReadPage(0, &page).ok());
  EXPECT_EQ(ReadPageHeader(page).kind,
            static_cast<uint32_t>(PageKind::kCatalog));
}

TEST(DiskManagerTest, WriteReadRoundTrip) {
  auto manager = DiskManager::Create(TempPath("dm_rw.db"));
  ASSERT_TRUE(manager.ok());
  auto id = manager->AllocatePage();
  ASSERT_TRUE(id.ok());
  Page page;
  page.Zero();
  WritePageHeader(&page, PageHeader{});
  page.WriteU64(kPageHeaderSize, 0x1122334455667788ULL);
  ASSERT_TRUE(manager->WritePage(*id, &page).ok());

  Page read;
  ASSERT_TRUE(manager->ReadPage(*id, &read).ok());
  EXPECT_EQ(read.ReadU64(kPageHeaderSize), 0x1122334455667788ULL);
}

TEST(DiskManagerTest, ReadUnallocatedPageIsOutOfRange) {
  auto manager = DiskManager::Create(TempPath("dm_oor.db"));
  ASSERT_TRUE(manager.ok());
  Page page;
  EXPECT_EQ(manager->ReadPage(99, &page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(manager->WritePage(99, &page).code(), StatusCode::kOutOfRange);
}

TEST(DiskManagerTest, OpenMissingFileIsNotFound) {
  auto manager = DiskManager::Open(TempPath("does_not_exist.db"));
  EXPECT_EQ(manager.status().code(), StatusCode::kNotFound);
}

TEST(DiskManagerTest, OpenMisalignedFileIsFailedPrecondition) {
  std::string path = TempPath("dm_misaligned.db");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a page file", f);
  std::fclose(f);
  auto manager = DiskManager::Open(path);
  EXPECT_EQ(manager.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DiskManagerTest, PersistsAcrossReopen) {
  std::string path = TempPath("dm_reopen.db");
  PageId id = kInvalidPageId;
  {
    auto manager = DiskManager::Create(path);
    ASSERT_TRUE(manager.ok());
    auto allocated = manager->AllocatePage();
    ASSERT_TRUE(allocated.ok());
    id = *allocated;
    Page page;
    page.Zero();
    WritePageHeader(&page, PageHeader{});
    page.WriteU32(kPageHeaderSize, 7);
    ASSERT_TRUE(manager->WritePage(id, &page).ok());
    ASSERT_TRUE(manager->Sync().ok());
  }
  auto reopened = DiskManager::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened->num_pages(), 2u);
  Page page;
  ASSERT_TRUE(reopened->ReadPage(id, &page).ok());
  EXPECT_EQ(page.ReadU32(kPageHeaderSize), 7u);
}

TEST(DiskManagerTest, CorruptedPageDetectedOnRead) {
  std::string path = TempPath("dm_corrupt.db");
  PageId id = kInvalidPageId;
  {
    auto manager = DiskManager::Create(path);
    ASSERT_TRUE(manager.ok());
    auto allocated = manager->AllocatePage();
    ASSERT_TRUE(allocated.ok());
    id = *allocated;
    Page page;
    page.Zero();
    WritePageHeader(&page, PageHeader{});
    page.WriteU32(kPageHeaderSize, 7);
    ASSERT_TRUE(manager->WritePage(id, &page).ok());
  }
  {
    // Flip a byte in the page body directly in the file.
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(id) * kPageSize + kPageHeaderSize + 100,
               SEEK_SET);
    std::fputc(0x5a, f);
    std::fclose(f);
  }
  auto manager = DiskManager::Open(path);
  ASSERT_TRUE(manager.ok());
  Page page;
  EXPECT_EQ(manager->ReadPage(id, &page).code(), StatusCode::kInternal);
}

// Pages sealed with the earlier checksum carried the magic "CHPS": a store
// of them is refused by its magic, with an error that says so, not by a
// checksum mismatch on some page.
TEST(DiskDatabaseTest, PreviousPageFormatIsRefusedByMagic) {
  GeneratedData data = MakeData(3, 500, 21);
  const std::string path = TempPath("dd_previous_format.db");
  PageId num_pages = 0;
  {
    auto created = DiskDatabase::Create(path, *data.database);
    ASSERT_TRUE(created.ok()) << created.status();
    num_pages = (*created)->disk().num_pages();
  }
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    const uint32_t previous_magic = 0x43485053;
    for (PageId id = 0; id < num_pages; ++id) {
      std::fseek(f, static_cast<long>(id) * kPageSize, SEEK_SET);
      std::fwrite(&previous_magic, sizeof(previous_magic), 1, f);
    }
    std::fclose(f);
  }
  auto reopened = DiskDatabase::Open(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(reopened.status().message().find("older version"),
            std::string::npos)
      << reopened.status();
  std::remove(path.c_str());
}

TEST(DiskManagerTest, ReadFaultInjection) {
  auto manager = DiskManager::Create(TempPath("dm_rfault.db"));
  ASSERT_TRUE(manager.ok());
  manager->set_read_fault([](PageId id) {
    return id == 0 ? InternalError("injected read fault") : OkStatus();
  });
  Page page;
  Status status = manager->ReadPage(0, &page);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(status.message(), "injected read fault");
  manager->set_read_fault(nullptr);
  EXPECT_TRUE(manager->ReadPage(0, &page).ok());
}

TEST(DiskManagerTest, WriteFaultInjection) {
  auto manager = DiskManager::Create(TempPath("dm_wfault.db"));
  ASSERT_TRUE(manager.ok());
  int writes = 0;
  manager->set_write_fault([&](PageId) {
    return ++writes > 1 ? InternalError("disk full") : OkStatus();
  });
  Page page;
  page.Zero();
  WritePageHeader(&page, PageHeader{});
  EXPECT_TRUE(manager->WritePage(0, &page).ok());
  EXPECT_EQ(manager->WritePage(0, &page).code(), StatusCode::kInternal);
}

TEST(DiskManagerTest, StatsCountIo) {
  auto manager = DiskManager::Create(TempPath("dm_stats.db"));
  ASSERT_TRUE(manager.ok());
  manager->stats().Reset();
  auto id = manager->AllocatePage();
  ASSERT_TRUE(id.ok());
  Page page;
  page.Zero();
  WritePageHeader(&page, PageHeader{});
  ASSERT_TRUE(manager->WritePage(*id, &page).ok());
  ASSERT_TRUE(manager->ReadPage(*id, &page).ok());
  ASSERT_TRUE(manager->Sync().ok());
  EXPECT_EQ(manager->stats().pages_allocated, 1u);
  EXPECT_EQ(manager->stats().pages_written, 1u);
  EXPECT_EQ(manager->stats().pages_read, 1u);
  EXPECT_EQ(manager->stats().syncs, 1u);
}

// ---------------------------------------------------------------------------
// BufferPool

TEST(BufferPoolTest, FetchHitsAfterMiss) {
  auto manager = DiskManager::Create(TempPath("bp_hits.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 4);
  {
    auto guard = pool.Fetch(0);
    ASSERT_TRUE(guard.ok());
  }
  {
    auto guard = pool.Fetch(0);
    ASSERT_TRUE(guard.ok());
  }
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictsUnpinnedPages) {
  auto manager = DiskManager::Create(TempPath("bp_evict.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 2);
  std::vector<PageId> pages;
  for (int i = 0; i < 4; ++i) {
    auto guard = pool.Allocate();
    ASSERT_TRUE(guard.ok());
    pages.push_back(guard->page_id());
  }
  // 4 pages passed through a 2-frame pool: at least 2 evictions.
  EXPECT_GE(pool.stats().evictions, 2u);
  // All pages still readable (dirty frames were written back).
  for (PageId id : pages) {
    auto guard = pool.Fetch(id);
    ASSERT_TRUE(guard.ok()) << guard.status();
  }
}

TEST(BufferPoolTest, AllFramesPinnedIsResourceExhausted) {
  auto manager = DiskManager::Create(TempPath("bp_pinned.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 2);
  auto g1 = pool.Allocate();
  ASSERT_TRUE(g1.ok());
  auto g2 = pool.Allocate();
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(pool.pinned_frames(), 2u);
  auto g3 = pool.Allocate();
  EXPECT_EQ(g3.status().code(), StatusCode::kResourceExhausted);
}

TEST(BufferPoolTest, GuardReleaseUnpins) {
  auto manager = DiskManager::Create(TempPath("bp_release.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 1);
  auto g1 = pool.Fetch(0);
  ASSERT_TRUE(g1.ok());
  g1->Release();
  EXPECT_EQ(pool.pinned_frames(), 0u);
  auto g2 = pool.Allocate();  // needs the single frame back
  EXPECT_TRUE(g2.ok());
}

TEST(BufferPoolTest, DirtyPagesReachDiskOnFlush) {
  std::string path = TempPath("bp_flush.db");
  PageId id = kInvalidPageId;
  {
    auto manager = DiskManager::Create(path);
    ASSERT_TRUE(manager.ok());
    BufferPool pool(&manager.value(), 4);
    auto guard = pool.Allocate();
    ASSERT_TRUE(guard.ok());
    id = guard->page_id();
    Page& page = guard->MutablePage();
    WritePageHeader(&page, PageHeader{});
    page.WriteU32(kPageHeaderSize, 321);
    guard->Release();
    ASSERT_TRUE(pool.Flush().ok());
  }
  auto reopened = DiskManager::Open(path);
  ASSERT_TRUE(reopened.ok());
  Page page;
  ASSERT_TRUE(reopened->ReadPage(id, &page).ok());
  EXPECT_EQ(page.ReadU32(kPageHeaderSize), 321u);
}

// ---------------------------------------------------------------------------
// BufferPool under eviction and concurrency

TEST(BufferPoolTest, RoundTripsPagesThroughEviction) {
  auto manager = DiskManager::Create(TempPath("bps_roundtrip.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 8);
  std::vector<PageId> pages;
  for (uint32_t i = 0; i < 64; ++i) {
    auto guard = pool.Allocate();
    ASSERT_TRUE(guard.ok()) << guard.status();
    Page& page = guard->MutablePage();
    WritePageHeader(&page, PageHeader{});
    page.WriteU32(kPageHeaderSize, 1000 + i);
    pages.push_back(guard->page_id());
  }
  // 64 pages through 8 frames: evictions with dirty write-back happened.
  EXPECT_GT(pool.stats().evictions, 0u);
  EXPECT_GT(pool.stats().dirty_writebacks, 0u);
  for (uint32_t i = 0; i < pages.size(); ++i) {
    auto guard = pool.Fetch(pages[i]);
    ASSERT_TRUE(guard.ok()) << guard.status();
    EXPECT_EQ(guard->page().ReadU32(kPageHeaderSize), 1000 + i);
  }
}

// The pool-stress suite: more worker threads than frames hammering Fetch
// while reader threads poll the aggregated pool and disk counters (the
// metering path DiskShapeSource::Io takes mid-scan). Run under TSan in CI.
TEST(BufferPoolTest, StressMoreThreadsThanFrames) {
  auto manager = DiskManager::Create(TempPath("bps_stress.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 4);

  std::vector<PageId> pages;
  for (uint32_t i = 0; i < 32; ++i) {
    auto guard = pool.Allocate();
    ASSERT_TRUE(guard.ok());
    Page& page = guard->MutablePage();
    WritePageHeader(&page, PageHeader{});
    page.WriteU32(kPageHeaderSize, 7000 + i);
    pages.push_back(guard->page_id());
  }

  constexpr unsigned kWorkers = 8;  // twice the frame count
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> verified{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      uint64_t state = 0x9e3779b97f4a7c15ULL * (t + 1);
      for (int iter = 0; iter < 400; ++iter) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const uint32_t i = static_cast<uint32_t>((state >> 33) %
                                                 pages.size());
        auto guard = pool.Fetch(pages[i]);
        if (!guard.ok()) {
          // With more pins in flight than frames, exhaustion is legitimate
          // back-pressure; anything else is a bug.
          if (guard.status().code() != StatusCode::kResourceExhausted) {
            ++failures;
            return;
          }
          continue;
        }
        if (guard->page().ReadU32(kPageHeaderSize) != 7000 + i) {
          ++failures;
          return;
        }
        ++verified;
      }
    });
  }
  // Concurrent metering readers: read the counters while the workers
  // mutate them under the pool latch.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t sink = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const BufferPoolStats stats = pool.stats();
        sink += stats.hits + stats.misses + stats.evictions;
        sink += pool.disk().stats().pages_read.load(
            std::memory_order_relaxed);
        sink += pool.pinned_frames();
      }
      EXPECT_GE(sink, 0u);
    });
  }
  for (std::thread& worker : threads) worker.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(verified.load(), 0u);
  const BufferPoolStats stats = pool.stats();
  EXPECT_EQ(pool.pinned_frames(), 0u);
  EXPECT_GE(stats.hits + stats.misses, verified.load());
}

// ---------------------------------------------------------------------------
// DiskShapeSource

// Cold-pool scans must return the memory scan's shape(D) and tuple count at
// every thread count. Each 20,000-row relation is split into several
// chunks at threads > 1, so ranged chunks seek through the page directory
// while the chunk at row 0 walks from the chain head.
TEST(DiskShapeSourceTest, ColdPoolChunkedScanMatchesMemory) {
  // Relations several times larger than the pool, so pages cannot stay
  // resident between the directory build and the scan — every page is a
  // real fault.
  GeneratedData data = MakeData(3, 20000, 77);
  storage::Catalog catalog(data.database.get());
  const std::vector<Shape> expected = MemoryScanShapes(catalog);

  const std::string path = TempPath("cold_chunked_scan.db");
  ASSERT_TRUE(DiskDatabase::Create(path, *data.database).ok());
  for (unsigned threads : {1u, 4u, 8u}) {
    // Fresh open per run: the pool starts cold.
    auto disk_db = DiskDatabase::Open(path, /*num_frames=*/32);
    ASSERT_TRUE(disk_db.ok()) << disk_db.status();
    DiskShapeSource source(disk_db->get());
    auto shapes = storage::FindShapes(
        source, {storage::ShapeFinderMode::kScan, threads});
    ASSERT_TRUE(shapes.ok()) << shapes.status();
    EXPECT_EQ(*shapes, expected) << "threads " << threads;
    EXPECT_EQ(source.stats().tuples_scanned, data.database->TotalFacts());
  }
  std::remove(path.c_str());
}

// A scan worker pins at most one page at a time, so a pool of exactly
// `threads` frames carries a `threads`-worker scan: the sizing contract
// behind chasectl's disk pools (max(64, threads) frames). A worker holding
// a second pin would leave every frame pinned and fail the scan with
// kResourceExhausted once the pin wait runs out.
TEST(DiskShapeSourceTest, PoolOfOneFramePerWorkerCarriesParallelScan) {
  GeneratedData data = MakeData(3, 20000, 78);
  storage::Catalog catalog(data.database.get());
  const std::vector<Shape> expected = MemoryScanShapes(catalog);

  const std::string path = TempPath("one_frame_per_worker.db");
  ASSERT_TRUE(DiskDatabase::Create(path, *data.database).ok());
  constexpr unsigned kThreads = 4;
  auto disk_db = DiskDatabase::Open(path, /*num_frames=*/kThreads);
  ASSERT_TRUE(disk_db.ok()) << disk_db.status();
  DiskShapeSource source(disk_db->get());
  auto shapes = storage::FindShapes(
      source, {storage::ShapeFinderMode::kScan, kThreads});
  ASSERT_TRUE(shapes.ok()) << shapes.status();
  EXPECT_EQ(*shapes, expected);
  EXPECT_EQ(source.stats().tuples_scanned, data.database->TotalFacts());
  EXPECT_EQ((*disk_db)->buffer_pool().pinned_frames(), 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// HeapFile

TEST(HeapFileTest, TuplesPerPageLeavesRoomForHeader) {
  EXPECT_EQ(HeapFile::TuplesPerPage(1), (kPageSize - kPageHeaderSize) / 4);
  EXPECT_EQ(HeapFile::TuplesPerPage(5), (kPageSize - kPageHeaderSize) / 20);
  EXPECT_GT(HeapFile::TuplesPerPage(11), 0u);
}

TEST(HeapFileTest, ZeroArityRejected) {
  auto manager = DiskManager::Create(TempPath("hf_zero.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 4);
  auto heap = HeapFile::Create(&pool, 0);
  EXPECT_EQ(heap.status().code(), StatusCode::kInvalidArgument);
}

TEST(HeapFileTest, AppendScanRoundTripAcrossPages) {
  auto manager = DiskManager::Create(TempPath("hf_roundtrip.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 4);
  auto heap = HeapFile::Create(&pool, 3);
  ASSERT_TRUE(heap.ok());

  // Enough tuples to span several pages.
  const uint32_t n = 3 * HeapFile::TuplesPerPage(3) + 17;
  for (uint32_t i = 0; i < n; ++i) {
    std::vector<uint32_t> tuple = {i, i * 2, i * 3};
    ASSERT_TRUE(heap->Append(tuple).ok());
  }
  EXPECT_EQ(heap->num_tuples(), n);

  uint32_t seen = 0;
  uint32_t runs = 0;
  ASSERT_TRUE(heap->Scan([&](storage::TupleRun run) {
                    EXPECT_EQ(run.arity, 3u);
                    // One run per page: every page but the tail is full.
                    EXPECT_LE(run.rows(), HeapFile::TuplesPerPage(3));
                    for (size_t i = 0; i < run.rows(); ++i) {
                      const auto tuple = run.row(i);
                      EXPECT_EQ(tuple[0], seen);
                      EXPECT_EQ(tuple[1], seen * 2);
                      EXPECT_EQ(tuple[2], seen * 3);
                      ++seen;
                    }
                    ++runs;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen, n);
  EXPECT_EQ(runs, 4u);
}

TEST(HeapFileTest, ScanStopsEarly) {
  auto manager = DiskManager::Create(TempPath("hf_early.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 4);
  auto heap = HeapFile::Create(&pool, 1);
  ASSERT_TRUE(heap.ok());
  // Five pages' worth of tuples: one run per page, and the visitor stops
  // the scan on the second run.
  const uint32_t per_page = HeapFile::TuplesPerPage(1);
  for (uint32_t i = 0; i < 5 * per_page; ++i) {
    std::vector<uint32_t> tuple = {i};
    ASSERT_TRUE(heap->Append(tuple).ok());
  }
  uint32_t runs = 0;
  uint64_t seen = 0;
  ASSERT_TRUE(heap->Scan([&](storage::TupleRun run) {
                    EXPECT_EQ(run.row(0)[0], seen);
                    seen += run.rows();
                    return ++runs < 2;
                  })
                  .ok());
  EXPECT_EQ(runs, 2u);
  EXPECT_EQ(seen, 2u * per_page);
}

TEST(HeapFileTest, WrongWidthRejected) {
  auto manager = DiskManager::Create(TempPath("hf_width.db"));
  ASSERT_TRUE(manager.ok());
  BufferPool pool(&manager.value(), 4);
  auto heap = HeapFile::Create(&pool, 2);
  ASSERT_TRUE(heap.ok());
  std::vector<uint32_t> tuple = {1, 2, 3};
  EXPECT_EQ(heap->Append(tuple).code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// DiskDatabase

bool SameContents(const Database& a, const Database& b) {
  if (a.schema().NumPredicates() != b.schema().NumPredicates()) return false;
  for (PredId pred = 0; pred < a.schema().NumPredicates(); ++pred) {
    auto ta = a.Tuples(pred);
    auto tb = b.Tuples(pred);
    if (!std::equal(ta.begin(), ta.end(), tb.begin(), tb.end())) return false;
  }
  return true;
}

TEST(DiskDatabaseTest, CreateOpenToDatabaseRoundTrip) {
  GeneratedData data = MakeData(8, 200, 42);
  std::string path = TempPath("dd_roundtrip.db");
  {
    auto disk_db = DiskDatabase::Create(path, *data.database);
    ASSERT_TRUE(disk_db.ok()) << disk_db.status();
    EXPECT_EQ((*disk_db)->TotalTuples(), data.database->TotalFacts());
  }
  auto reopened = DiskDatabase::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->schema().NumPredicates(),
            data.schema->NumPredicates());
  auto loaded = (*reopened)->ToDatabase();
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(SameContents(*data.database, *loaded));
}

TEST(DiskDatabaseTest, NamedConstantsSurviveReopen) {
  Schema schema;
  auto pred = schema.AddPredicate("r", 2);
  ASSERT_TRUE(pred.ok());
  Database db(&schema);
  uint32_t alice = db.InternConstant("alice");
  uint32_t bob = db.InternConstant("bob");
  std::vector<uint32_t> tuple = {alice, bob};
  ASSERT_TRUE(db.AddFact(*pred, tuple).ok());

  std::string path = TempPath("dd_names.db");
  ASSERT_TRUE(DiskDatabase::Create(path, db).ok());
  auto reopened = DiskDatabase::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->ConstantName(alice), "alice");
  EXPECT_EQ((*reopened)->ConstantName(bob), "bob");
}

TEST(DiskDatabaseTest, NonEmptyPredicatesMatchesInMemory) {
  GeneratedData data = MakeData(6, 10, 7);
  // Add one empty predicate.
  auto empty = data.schema->AddPredicate("always_empty", 2);
  ASSERT_TRUE(empty.ok());
  std::string path = TempPath("dd_nonempty.db");
  auto disk_db = DiskDatabase::Create(path, *data.database);
  ASSERT_TRUE(disk_db.ok());
  EXPECT_EQ((*disk_db)->NonEmptyPredicates(),
            data.database->NonEmptyPredicates());
}

TEST(DiskDatabaseTest, AppendThenSaveCatalogPersists) {
  GeneratedData data = MakeData(3, 5, 11);
  std::string path = TempPath("dd_append.db");
  uint64_t before = 0;
  {
    auto disk_db = DiskDatabase::Create(path, *data.database);
    ASSERT_TRUE(disk_db.ok());
    before = (*disk_db)->TotalTuples();
    const uint32_t arity = (*disk_db)->schema().Arity(0);
    std::vector<uint32_t> tuple(arity, 9);
    ASSERT_TRUE((*disk_db)->Append(0, tuple).ok());
    ASSERT_TRUE((*disk_db)->SaveCatalog().ok());
  }
  auto reopened = DiskDatabase::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->TotalTuples(), before + 1);
}

TEST(DiskDatabaseTest, LargeCatalogSpansMultiplePages) {
  // Enough predicates with long names that the serialized catalog exceeds
  // one page.
  Schema schema;
  Database db(&schema);
  const int preds = 600;
  for (int i = 0; i < preds; ++i) {
    std::string name = "very_long_predicate_name_for_catalog_overflow_" +
                       std::to_string(i);
    auto pred = schema.AddPredicate(name, 2);
    ASSERT_TRUE(pred.ok());
    std::vector<uint32_t> tuple = {static_cast<uint32_t>(i),
                                   static_cast<uint32_t>(i + 1)};
    ASSERT_TRUE(db.AddFact(*pred, tuple).ok());
  }
  std::string path = TempPath("dd_bigcat.db");
  ASSERT_TRUE(DiskDatabase::Create(path, db).ok());
  auto reopened = DiskDatabase::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ((*reopened)->schema().NumPredicates(), schema.NumPredicates());
  EXPECT_EQ((*reopened)->TotalTuples(), static_cast<uint64_t>(preds));
}

TEST(DiskDatabaseTest, ScanReadFaultPropagates) {
  GeneratedData data = MakeData(2, 2000, 13);
  std::string path = TempPath("dd_fault.db");
  auto disk_db = DiskDatabase::Create(path, *data.database, /*num_frames=*/2);
  ASSERT_TRUE(disk_db.ok());
  (*disk_db)->disk().set_read_fault(
      [](PageId) { return InternalError("injected"); });
  PredId pred = (*disk_db)->NonEmptyPredicates().front();
  Status status =
      (*disk_db)->Scan(pred, [](storage::TupleRun) { return true; });
  // The relation is large and the pool tiny, so the scan must hit the disk
  // and observe the fault.
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

// ---------------------------------------------------------------------------
// Disk shape finders agree with the in-memory implementations.

class DiskShapeFinderTest : public testing::TestWithParam<uint64_t> {};

TEST_P(DiskShapeFinderTest, AgreesWithRowStoreFinders) {
  GeneratedData data = MakeData(5, 60, GetParam());
  std::string path = TempPath("dsf_" + std::to_string(GetParam()) + ".db");
  auto disk_db = DiskDatabase::Create(path, *data.database, /*num_frames=*/8);
  ASSERT_TRUE(disk_db.ok());

  storage::Catalog catalog(data.database.get());
  std::vector<Shape> expected = MemoryScanShapes(catalog);

  auto scan = DiskShapes(**disk_db, storage::ShapeFinderMode::kScan);
  ASSERT_TRUE(scan.ok()) << scan.status();
  EXPECT_EQ(*scan, expected);

  auto exists = DiskShapes(**disk_db, storage::ShapeFinderMode::kExists);
  ASSERT_TRUE(exists.ok()) << exists.status();
  EXPECT_EQ(*exists, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiskShapeFinderTest,
                         testing::Values(1, 2, 3, 4, 5, 101, 202, 303));

// Measures page reads of both finders on a relation built by `fill`.
std::pair<uint64_t, uint64_t> MeasureFinderReads(const Database& db,
                                                 const std::string& path) {
  auto disk_db = DiskDatabase::Create(path, db, /*num_frames=*/4);
  EXPECT_TRUE(disk_db.ok());

  (*disk_db)->disk().stats().Reset();
  auto scan = DiskShapes(**disk_db, storage::ShapeFinderMode::kScan);
  EXPECT_TRUE(scan.ok());
  uint64_t scan_reads = (*disk_db)->disk().stats().pages_read;

  (*disk_db)->disk().stats().Reset();
  auto exists = DiskShapes(**disk_db, storage::ShapeFinderMode::kExists);
  EXPECT_TRUE(exists.ok());
  uint64_t exists_reads = (*disk_db)->disk().stats().pages_read;

  EXPECT_EQ(*scan, *exists);
  return {scan_reads, exists_reads};
}

TEST(DiskShapeFinderTest, ExistsModeWinsWhenAllShapesAppearEarly) {
  // Both shapes of the arity-2 relation occur within the first page, so
  // every exists query (relaxed and full) early-exits there, while the scan
  // mode must read the whole heap chain.
  Schema schema;
  auto pred = schema.AddPredicate("r", 2);
  ASSERT_TRUE(pred.ok());
  Database db(&schema);
  db.EnsureAnonymousDomain(10000);
  for (uint32_t i = 0; i < 5000; ++i) {
    std::vector<uint32_t> tuple =
        i % 2 == 0 ? std::vector<uint32_t>{i, i}          // shape (1,1)
                   : std::vector<uint32_t>{i, i + 1};      // shape (1,2)
    ASSERT_TRUE(db.AddFact(*pred, tuple).ok());
  }
  auto [scan_reads, exists_reads] =
      MeasureFinderReads(db, TempPath("dsf_early.db"));
  EXPECT_LT(exists_reads, scan_reads);
}

TEST(DiskShapeFinderTest, ExistsModeLosesWhenQueriesComeUpEmpty) {
  // Every tuple has shape (1,1,2): the queries for absent shapes (and the
  // failing relaxed queries that would prune them) must scan the entire
  // relation once each, so exists mode reads more pages than one scan. This
  // is the regime where the paper prefers the in-memory implementation.
  Schema schema;
  auto pred = schema.AddPredicate("r", 3);
  ASSERT_TRUE(pred.ok());
  Database db(&schema);
  db.EnsureAnonymousDomain(10000);
  for (uint32_t i = 0; i < 5000; ++i) {
    std::vector<uint32_t> tuple = {i, i, i + 1};
    ASSERT_TRUE(db.AddFact(*pred, tuple).ok());
  }
  auto [scan_reads, exists_reads] =
      MeasureFinderReads(db, TempPath("dsf_empty.db"));
  EXPECT_GT(exists_reads, scan_reads);
}

}  // namespace
}  // namespace pager
}  // namespace chase
