// BufferPool: a fixed set of in-memory frames caching disk pages, with
// clock (second-chance) eviction, pin counting, and dirty-page write-back.
//
// The pool is the single path between the disk-resident algorithms and the
// DiskManager, so its hit/miss/eviction counters — together with the
// DiskManager's page I/O counters — fully account for the cost of the
// on-disk FindShapes variants. Pages are pinned through the RAII PageGuard;
// a pinned page is never evicted. Fetch/Allocate briefly wait out a shard
// whose frames are all pinned (pins are transient in scan workloads) and
// report kResourceExhausted only if it stays full — e.g. when guards are
// held indefinitely.
//
// Concurrency: the pool is partitioned into N shards (page id → shard by a
// mixed hash), each with its own latch, page table, frame set, clock hand,
// and counters, so parallel disk scans touching different pages contend on
// different latches instead of one global mutex. Reading a pinned page's
// payload needs no lock (a pinned page is never evicted, and read-only
// scans never mutate it). Frames are divided evenly across shards; a shard
// whose frames are all pinned reports kResourceExhausted even if another
// shard has free frames — size pools with at least a few frames per shard.

#ifndef CHASE_PAGER_BUFFER_POOL_H_
#define CHASE_PAGER_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/sync.h"
#include "pager/disk_manager.h"
#include "pager/page.h"

namespace chase {
namespace pager {

struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;

  void Reset() { *this = BufferPoolStats(); }

  BufferPoolStats& MergeFrom(const BufferPoolStats& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    dirty_writebacks += other.dirty_writebacks;
    return *this;
  }
};

class BufferPool;

// Pins one page for the guard's lifetime. Mark dirty before mutating the
// payload; the pool writes dirty frames back on eviction and on Flush.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept;
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  bool valid() const { return pool_ != nullptr; }
  PageId page_id() const { return page_id_; }

  // Payload reads go through the frame vector without the shard latch: the
  // guard's pin is the invariant that replaces it (a pinned frame is never
  // evicted or re-pointed), which the analysis cannot express.
  const Page& page() const NO_THREAD_SAFETY_ANALYSIS;
  Page& MutablePage() NO_THREAD_SAFETY_ANALYSIS;  // marks the frame dirty

  void Release();

 private:
  friend class BufferPool;
  PageGuard(BufferPool* pool, PageId page_id, uint32_t frame)
      : pool_(pool), page_id_(page_id), frame_(frame) {}

  BufferPool* pool_ = nullptr;
  PageId page_id_ = kInvalidPageId;
  uint32_t frame_ = 0;  // slot within the page's shard
};

class BufferPool {
 public:
  // Default shard count for pools large enough to split (see the
  // constructor); small pools stay single-sharded so per-shard capacity
  // semantics match the unsharded pool.
  static constexpr uint32_t kDefaultShards = 8;
  // Auto-sharding keeps at least this many frames per shard.
  static constexpr uint32_t kMinFramesPerShard = 8;

  // `disk` must outlive the pool. `num_frames` >= 1. `num_shards` = 0 picks
  // min(kDefaultShards, num_frames / kMinFramesPerShard) (at least 1);
  // explicit counts are clamped to [1, num_frames].
  BufferPool(DiskManager* disk, uint32_t num_frames, uint32_t num_shards = 0);

  // Pins the page, reading it from disk on a miss. Miss reads are staged
  // outside the shard latch so concurrent faults on one shard overlap
  // their I/O. Contract: Fetch must not race with a writer of the same
  // page. The unlatched read cannot tell a concurrent mutate+evict apart
  // from the quiescent case and would install the pre-write image as a
  // clean frame. Write phases and scan phases alternate in every current
  // deployment; a writer-concurrent one needs page versioning here.
  [[nodiscard]] StatusOr<PageGuard> Fetch(PageId page_id);

  // Allocates a fresh page on disk and pins it (already counted dirty so the
  // header written by the caller reaches disk).
  [[nodiscard]] StatusOr<PageGuard> Allocate();

  // Writes back all dirty frames and syncs the file.
  [[nodiscard]] Status Flush();

  uint32_t num_frames() const { return num_frames_; }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  uint32_t pinned_frames() const;

  // Aggregated counters across shards; each shard is read under its latch,
  // so the snapshot is race-free (though shards are not frozen relative to
  // one another while scans run).
  BufferPoolStats stats() const;
  void ResetStats();

  DiskManager& disk() { return *disk_; }

 private:
  friend class PageGuard;

  struct Frame {
    Page page;
    PageId page_id = kInvalidPageId;
    uint32_t pin_count = 0;
    bool dirty = false;
    bool referenced = false;
  };

  struct Shard {
    // Guards the shard's page table, frame bookkeeping, and counters.
    // Pinned frames' page payloads are read outside the latch (see
    // PageGuard::page).
    mutable Mutex mu;
    std::vector<Frame> frames GUARDED_BY(mu);
    std::unordered_map<PageId, uint32_t> page_table GUARDED_BY(mu);
    uint32_t clock_hand GUARDED_BY(mu) = 0;
    BufferPoolStats stats GUARDED_BY(mu);
  };

  size_t ShardOf(PageId page_id) const;

  // Shared Fetch/Allocate scaffold: waits out transient pin-exhaustion of
  // `shard` with a bounded yield-retry, calling `check_hit` (latch held;
  // may short-circuit with an already-resident frame) and, once a frame
  // is free, `install` (latch held).
  template <typename CheckHit, typename Install>
  [[nodiscard]]
  StatusOr<PageGuard> AcquireAndInstall(Shard& shard, CheckHit&& check_hit,
                                        Install&& install);

  // Finds a free or evictable frame in `shard`, writing back a dirty
  // victim.
  [[nodiscard]]
  StatusOr<uint32_t> AcquireFrame(Shard* shard) REQUIRES(shard->mu);

  void Unpin(PageId page_id, uint32_t frame);
  void MarkDirty(PageId page_id, uint32_t frame);

  DiskManager* disk_;
  uint32_t num_frames_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace pager
}  // namespace chase

#endif  // CHASE_PAGER_BUFFER_POOL_H_
