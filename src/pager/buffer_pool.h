// BufferPool: a fixed set of in-memory frames caching disk pages, with
// clock (second-chance) eviction, pin counting, and dirty-page write-back.
//
// The pool is the single path between the disk-resident algorithms and the
// DiskManager, so its hit/miss/eviction counters — together with the
// DiskManager's page I/O counters — fully account for the cost of the
// on-disk FindShapes variants. Pages are pinned through the RAII PageGuard;
// a pinned page is never evicted. Fetch/Allocate briefly wait out a pool
// whose frames are all pinned (pins are transient in scan workloads) and
// report kResourceExhausted only if it stays full — e.g. when guards are
// held indefinitely.
//
// Concurrency: one latch guards the page table, the frame bookkeeping, the
// clock hand and the counters. A miss reads its page outside the latch, so
// concurrent faults overlap their I/O. Reading a pinned page's payload
// needs no lock (a pinned page is never evicted, and read-only scans never
// mutate it). A parallel scan worker pins at most one page at a time, so
// a pool of at least `threads` frames never runs out of frames mid-scan.

#ifndef CHASE_PAGER_BUFFER_POOL_H_
#define CHASE_PAGER_BUFFER_POOL_H_

#include <cstdint>
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

  // Payload reads go through the frame vector without the pool latch: the
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
  uint32_t frame_ = 0;
};

class BufferPool {
 public:
  // `disk` must outlive the pool. `num_frames` >= 1.
  BufferPool(DiskManager* disk, uint32_t num_frames);

  // Pins the page, reading it from disk on a miss. Miss reads are staged
  // outside the latch so concurrent faults overlap their I/O. Contract:
  // Fetch must not race with a writer of the same page. The unlatched read
  // cannot tell a concurrent mutate+evict apart from the quiescent case and
  // would install the pre-write image as a clean frame. Write phases and scan phases alternate in every current
  // deployment; a writer-concurrent one needs page versioning here.
  [[nodiscard]] StatusOr<PageGuard> Fetch(PageId page_id);

  // Allocates a fresh page on disk and pins it (already counted dirty so the
  // header written by the caller reaches disk).
  [[nodiscard]] StatusOr<PageGuard> Allocate();

  // Writes back all dirty frames and syncs the file.
  [[nodiscard]] Status Flush();

  uint32_t num_frames() const { return num_frames_; }
  uint32_t pinned_frames() const;

  // The counters, read under the latch (race-free while scans run).
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

  // Shared Fetch/Allocate scaffold: waits out transient pin-exhaustion
  // with a bounded yield-retry, calling `check_hit` (latch held; may
  // short-circuit with an already-resident frame) and, once a frame is
  // free, `install` (latch held).
  template <typename CheckHit, typename Install>
  [[nodiscard]]
  StatusOr<PageGuard> AcquireAndInstall(CheckHit&& check_hit,
                                        Install&& install);

  // Finds a free or evictable frame, writing back a dirty victim.
  [[nodiscard]] StatusOr<uint32_t> AcquireFrame() REQUIRES(mu_);

  void Unpin(uint32_t frame);
  void MarkDirty(uint32_t frame);

  DiskManager* disk_;
  const uint32_t num_frames_;
  // Guards the page table, frame bookkeeping, and counters. Pinned frames'
  // page payloads are read outside the latch (see PageGuard::page).
  mutable Mutex mu_;
  std::vector<Frame> frames_ GUARDED_BY(mu_);
  // Frames fill in index order and eviction re-points a frame in place,
  // so the never-used frames are exactly frames_[used_, num_frames_).
  uint32_t used_ GUARDED_BY(mu_) = 0;
  std::unordered_map<PageId, uint32_t> page_table_ GUARDED_BY(mu_);
  uint32_t clock_hand_ GUARDED_BY(mu_) = 0;
  BufferPoolStats stats_ GUARDED_BY(mu_);
};

}  // namespace pager
}  // namespace chase

#endif  // CHASE_PAGER_BUFFER_POOL_H_
