#include "pager/buffer_pool.h"

#include <cassert>
#include <thread>
#include <utility>

#include "base/status.h"
#include "base/sync.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pager/disk_manager.h"
#include "pager/page.h"

namespace chase {
namespace pager {
namespace {

// Mirrors of the pool's hit/miss stats in the metrics registry, so a
// `--metrics` dump sees pool traffic without polling stats(). Gated and
// cached: disabled runs pay one relaxed load, enabled runs one sharded
// relaxed fetch_add on a pointer resolved once per process.
void CountPoolHit() {
  if (!obs::MetricsRegistry::enabled()) return;
  static obs::Counter* const hits =
      obs::MetricsRegistry::Get().GetCounter("pager.pool_hits");
  hits->Add(1);
}

void CountPoolMiss() {
  if (!obs::MetricsRegistry::enabled()) return;
  static obs::Counter* const misses =
      obs::MetricsRegistry::Get().GetCounter("pager.pool_misses");
  misses->Add(1);
}

}  // namespace

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = std::exchange(other.pool_, nullptr);
    page_id_ = other.page_id_;
    frame_ = other.frame_;
  }
  return *this;
}

const Page& PageGuard::page() const {
  assert(valid());
  return pool_->frames_[frame_].page;
}

Page& PageGuard::MutablePage() {
  assert(valid());
  pool_->MarkDirty(frame_);
  return pool_->frames_[frame_].page;
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, uint32_t num_frames)
    : disk_(disk), num_frames_(num_frames), frames_(num_frames) {
  assert(num_frames >= 1);
}

namespace {

// Pins are transient in scan workloads (one page per worker, released
// before the next fetch), so a pool with every frame pinned usually frees
// up within microseconds. Fetch/Allocate wait it out with a bounded
// yield-retry before surfacing kResourceExhausted, so concurrency briefly
// exceeding the frame count (e.g. more scan workers than frames) degrades
// to a short stall instead of a probabilistic hard failure; a genuinely
// stuck pool (every frame pinned indefinitely) still errors out.
constexpr int kPinWaitRetries = 256;

}  // namespace

template <typename CheckHit, typename Install>
StatusOr<PageGuard> BufferPool::AcquireAndInstall(CheckHit&& check_hit,
                                                  Install&& install) {
  for (int attempt = 0;; ++attempt) {
    {
      MutexLock lock(mu_);
      if (std::optional<PageGuard> hit = check_hit()) {
        return std::move(*hit);
      }
      StatusOr<uint32_t> slot = AcquireFrame();
      if (slot.ok()) return install(*slot);
      if (slot.status().code() != StatusCode::kResourceExhausted ||
          attempt >= kPinWaitRetries) {
        return slot.status();
      }
    }
    std::this_thread::yield();
  }
}

StatusOr<PageGuard> BufferPool::Fetch(PageId page_id) {
  {
    MutexLock lock(mu_);
    auto it = page_table_.find(page_id);
    if (it != page_table_.end()) {
      Frame& frame = frames_[it->second];
      ++frame.pin_count;
      frame.referenced = true;
      ++stats_.hits;
      CountPoolHit();
      return PageGuard(this, page_id, it->second);
    }
    // Counted here, exactly once per logical fetch — if a peer installs
    // the page while we stage the read below, that is still this fetch's
    // miss, not an extra hit.
    ++stats_.misses;
  }
  CountPoolMiss();
  // Miss: read outside the latch, so concurrent faults on different pages
  // overlap their I/O instead of serializing behind the latch.
  obs::TraceSpan fault_span("pager", "fault", "page",
                            static_cast<int64_t>(page_id));
  Page staged;
  CHASE_RETURN_IF_ERROR(disk_->ReadPage(page_id, &staged));
  // Both callbacks run with mu_ held by AcquireAndInstall; the analysis
  // cannot follow the capability through the indirect call, hence the
  // per-lambda opt-outs.
  return AcquireAndInstall(
      [&]() NO_THREAD_SAFETY_ANALYSIS -> std::optional<PageGuard> {
        auto it = page_table_.find(page_id);
        if (it == page_table_.end()) return std::nullopt;
        // A peer fetch won the race; the staged read is
        // wasted, the resident frame is the one to pin.
        Frame& frame = frames_[it->second];
        ++frame.pin_count;
        frame.referenced = true;
        return PageGuard(this, page_id, it->second);
      },
      [&](uint32_t slot) NO_THREAD_SAFETY_ANALYSIS -> StatusOr<PageGuard> {
        Frame& frame = frames_[slot];
        frame.page = staged;
        frame.page_id = page_id;
        frame.pin_count = 1;
        frame.dirty = false;
        frame.referenced = true;
        page_table_[page_id] = slot;
        return PageGuard(this, page_id, slot);
      });
}

StatusOr<PageGuard> BufferPool::Allocate() {
  // The page is allocated on disk before a frame is found. If every frame
  // stays pinned past the retry budget, the already-extended file keeps one
  // zeroed page that is never linked into a chain — harmless (unreachable,
  // verifies as unsealed) and only reachable through a failure path that
  // aborts the caller's operation anyway.
  CHASE_ASSIGN_OR_RETURN(PageId page_id, disk_->AllocatePage());
  // The install callback runs with mu_ held by AcquireAndInstall (see the
  // note in Fetch).
  return AcquireAndInstall(
      [] { return std::optional<PageGuard>(); },
      [&](uint32_t slot) NO_THREAD_SAFETY_ANALYSIS -> StatusOr<PageGuard> {
        Frame& frame = frames_[slot];
        frame.page.Zero();
        // Stamp a default header so the page verifies even if the caller
        // never writes one before the frame is evicted.
        WritePageHeader(&frame.page, PageHeader{});
        frame.page_id = page_id;
        frame.pin_count = 1;
        frame.dirty = true;
        frame.referenced = true;
        page_table_[page_id] = slot;
        return PageGuard(this, page_id, slot);
      });
}

Status BufferPool::Flush() {
  {
    MutexLock lock(mu_);
    for (uint32_t slot = 0; slot < used_; ++slot) {
      Frame& frame = frames_[slot];
      if (frame.dirty) {
        CHASE_RETURN_IF_ERROR(disk_->WritePage(frame.page_id, &frame.page));
        frame.dirty = false;
        ++stats_.dirty_writebacks;
      }
    }
  }
  return disk_->Sync();
}

uint32_t BufferPool::pinned_frames() const {
  MutexLock lock(mu_);
  uint32_t pinned = 0;
  for (uint32_t slot = 0; slot < used_; ++slot) {
    if (frames_[slot].pin_count > 0) ++pinned;
  }
  return pinned;
}

BufferPoolStats BufferPool::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void BufferPool::ResetStats() {
  MutexLock lock(mu_);
  stats_.Reset();
}

StatusOr<uint32_t> BufferPool::AcquireFrame() {
  // A never-used frame first: O(1), since those are the suffix from used_.
  if (used_ < num_frames_) return used_++;
  // Clock sweep: two full passes guarantee a victim is found if any frame is
  // unpinned (the first pass may only clear reference bits).
  for (uint32_t step = 0; step < 2 * num_frames_; ++step) {
    uint32_t slot = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % num_frames_;
    Frame& frame = frames_[slot];
    if (frame.pin_count > 0) continue;
    if (frame.referenced) {
      frame.referenced = false;
      continue;
    }
    if (frame.dirty) {
      CHASE_RETURN_IF_ERROR(disk_->WritePage(frame.page_id, &frame.page));
      ++stats_.dirty_writebacks;
    }
    page_table_.erase(frame.page_id);
    frame.page_id = kInvalidPageId;
    frame.dirty = false;
    ++stats_.evictions;
    return slot;
  }
  return ResourceExhaustedError("all buffer-pool frames are pinned");
}

void BufferPool::Unpin(uint32_t frame) {
  MutexLock lock(mu_);
  assert(frames_[frame].pin_count > 0);
  --frames_[frame].pin_count;
}

void BufferPool::MarkDirty(uint32_t frame) {
  MutexLock lock(mu_);
  frames_[frame].dirty = true;
}

}  // namespace pager
}  // namespace chase
