// DiskManager: page-granular file I/O with metered access and injectable
// faults.
//
// All reads and writes go through this class, so the I/O counters give an
// exact page-level cost model for the disk-resident FindShapes variants, and
// the fault hooks let tests exercise every error path (short read, failed
// write, checksum mismatch) without a real failing disk.
//
// The manager is thread-safe and lock-free on the data path: reads and
// writes use positional I/O (pread/pwrite), which POSIX makes atomic with
// respect to the file offset, so the buffer pool's concurrent misses issue
// page I/O in parallel without serializing on a file lock.
// Only AllocatePage (file extension) takes a mutex. The I/O counters are
// atomics, so they can be read (e.g. by DiskShapeSource::Io) while scans
// are in flight. The fault hooks themselves are test-only and must be set
// before concurrent use.

#ifndef CHASE_PAGER_DISK_MANAGER_H_
#define CHASE_PAGER_DISK_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "base/status.h"
#include "base/sync.h"
#include "pager/page.h"

namespace chase {
namespace pager {

// Cumulative I/O counters. Fields are atomics so writers (concurrent page
// I/O) and readers (metering snapshots taken mid-scan) never race; the
// copy operations take a relaxed per-field snapshot.
struct IoStats {
  std::atomic<uint64_t> pages_read{0};
  std::atomic<uint64_t> pages_written{0};
  std::atomic<uint64_t> pages_allocated{0};
  std::atomic<uint64_t> syncs{0};

  IoStats() = default;
  IoStats(const IoStats& other) { *this = other; }
  IoStats& operator=(const IoStats& other) {
    pages_read.store(other.pages_read.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    pages_written.store(other.pages_written.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    pages_allocated.store(
        other.pages_allocated.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    syncs.store(other.syncs.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  void Reset() { *this = IoStats(); }
};

// Decides whether a particular I/O should fail. Called before the I/O with
// the page id; returning a non-OK status aborts the operation with that
// status. Used by failure-injection tests. May be invoked concurrently from
// scan threads.
using FaultHook = std::function<Status(PageId page_id)>;

class DiskManager {
 public:
  // Creates a new file (truncating any existing one) whose page 0 is a
  // zeroed, sealed catalog root.
  [[nodiscard]] static StatusOr<DiskManager> Create(const std::string& path);

  // Opens an existing file; fails with kNotFound if it does not exist and
  // kFailedPrecondition if its size is not page-aligned.
  [[nodiscard]] static StatusOr<DiskManager> Open(const std::string& path);

  DiskManager(DiskManager&& other) noexcept;
  DiskManager& operator=(DiskManager&& other) noexcept;
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;
  ~DiskManager();

  // Appends a zeroed page and returns its id. Serialized internally.
  [[nodiscard]] StatusOr<PageId> AllocatePage();

  // Reads `page_id` into `*page`, verifying the checksum unless the page is
  // all-zero (freshly allocated pages are legitimately unsealed). A page
  // without PageHeader::kMagic (a store of an older page format) fails with
  // kFailedPrecondition, a checksum mismatch with kInternal.
  [[nodiscard]] Status ReadPage(PageId page_id, Page* page);

  // Seals (checksums) and writes the page.
  [[nodiscard]] Status WritePage(PageId page_id, Page* page);

  [[nodiscard]] Status Sync();

  PageId num_pages() const {
    return num_pages_.load(std::memory_order_acquire);
  }
  const std::string& path() const { return path_; }

  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }

  // Fault injection; pass nullptr to clear. Not synchronized against
  // in-flight I/O — set before starting concurrent work.
  void set_read_fault(FaultHook hook) { read_fault_ = std::move(hook); }
  void set_write_fault(FaultHook hook) { write_fault_ = std::move(hook); }

 private:
  DiskManager(int fd, std::string path, PageId num_pages)
      : fd_(fd),
        path_(std::move(path)),
        num_pages_(num_pages),
        alloc_mu_(std::make_unique<Mutex>()) {}

  int fd_ = -1;
  std::string path_;
  std::atomic<PageId> num_pages_{0};
  IoStats stats_;
  FaultHook read_fault_;
  FaultHook write_fault_;
  // Serializes file extension; the read/write data path is lock-free.
  // Behind a unique_ptr so the manager stays movable (num_pages_ is the
  // only state it guards, and that is an atomic annotated by convention,
  // not GUARDED_BY — readers snapshot it lock-free).
  std::unique_ptr<Mutex> alloc_mu_;
};

}  // namespace pager
}  // namespace chase

#endif  // CHASE_PAGER_DISK_MANAGER_H_
