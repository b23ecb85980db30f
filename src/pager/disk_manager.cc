#include "pager/disk_manager.h"

#include "base/status.h"
#include "base/sync.h"
#include "pager/page.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <utility>

namespace chase {
namespace pager {

namespace {

bool AllZero(const Page& page) {
  return std::all_of(page.bytes.begin(), page.bytes.end(),
                     [](uint8_t b) { return b == 0; });
}

// Full-page positional read/write; POSIX pread/pwrite may return short on
// signals, so loop until the page is transferred.
bool PreadPage(int fd, PageId page_id, uint8_t* data) {
  size_t done = 0;
  while (done < kPageSize) {
    const ssize_t n =
        ::pread(fd, data + done, kPageSize - done,
                static_cast<off_t>(page_id) * kPageSize + done);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

bool PwritePage(int fd, PageId page_id, const uint8_t* data) {
  size_t done = 0;
  while (done < kPageSize) {
    const ssize_t n =
        ::pwrite(fd, data + done, kPageSize - done,
                 static_cast<off_t>(page_id) * kPageSize + done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

StatusOr<DiskManager> DiskManager::Create(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return InternalError("cannot create file: " + path);
  }
  DiskManager manager(fd, path, 0);
  CHASE_ASSIGN_OR_RETURN(PageId root, manager.AllocatePage());
  Page page;
  page.Zero();
  PageHeader header;
  header.kind = static_cast<uint32_t>(PageKind::kCatalog);
  WritePageHeader(&page, header);
  CHASE_RETURN_IF_ERROR(manager.WritePage(root, &page));
  return manager;
}

StatusOr<DiskManager> DiskManager::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) {
    return NotFoundError("cannot open file: " + path);
  }
  const off_t size = ::lseek(fd, 0, SEEK_END);
  if (size < 0) {
    ::close(fd);
    return InternalError("seek failed: " + path);
  }
  if (size % kPageSize != 0) {
    ::close(fd);
    return FailedPreconditionError(path + ": size is not page-aligned");
  }
  return DiskManager(fd, path, static_cast<PageId>(size / kPageSize));
}

DiskManager::DiskManager(DiskManager&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      num_pages_(other.num_pages_.load(std::memory_order_relaxed)),
      stats_(other.stats_),
      read_fault_(std::move(other.read_fault_)),
      write_fault_(std::move(other.write_fault_)),
      alloc_mu_(std::move(other.alloc_mu_)) {}

DiskManager& DiskManager::operator=(DiskManager&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    path_ = std::move(other.path_);
    num_pages_.store(other.num_pages_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    stats_ = other.stats_;
    read_fault_ = std::move(other.read_fault_);
    write_fault_ = std::move(other.write_fault_);
    alloc_mu_ = std::move(other.alloc_mu_);
  }
  return *this;
}

DiskManager::~DiskManager() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<PageId> DiskManager::AllocatePage() {
  MutexLock lock(*alloc_mu_);
  const PageId id = num_pages_.load(std::memory_order_relaxed);
  if (id == kInvalidPageId) {
    return ResourceExhaustedError("page id space exhausted");
  }
  Page zero;
  zero.Zero();
  if (!PwritePage(fd_, id, zero.bytes.data())) {
    return InternalError("allocation write failed at page " +
                         std::to_string(id));
  }
  // Release so readers that learn the id through the allocating thread's
  // page table observe the extended file length.
  num_pages_.store(id + 1, std::memory_order_release);
  stats_.pages_allocated.fetch_add(1, std::memory_order_relaxed);
  return id;
}

Status DiskManager::ReadPage(PageId page_id, Page* page) {
  if (page_id >= num_pages()) {
    return OutOfRangeError("read of unallocated page " +
                           std::to_string(page_id));
  }
  if (read_fault_) CHASE_RETURN_IF_ERROR(read_fault_(page_id));
  if (!PreadPage(fd_, page_id, page->bytes.data())) {
    return InternalError("short read at page " + std::to_string(page_id));
  }
  stats_.pages_read.fetch_add(1, std::memory_order_relaxed);
  if (!AllZero(*page) && !VerifyPage(*page)) {
    if (ReadPageHeader(*page).magic != PageHeader::kMagic) {
      return FailedPreconditionError(
          path_ + ": page " + std::to_string(page_id) +
          " has no page magic of this format (a store written by an older "
          "version, or not a store); rebuild it");
    }
    return InternalError("checksum mismatch at page " +
                         std::to_string(page_id));
  }
  return OkStatus();
}

Status DiskManager::WritePage(PageId page_id, Page* page) {
  if (page_id >= num_pages()) {
    return OutOfRangeError("write of unallocated page " +
                           std::to_string(page_id));
  }
  if (write_fault_) CHASE_RETURN_IF_ERROR(write_fault_(page_id));
  SealPage(page);
  if (!PwritePage(fd_, page_id, page->bytes.data())) {
    return InternalError("short write at page " + std::to_string(page_id));
  }
  stats_.pages_written.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

Status DiskManager::Sync() {
  if (::fdatasync(fd_) != 0 && errno != EINVAL && errno != EROFS) {
    return InternalError("fdatasync failed: " + path_);
  }
  stats_.syncs.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

}  // namespace pager
}  // namespace chase
