// Fixed-size pages, the unit of disk I/O for the on-disk storage engine.
//
// The paper stores every database in PostgreSQL; this library's default
// storage is the in-memory row store (storage::Catalog). The pager module is
// the disk-backed counterpart: an 8 KiB-page file layout with a buffer pool,
// used by the disk-resident FindShapes implementations and by chasectl for
// persisted databases. Keeping the page format tiny and fixed-width (tuples
// are arity-strided arrays of interned uint32 constant ids, exactly the
// in-memory layout) means a page scan on disk does the same work per tuple
// as an in-memory scan, so in-memory vs on-disk comparisons isolate I/O and
// buffer-pool behaviour.

#ifndef CHASE_PAGER_PAGE_H_
#define CHASE_PAGER_PAGE_H_

#include <array>
#include <cstdint>
#include <cstring>

namespace chase {
namespace pager {

inline constexpr uint32_t kPageSize = 8192;

// Page ids are 0-based offsets into the backing file. Page 0 is always the
// catalog root; kInvalidPageId terminates page chains.
using PageId = uint32_t;
inline constexpr PageId kInvalidPageId = 0xffffffffu;

// Raw page payload. Alignment allows reinterpretation as uint32 words.
struct alignas(8) Page {
  std::array<uint8_t, kPageSize> bytes;

  void Zero() { bytes.fill(0); }

  // Unchecked word accessors; offsets are in bytes and must be 4-aligned.
  uint32_t ReadU32(uint32_t offset) const {
    uint32_t value;
    std::memcpy(&value, bytes.data() + offset, sizeof(value));
    return value;
  }
  void WriteU32(uint32_t offset, uint32_t value) {
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
  }
  uint64_t ReadU64(uint32_t offset) const {
    uint64_t value;
    std::memcpy(&value, bytes.data() + offset, sizeof(value));
    return value;
  }
  void WriteU64(uint32_t offset, uint64_t value) {
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
  }
};

// Checksum64 (base/hash.h) over a page body; stored in page headers to
// detect torn or corrupted pages on read. Any single changed body byte
// changes it.
uint64_t PageChecksum(const uint8_t* data, size_t size);

// Every page starts with this header. `kind` distinguishes catalog pages
// from heap (tuple) pages; `next` chains pages of the same object.
// The checksum covers bytes [kPageHeaderSize, kPageSize).
struct PageHeader {
  // "CHP2". Pages sealed with the earlier byte-wise FNV-1a checksum
  // carried "CHPS" (0x43485053); a file of them is refused by its magic
  // (DiskManager::ReadPage), not reported as a checksum mismatch per page.
  static constexpr uint32_t kMagic = 0x43485032;

  uint32_t magic = kMagic;
  uint32_t kind = 0;
  PageId next = kInvalidPageId;
  uint32_t count = 0;  // catalog: entries; heap: tuples
  uint64_t checksum = 0;
};

inline constexpr uint32_t kPageHeaderSize = 24;
static_assert(sizeof(PageHeader) == kPageHeaderSize);

enum class PageKind : uint32_t {
  kFree = 0,
  kCatalog = 1,
  kHeap = 2,
};

PageHeader ReadPageHeader(const Page& page);
void WritePageHeader(Page* page, const PageHeader& header);

// Recomputes and stores the checksum of `page`'s body into its header.
void SealPage(Page* page);

// True iff the stored checksum matches the body and the magic is intact.
bool VerifyPage(const Page& page);

}  // namespace pager
}  // namespace chase

#endif  // CHASE_PAGER_PAGE_H_
