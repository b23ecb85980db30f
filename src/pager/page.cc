#include "pager/page.h"

#include <span>

#include "base/hash.h"

namespace chase {
namespace pager {

uint64_t PageChecksum(const uint8_t* data, size_t size) {
  return Checksum64(std::span<const uint8_t>(data, size));
}

PageHeader ReadPageHeader(const Page& page) {
  PageHeader header;
  std::memcpy(&header, page.bytes.data(), sizeof(header));
  return header;
}

void WritePageHeader(Page* page, const PageHeader& header) {
  std::memcpy(page->bytes.data(), &header, sizeof(header));
}

void SealPage(Page* page) {
  PageHeader header = ReadPageHeader(*page);
  header.checksum = PageChecksum(page->bytes.data() + kPageHeaderSize,
                                 kPageSize - kPageHeaderSize);
  WritePageHeader(page, header);
}

bool VerifyPage(const Page& page) {
  PageHeader header = ReadPageHeader(page);
  if (header.magic != PageHeader::kMagic) return false;
  return header.checksum == PageChecksum(page.bytes.data() + kPageHeaderSize,
                                         kPageSize - kPageHeaderSize);
}

}  // namespace pager
}  // namespace chase
