#include "pager/heap_file.h"

#include "base/status.h"
#include "pager/buffer_pool.h"
#include "pager/page.h"
#include "storage/tuple_run.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace chase {
namespace pager {

uint32_t HeapFile::TuplesPerPage(uint32_t arity) {
  assert(arity > 0);
  return (kPageSize - kPageHeaderSize) / (arity * sizeof(uint32_t));
}

StatusOr<HeapFile> HeapFile::Create(BufferPool* pool, uint32_t arity) {
  if (arity == 0) return InvalidArgumentError("heap file arity must be > 0");
  if (TuplesPerPage(arity) == 0) {
    return InvalidArgumentError("arity too large for page size");
  }
  CHASE_ASSIGN_OR_RETURN(PageGuard guard, pool->Allocate());
  PageHeader header;
  header.kind = static_cast<uint32_t>(PageKind::kHeap);
  WritePageHeader(&guard.MutablePage(), header);
  return HeapFile(pool, arity, guard.page_id(), guard.page_id(), 0);
}

Status HeapFile::Append(std::span<const uint32_t> tuple) {
  if (tuple.size() != arity_) {
    return InvalidArgumentError("tuple width does not match heap file arity");
  }
  const uint32_t capacity = TuplesPerPage(arity_);
  CHASE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(last_page_));
  PageHeader header = ReadPageHeader(guard.page());
  if (header.count == capacity) {
    CHASE_ASSIGN_OR_RETURN(PageGuard fresh, pool_->Allocate());
    PageHeader fresh_header;
    fresh_header.kind = static_cast<uint32_t>(PageKind::kHeap);
    WritePageHeader(&fresh.MutablePage(), fresh_header);
    header.next = fresh.page_id();
    WritePageHeader(&guard.MutablePage(), header);
    last_page_ = fresh.page_id();
    guard = std::move(fresh);
    header = fresh_header;
  }
  const uint32_t offset =
      kPageHeaderSize + header.count * arity_ * sizeof(uint32_t);
  Page& page = guard.MutablePage();
  std::memcpy(page.bytes.data() + offset, tuple.data(),
              arity_ * sizeof(uint32_t));
  ++header.count;
  WritePageHeader(&page, header);
  ++num_tuples_;
  return OkStatus();
}

Status HeapFile::Scan(const storage::RunVisitor& visit) const {
  return ScanFrom(first_page_, 0, num_tuples_, visit);
}

Status HeapFile::ScanFrom(PageId start_page, uint64_t skip_rows,
                          uint64_t num_rows,
                          const storage::RunVisitor& visit) const {
  PageId current = start_page;
  while (current != kInvalidPageId && num_rows > 0) {
    CHASE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(current));
    const Page& page = guard.page();
    PageHeader header = ReadPageHeader(page);
    if (header.kind != static_cast<uint32_t>(PageKind::kHeap)) {
      return InternalError("heap chain reached a non-heap page " +
                           std::to_string(current));
    }
    const uint32_t* tuples = reinterpret_cast<const uint32_t*>(
        page.bytes.data() + kPageHeaderSize);
    if (skip_rows >= header.count) {
      skip_rows -= header.count;
    } else {
      const auto row = static_cast<uint32_t>(skip_rows);
      const auto take =
          static_cast<uint32_t>(std::min<uint64_t>(header.count - row,
                                                   num_rows));
      skip_rows = 0;
      num_rows -= take;
      const storage::TupleRun run{
          {tuples + size_t{row} * arity_, size_t{take} * arity_}, arity_};
      if (!visit(run)) return OkStatus();
    }
    current = header.next;
  }
  return OkStatus();
}

Status HeapFile::CollectPageIds(std::vector<PageId>* out) const {
  PageId current = first_page_;
  while (current != kInvalidPageId) {
    CHASE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(current));
    PageHeader header = ReadPageHeader(guard.page());
    if (header.kind != static_cast<uint32_t>(PageKind::kHeap)) {
      return InternalError("heap chain reached a non-heap page " +
                           std::to_string(current));
    }
    out->push_back(current);
    current = header.next;
  }
  return OkStatus();
}

}  // namespace pager
}  // namespace chase
