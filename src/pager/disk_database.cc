#include "pager/disk_database.h"

#include <utility>

#include "base/bytes.h"
#include "base/status.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "pager/buffer_pool.h"
#include "pager/disk_manager.h"
#include "pager/heap_file.h"
#include "pager/page.h"
#include "storage/tuple_run.h"

namespace chase {
namespace pager {

namespace {

constexpr uint32_t kCatalogVersion = 1;
constexpr uint32_t kCatalogPayload = kPageSize - kPageHeaderSize;

}  // namespace

StatusOr<std::unique_ptr<DiskDatabase>> DiskDatabase::Create(
    const std::string& path, const Database& db, uint32_t num_frames) {
  CHASE_ASSIGN_OR_RETURN(DiskManager manager, DiskManager::Create(path));
  auto disk_db = std::unique_ptr<DiskDatabase>(new DiskDatabase());
  disk_db->disk_ = std::make_unique<DiskManager>(std::move(manager));
  disk_db->pool_ =
      std::make_unique<BufferPool>(disk_db->disk_.get(), num_frames);

  const Schema& schema = db.schema();
  for (PredId pred = 0; pred < schema.NumPredicates(); ++pred) {
    CHASE_ASSIGN_OR_RETURN(
        PredId copied,
        disk_db->schema_.AddPredicate(schema.PredicateName(pred),
                                      schema.Arity(pred)));
    if (copied != pred) return InternalError("schema copy id mismatch");
    CHASE_ASSIGN_OR_RETURN(
        HeapFile heap,
        HeapFile::Create(disk_db->pool_.get(), schema.Arity(pred)));
    const uint32_t arity = schema.Arity(pred);
    const auto tuples = db.Tuples(pred);
    for (size_t row = 0; row * arity < tuples.size(); ++row) {
      CHASE_RETURN_IF_ERROR(
          heap.Append(tuples.subspan(row * arity, arity)));
    }
    disk_db->relations_.push_back(std::move(heap));
  }

  disk_db->anonymous_domain_ = db.NumConstants();
  disk_db->constant_names_.reserve(db.NumNamedConstants());
  for (uint32_t id = 0; id < db.NumNamedConstants(); ++id) {
    disk_db->constant_names_.push_back(db.ConstantName(id));
  }

  CHASE_RETURN_IF_ERROR(disk_db->SaveCatalog());
  return disk_db;
}

StatusOr<std::unique_ptr<DiskDatabase>> DiskDatabase::Open(
    const std::string& path, uint32_t num_frames) {
  CHASE_ASSIGN_OR_RETURN(DiskManager manager, DiskManager::Open(path));
  auto disk_db = std::unique_ptr<DiskDatabase>(new DiskDatabase());
  disk_db->disk_ = std::make_unique<DiskManager>(std::move(manager));
  disk_db->pool_ =
      std::make_unique<BufferPool>(disk_db->disk_.get(), num_frames);
  CHASE_RETURN_IF_ERROR(disk_db->LoadCatalog());
  return disk_db;
}

uint64_t DiskDatabase::TotalTuples() const {
  uint64_t total = 0;
  for (const HeapFile& heap : relations_) total += heap.num_tuples();
  return total;
}

std::vector<PredId> DiskDatabase::NonEmptyPredicates() const {
  std::vector<PredId> preds;
  for (PredId pred = 0; pred < relations_.size(); ++pred) {
    if (relations_[pred].num_tuples() > 0) preds.push_back(pred);
  }
  return preds;
}

Status DiskDatabase::Append(PredId pred, std::span<const uint32_t> tuple) {
  if (pred >= relations_.size()) {
    return InvalidArgumentError("unknown predicate id " +
                                std::to_string(pred));
  }
  return relations_[pred].Append(tuple);
}

Status DiskDatabase::SaveCatalog() {
  ByteWriter writer;
  writer.PutU32(kCatalogVersion);
  writer.PutU32(static_cast<uint32_t>(schema_.NumPredicates()));
  for (PredId pred = 0; pred < schema_.NumPredicates(); ++pred) {
    writer.PutString(schema_.PredicateName(pred));
    writer.PutU32(schema_.Arity(pred));
    writer.PutU32(relations_[pred].first_page());
    writer.PutU32(relations_[pred].last_page());
    writer.PutU64(relations_[pred].num_tuples());
  }
  writer.PutU64(anonymous_domain_);
  writer.PutU32(static_cast<uint32_t>(constant_names_.size()));
  for (const std::string& name : constant_names_) writer.PutString(name);

  // Spill the stream over the page-0 catalog chain, extending it on demand.
  const std::vector<uint8_t>& bytes = writer.bytes();
  size_t offset = 0;
  PageId current = 0;
  while (true) {
    CHASE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(current));
    Page& page = guard.MutablePage();
    PageHeader header = ReadPageHeader(page);
    header.kind = static_cast<uint32_t>(PageKind::kCatalog);
    const size_t chunk = std::min<size_t>(kCatalogPayload,
                                          bytes.size() - offset);
    std::memcpy(page.bytes.data() + kPageHeaderSize, bytes.data() + offset,
                chunk);
    header.count = static_cast<uint32_t>(chunk);
    offset += chunk;
    if (offset == bytes.size()) {
      header.next = kInvalidPageId;  // truncate any stale chain tail
      WritePageHeader(&page, header);
      break;
    }
    if (header.next == kInvalidPageId) {
      CHASE_ASSIGN_OR_RETURN(PageGuard fresh, pool_->Allocate());
      PageHeader fresh_header;
      fresh_header.kind = static_cast<uint32_t>(PageKind::kCatalog);
      WritePageHeader(&fresh.MutablePage(), fresh_header);
      header.next = fresh.page_id();
    }
    WritePageHeader(&page, header);
    current = header.next;
  }
  return pool_->Flush();
}

Status DiskDatabase::LoadCatalog() {
  std::vector<uint8_t> bytes;
  PageId current = 0;
  while (current != kInvalidPageId) {
    CHASE_ASSIGN_OR_RETURN(PageGuard guard, pool_->Fetch(current));
    const Page& page = guard.page();
    PageHeader header = ReadPageHeader(page);
    if (header.kind != static_cast<uint32_t>(PageKind::kCatalog)) {
      return InternalError("catalog chain reached a non-catalog page");
    }
    if (header.count > kCatalogPayload) {
      return InternalError("catalog page payload size out of range");
    }
    bytes.insert(bytes.end(), page.bytes.data() + kPageHeaderSize,
                 page.bytes.data() + kPageHeaderSize + header.count);
    current = header.next;
  }

  ByteReader reader(bytes);
  CHASE_ASSIGN_OR_RETURN(uint32_t version, reader.GetU32());
  if (version != kCatalogVersion) {
    return FailedPreconditionError("unsupported catalog version " +
                                   std::to_string(version));
  }
  CHASE_ASSIGN_OR_RETURN(uint32_t num_preds, reader.GetU32());
  for (uint32_t i = 0; i < num_preds; ++i) {
    CHASE_ASSIGN_OR_RETURN(std::string name, reader.GetString());
    CHASE_ASSIGN_OR_RETURN(uint32_t arity, reader.GetU32());
    CHASE_ASSIGN_OR_RETURN(uint32_t first_page, reader.GetU32());
    CHASE_ASSIGN_OR_RETURN(uint32_t last_page, reader.GetU32());
    CHASE_ASSIGN_OR_RETURN(uint64_t num_tuples, reader.GetU64());
    CHASE_ASSIGN_OR_RETURN(PredId pred, schema_.AddPredicate(name, arity));
    if (pred != i) return InternalError("catalog predicate id mismatch");
    relations_.emplace_back(pool_.get(), arity, first_page, last_page,
                            num_tuples);
  }
  CHASE_ASSIGN_OR_RETURN(anonymous_domain_, reader.GetU64());
  CHASE_ASSIGN_OR_RETURN(uint32_t num_names, reader.GetU32());
  for (uint32_t i = 0; i < num_names; ++i) {
    CHASE_ASSIGN_OR_RETURN(std::string name, reader.GetString());
    constant_names_.push_back(std::move(name));
  }
  if (!reader.AtEnd()) {
    return InternalError("trailing bytes after catalog");
  }
  return OkStatus();
}

StatusOr<Database> DiskDatabase::ToDatabase() const {
  Database db(&schema_);
  for (const std::string& name : constant_names_) db.InternConstant(name);
  db.EnsureAnonymousDomain(anonymous_domain_);
  for (PredId pred = 0; pred < relations_.size(); ++pred) {
    Status append_status = OkStatus();
    Status scan_status = Scan(pred, [&](storage::TupleRun run) {
      for (size_t i = 0; i < run.rows() && append_status.ok(); ++i) {
        append_status = db.AddFact(pred, run.row(i));
      }
      return append_status.ok();
    });
    CHASE_RETURN_IF_ERROR(scan_status);
    CHASE_RETURN_IF_ERROR(append_status);
  }
  return db;
}

std::string DiskDatabase::ConstantName(uint32_t constant_id) const {
  if (constant_id < constant_names_.size()) {
    return constant_names_[constant_id];
  }
  return "c" + std::to_string(constant_id);
}

}  // namespace pager
}  // namespace chase
