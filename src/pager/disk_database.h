// DiskDatabase: a database persisted in a single page file.
//
// Layout: page 0 heads a chain of catalog pages holding the serialized
// schema (predicate names and arities), per-relation heap-chain locations
// and tuple counts, and the constant dictionary; every relation is a
// HeapFile chain of fixed-width tuple pages. All access goes through a
// BufferPool, so the disk-resident FindShapes variants report exact I/O and
// cache behaviour.
//
// This is the substrate standing in for "the database lives in PostgreSQL"
// when data must survive a process or is too large to keep resident; the
// in-memory storage::Catalog remains the default for the paper's benches.

#ifndef CHASE_PAGER_DISK_DATABASE_H_
#define CHASE_PAGER_DISK_DATABASE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "pager/buffer_pool.h"
#include "pager/disk_manager.h"
#include "pager/heap_file.h"
#include "storage/tuple_run.h"

namespace chase {
namespace pager {

class DiskDatabase {
 public:
  // Materializes `db` into a new file at `path` (truncates any existing
  // file) and leaves it open.
  [[nodiscard]] static StatusOr<std::unique_ptr<DiskDatabase>> Create(
      const std::string& path, const Database& db, uint32_t num_frames = 64);

  // Opens an existing file and loads its catalog.
  [[nodiscard]] static StatusOr<std::unique_ptr<DiskDatabase>> Open(
      const std::string& path, uint32_t num_frames = 64);

  const Schema& schema() const { return schema_; }

  uint64_t NumTuples(PredId pred) const {
    return relations_[pred].num_tuples();
  }
  bool IsEmpty(PredId pred) const { return NumTuples(pred) == 0; }
  uint64_t TotalTuples() const;

  // The catalog query of Section 5.3, answered from catalog metadata only.
  std::vector<PredId> NonEmptyPredicates() const;

  // Scans `pred` in heap order, one run per page; stops early when `visit`
  // returns false.
  [[nodiscard]] Status Scan(PredId pred,
                            const storage::RunVisitor& visit) const {
    return relations_[pred].Scan(visit);
  }

  // The heap chain backing `pred` — DiskShapeSource seeks through it for
  // row-range scans.
  const HeapFile& relation(PredId pred) const { return relations_[pred]; }

  // Appends a tuple and updates the catalog's in-memory view; call
  // SaveCatalog (or Close) to persist the new counts and chain tails.
  [[nodiscard]] Status Append(PredId pred, std::span<const uint32_t> tuple);

  // Serializes the catalog into the page-0 chain and flushes the pool.
  [[nodiscard]] Status SaveCatalog();

  // Reloads the whole file into an in-memory Database.
  [[nodiscard]] StatusOr<Database> ToDatabase() const;

  std::string ConstantName(uint32_t constant_id) const;

  BufferPool& buffer_pool() const { return *pool_; }
  DiskManager& disk() const { return *disk_; }

 private:
  DiskDatabase() = default;

  [[nodiscard]] Status LoadCatalog();

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  Schema schema_;
  std::vector<HeapFile> relations_;  // indexed by PredId
  std::vector<std::string> constant_names_;
  uint64_t anonymous_domain_ = 0;
};

}  // namespace pager
}  // namespace chase

#endif  // CHASE_PAGER_DISK_DATABASE_H_
