// DiskShapeSource: the ShapeSource backend over a pager::DiskDatabase, so
// the unified FindShapes algorithms (storage/shape_finder.h) — including
// the work-partitioned parallel scanner — run against buffer-pooled heap
// files exactly as they run against the in-memory row store.
//
// Row-range scans seek through a lazily built per-relation page directory
// (the heap chain's page ids in order): appends only ever fill the tail
// page, so every non-tail page is full and row r lives at page
// r / TuplesPerPage, offset r % TuplesPerPage. The directory is built once
// per relation on first ranged access and shared by all workers.
//
// I/O metering maps onto the DiskManager page counters and BufferPool
// hit/miss counters, giving the exact physical cost of each plan.

#ifndef CHASE_PAGER_DISK_SHAPE_SOURCE_H_
#define CHASE_PAGER_DISK_SHAPE_SOURCE_H_

#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/sync.h"
#include "logic/schema.h"
#include "pager/disk_database.h"
#include "pager/page.h"
#include "storage/catalog.h"
#include "storage/shape_source.h"
#include "storage/tuple_run.h"

namespace chase {
namespace pager {

class DiskShapeSource final : public storage::ShapeSource {
 public:
  // `db` must outlive the source.
  explicit DiskShapeSource(const DiskDatabase* db) : db_(db) {}

  const char* Name() const override { return "disk"; }
  const Schema& schema() const override { return db_->schema(); }
  std::vector<PredId> NonEmptyRelations() const override;
  uint64_t NumTuples(PredId pred) const override {
    return db_->NumTuples(pred);
  }
  [[nodiscard]]
  Status ScanRange(PredId pred, uint64_t first_row, uint64_t num_rows,
                   const storage::RunVisitor& visit) const override;
  storage::AccessStats& stats() const override { return stats_; }
  storage::IoCounters Io() const override;

 private:
  // Returns the page directory of `pred`, building it on first use.
  [[nodiscard]]
  StatusOr<const std::vector<PageId>*> PageDirectory(PredId pred) const;

  const DiskDatabase* db_;
  mutable storage::AccessStats stats_;
  mutable Mutex mu_;  // guards directories_
  mutable std::unordered_map<PredId, std::vector<PageId>> directories_
      GUARDED_BY(mu_);
};

}  // namespace pager
}  // namespace chase

#endif  // CHASE_PAGER_DISK_SHAPE_SOURCE_H_
