// ShapeSource: the narrow storage seam the FindShapes algorithms run
// against (Section 5.4). The paper evaluates its db-dependent component
// twice — in memory and inside PostgreSQL — and this repo adds a
// disk-resident pager; ShapeSource is the one interface all of them
// implement, so the scanning, lattice-walking, and work-partitioned
// parallel algorithms in shape_finder.{h,cc} are written exactly once:
//
//   * relation metadata: schema, non-empty relations (the catalog query of
//     Section 5.3), per-relation tuple counts;
//   * tuple scans, full and row-range, with early exit, handing their
//     visitor runs of whole tuples (storage/tuple_run.h) — the row-range
//     form is what the parallel scanner partitions over;
//   * access metering: logical counters (AccessStats) written by the
//     algorithms, physical I/O counters (IoCounters) reported by the
//     backend.
//
// Backends: MemoryShapeSource (below) over storage::Catalog, and
// pager::DiskShapeSource over pager::DiskDatabase.

#ifndef CHASE_STORAGE_SHAPE_SOURCE_H_
#define CHASE_STORAGE_SHAPE_SOURCE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "base/status.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "storage/catalog.h"
#include "storage/tuple_run.h"

namespace chase {
namespace storage {

// Physical I/O performed by a backend. The in-memory row store does no I/O
// and reports zeros; the disk backend maps these onto its DiskManager and
// BufferPool counters. Snapshot semantics: Io() returns cumulative totals
// for the underlying store, so benches diff before/after a run.
struct IoCounters {
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;

  // The delta against an earlier snapshot of the same store — how benches
  // and the CLI meter one run out of the cumulative totals.
  IoCounters Since(const IoCounters& before) const {
    IoCounters delta;
    delta.pages_read = pages_read - before.pages_read;
    delta.pages_written = pages_written - before.pages_written;
    delta.pool_hits = pool_hits - before.pool_hits;
    delta.pool_misses = pool_misses - before.pool_misses;
    return delta;
  }
};

class ShapeSource {
 public:
  virtual ~ShapeSource() = default;

  // "memory" or "disk" — used in diagnostics and bench tables.
  virtual const char* Name() const = 0;

  virtual const Schema& schema() const = 0;

  // The catalog query of Section 5.3: the non-empty relations, answered
  // from metadata only. Metered as one catalog query in stats().
  virtual std::vector<PredId> NonEmptyRelations() const = 0;

  virtual uint64_t NumTuples(PredId pred) const = 0;

  // Visits rows [first_row, first_row + num_rows) of `pred` in storage
  // order, as consecutive runs of whole tuples: the memory backend hands
  // the whole range over in one run, the disk backend one heap page's
  // tuples per run. Stops early (and returns OK) once `visit` returns
  // false. Rows past the end of the relation are silently clamped; an
  // empty range makes no call.
  //
  // Thread safety: concurrent ScanRange calls on one source must be safe —
  // the parallel scanner issues them from worker threads.
  [[nodiscard]]
  virtual Status ScanRange(PredId pred, uint64_t first_row, uint64_t num_rows,
                           const RunVisitor& visit) const = 0;

  // Full scan of `pred`.
  [[nodiscard]] Status ScanAll(PredId pred, const RunVisitor& visit) const {
    return ScanRange(pred, 0, NumTuples(pred), visit);
  }

  // Logical access metering (queries issued, tuples scanned, relations
  // loaded). Written by the FindShapes algorithms, not by ScanRange, so
  // parallel workers can accumulate into thread-local stats and merge.
  virtual AccessStats& stats() const = 0;

  // Physical I/O metering; zeros for backends that do no I/O.
  virtual IoCounters Io() const { return {}; }
};

// Visits every tuple of `preds` with a work-partitioned scan: relations are
// chunked into row ranges of roughly equal tuple counts (a few chunks per
// thread, so uneven relation sizes still balance) and dealt to at most
// `threads` workers, never more workers than chunks; `threads` <= 1 scans
// inline on the calling thread. `visit` receives each chunk as the runs its
// ScanRange hands over and runs concurrently from workers, keyed by a
// thread id in [0, threads) so callers accumulate into thread-local state
// without synchronization. Meters one relation load per predicate and
// every scanned tuple (once per run) into source.stats() — the scan-plan
// FindShapes convention. This is the one scan driver behind both the
// scan-mode shape finder and the shape-index build.
using ParallelRunVisitor =
    std::function<void(unsigned thread, PredId pred, TupleRun run)>;
[[nodiscard]] Status ParallelTupleScan(const ShapeSource& source,
                         const std::vector<PredId>& preds, unsigned threads,
                         const ParallelRunVisitor& visit);

// The early-exit shape-existence probe both query plans of Section 5.4
// compile to. With `exact` set it answers the full EXISTS query (equalities
// and disequalities: some tuple has exactly this id-tuple); without it, the
// relaxed query (equalities only: some tuple is coarser than or equal to
// `id`). Meters one exists query plus the visited tuples — those up to
// and including the first witness, or the whole relation — into `stats`
// (pass the source's own stats for the serial path, a thread-local copy for
// parallel walkers). Fails with kInvalidArgument if `id` is longer than
// Schema::kMaxArity positions (the compiled condition uses fixed-width
// scratch; schemas loaded through logic::Schema can never exceed it).
[[nodiscard]]
StatusOr<bool> ProbeShapeExists(const ShapeSource& source, PredId pred,
                                const IdTuple& id, bool exact,
                                AccessStats* stats);

// In-memory backend: the row store behind storage::Catalog. Shares the
// catalog's AccessStats, so existing benches keep reading their counters
// from the catalog.
class MemoryShapeSource final : public ShapeSource {
 public:
  // `catalog` must outlive the source.
  explicit MemoryShapeSource(const Catalog* catalog) : catalog_(catalog) {}

  const char* Name() const override { return "memory"; }
  const Schema& schema() const override {
    return catalog_->database().schema();
  }
  std::vector<PredId> NonEmptyRelations() const override {
    return catalog_->ListNonEmptyRelations();
  }
  uint64_t NumTuples(PredId pred) const override {
    return catalog_->database().NumTuples(pred);
  }
  [[nodiscard]]
  Status ScanRange(PredId pred, uint64_t first_row, uint64_t num_rows,
                   const RunVisitor& visit) const override;
  AccessStats& stats() const override { return catalog_->stats(); }

 private:
  const Catalog* catalog_;
};

}  // namespace storage
}  // namespace chase

#endif  // CHASE_STORAGE_SHAPE_SOURCE_H_
