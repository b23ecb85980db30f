// FindShapes: computing shape(D), the set of shapes of the atoms of a
// database (Section 5.4), against any ShapeSource backend. The two query
// plans of the paper, each implemented exactly once:
//
//  * Scan mode (the paper's "in-memory" variant): one full strided scan per
//    relation, hashing the id-tuple of every tuple.
//  * Exists mode (the paper's "in-database" variant): one EXISTS query pair
//    per candidate shape, walking the shape lattice of each predicate from
//    the all-distinct shape towards coarser shapes with the Apriori-style
//    pruning of Section 5.4: a shape is only considered if some already-
//    confirmed relaxed query covers it, and if the relaxed (equalities-only)
//    query of a shape fails, every coarser shape is pruned without touching
//    the data.
//
// Both modes also run work-partitioned in parallel (`threads` > 1): scan
// mode splits relations into row ranges of roughly equal estimated work and
// unions per-thread shape sets; exists mode walks the shape lattices of all
// predicates as one depth-synchronous frontier through chase::FrontierPool,
// so the candidate shapes themselves — not whole predicates — are dealt to
// workers and one high-arity predicate (a large lattice) cannot pin a
// single worker. This works over both backends — including parallel
// shape-finding over pager::DiskDatabase.
//
// All mode × backend × thread combinations return the same sorted set; a
// property test (tests/shape_source_test.cc) enforces this.

#ifndef CHASE_STORAGE_SHAPE_FINDER_H_
#define CHASE_STORAGE_SHAPE_FINDER_H_

#include <vector>

#include "base/status.h"
#include "exec/frontier_pool.h"
#include "logic/shape.h"
#include "storage/catalog.h"
#include "storage/shape_source.h"

namespace chase {
namespace storage {

// The query plans. kScan and kExists are the paper's two; kIndex is the
// Section 10 deployment — build (or reuse) a sharded materialized shape
// index over the source and extract shape(D) from it, so repeated checks
// pay a dictionary extraction instead of a scan.
enum class ShapeFinderMode {
  kScan,
  kExists,
  kIndex,
};

const char* ShapeFinderModeName(ShapeFinderMode mode);

struct FindShapesOptions {
  ShapeFinderMode mode = ShapeFinderMode::kScan;
  unsigned threads = 1;     // <= 1 runs serially
  unsigned index_shards = 0;  // kIndex only: shard count (0 = default)
  // Scan read-ahead depth in pages, applied to the source via
  // ConfigureReadAhead for the run (0 = off). Only backends with physical
  // I/O (pager::DiskShapeSource) act on it, and only the range-consuming
  // plans (kScan, kIndex) use it — the exists plan's early-exit probes
  // ignore it. Overlaps cold-pool page faults with tuple hashing; never
  // changes results.
  unsigned prefetch = 0;
  // When non-null and the exists plan runs frontier-parallel (threads > 1),
  // receives the engine's depth/expansion counters — per-worker expansion
  // counts included, which is how bench/ablation_frontier_parallel.cc shows
  // the lattice frontier itself being split across workers.
  FrontierStats* frontier_stats = nullptr;
  // When non-null, the parallel plans (scan chunks, the exists plan's
  // frontier, the index build's scan) run on this caller-owned persistent
  // WorkerPool — its thread count wins over `threads` — so one pool serves
  // several phases of one algorithm (e.g. the whole IsChaseFiniteL check:
  // FindShapes here plus the dynamic-simplification worklist, one spawn
  // instead of two). Results are unchanged either way: every plan is
  // deterministic in its effective thread count, and the returned set is
  // thread-count-independent besides.
  WorkerPool* pool = nullptr;
};

// Mirrors one run's access-stats delta into the metrics registry on every
// exit path. The source's stats are cumulative for its lifetime, so the
// guard snapshots them at construction and publishes the difference on
// destruction. Shared by storage::FindShapes and the index-backed plan
// one layer up (index::FindShapes), so every plan meters identically.
class ScopedAccessStatsMirror {
 public:
  explicit ScopedAccessStatsMirror(const ShapeSource& source)
      : source_(source), before_(source.stats()) {}
  ~ScopedAccessStatsMirror();

  ScopedAccessStatsMirror(const ScopedAccessStatsMirror&) = delete;
  ScopedAccessStatsMirror& operator=(const ScopedAccessStatsMirror&) = delete;

 private:
  const ShapeSource& source_;
  AccessStats before_;
};

// The unified entry point: returns shape(D) sorted by (pred, id), computed
// over `source` with the requested plan and parallelism. Errors surface
// only from fallible backends (disk I/O); the in-memory backend never
// fails. The kIndex plan is dispatched one layer up by index::FindShapes
// (index/find_shapes.h) — passing it here is an InvalidArgument error,
// because storage/ sits below index/ in the layer DAG and cannot name the
// sharded index.
[[nodiscard]] StatusOr<std::vector<Shape>> FindShapes(
    const ShapeSource& source, const FindShapesOptions& options = {});

}  // namespace storage
}  // namespace chase

#endif  // CHASE_STORAGE_SHAPE_FINDER_H_
