// FindShapes: computing shape(D), the set of shapes of the atoms of a
// database (Section 5.4), against any ShapeSource backend. The two query
// plans of the paper, each implemented exactly once:
//
//  * Scan mode (the paper's "in-memory" variant): one full scan per
//    relation, classifying every tuple by its pairwise-equality mask (up to
//    arity 6) or its id-tuple, over runs of whole tuples.
//  * Exists mode (the paper's "in-database" variant): one EXISTS query pair
//    per candidate shape, walking the shape lattice of each predicate from
//    the all-distinct shape towards coarser shapes with the Apriori-style
//    pruning of Section 5.4: a shape is only considered if some already-
//    confirmed relaxed query covers it, and if the relaxed (equalities-only)
//    query of a shape fails, every coarser shape is pruned without touching
//    the data.
//
// Both modes run work-partitioned in parallel at `threads` > 1 and inline
// at `threads` <= 1, through one code path each: scan mode splits
// relations into row ranges of roughly equal estimated work and unions
// per-thread shape sets; exists mode walks the shape lattices of batches
// of predicates, each batch as one depth-synchronous frontier through
// chase::FrontierPool, so the candidate shapes themselves — not whole
// predicates — are dealt to workers and one high-arity predicate (a large
// lattice) cannot pin a single worker; each depth's confirmed shapes are
// collected serially at the depth barrier. At threads 1 a batch holds
// consecutive relations of about 2^16 tuple values, so its depths run
// while those relations are still cached; the budget grows with the
// square of the thread count, since each depth is a pool-wide barrier. This works over both backends — including parallel
// shape-finding over pager::DiskDatabase.
//
// All mode × backend × thread combinations return the same sorted set; a
// property test (tests/shape_source_test.cc) enforces this, and the scan
// plan, an independent algorithm, is the oracle the exists plan is tested
// against (tests/frontier_equivalence_test.cc).

#ifndef CHASE_STORAGE_SHAPE_FINDER_H_
#define CHASE_STORAGE_SHAPE_FINDER_H_

#include <vector>

#include "base/status.h"
#include "logic/shape.h"
#include "storage/catalog.h"
#include "storage/shape_source.h"

namespace chase {
namespace storage {

// The paper's two query plans. The Section 10 deployment — shape(D) read
// out of a materialized index — is not a plan here: an index::ShapeIndex
// snapshot hands its shapes to the checker directly
// (LCheckOptions::precomputed_shapes).
enum class ShapeFinderMode {
  kScan,
  kExists,
};

const char* ShapeFinderModeName(ShapeFinderMode mode);

struct FindShapesOptions {
  ShapeFinderMode mode = ShapeFinderMode::kScan;
  unsigned threads = 1;  // <= 1 runs serially
};

// The unified entry point: returns shape(D) sorted by (pred, id), computed
// over `source` with the requested plan and parallelism. Errors surface
// only from fallible backends (disk I/O); the in-memory backend never
// fails.
[[nodiscard]] StatusOr<std::vector<Shape>> FindShapes(
    const ShapeSource& source, const FindShapesOptions& options = {});

}  // namespace storage
}  // namespace chase

#endif  // CHASE_STORAGE_SHAPE_FINDER_H_
