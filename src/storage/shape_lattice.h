// The shape (partition) lattice of Section 5.4, whose Apriori-style walk
// is the exists plan of FindShapes (storage/shape_finder.cc): the walk
// starts at the all-distinct id-tuple of each predicate and explores
// coarser id-tuples through ForEachChild, pruning the subtree below any
// id-tuple whose relaxed (equalities-only) query fails.

#ifndef CHASE_STORAGE_SHAPE_LATTICE_H_
#define CHASE_STORAGE_SHAPE_LATTICE_H_

#include <functional>

#include "logic/shape.h"

namespace chase {
namespace storage {

// Calls `child(c)` for each immediate coarsening of `id` — every id-tuple
// obtained by merging two of its blocks. Distinct block pairs yield
// distinct partitions, so no child repeats within one call; children of
// different parents can coincide and must be deduplicated by the walker.
void ForEachChild(const IdTuple& id,
                  const std::function<void(IdTuple)>& child);

// The all-distinct id-tuple (1, 2, ..., arity): the lattice's top element,
// where every walk starts.
IdTuple AllDistinctIdTuple(uint32_t arity);

}  // namespace storage
}  // namespace chase

#endif  // CHASE_STORAGE_SHAPE_LATTICE_H_
