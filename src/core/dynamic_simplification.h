// Dynamic simplification (Definition 4.2 / Algorithm 2).
//
// Instead of materializing the exponentially large simple(Σ), dynamic
// simplification keeps only the simplified TGDs that can actually fire when
// the input database is D: starting from shape(D), it closes the shape set
// under the immediate-consequence operator Γ_Σ, generating one simplified
// TGD per (rule, derivable body shape with a compatible homomorphism). The
// result simple_D(Σ) is weakly acyclic iff chase(D, Σ) is finite (Lemmas
// 4.3 + 4.5 with Theorem 3.6).
//
// The worklist runs depth-synchronously through chase::FrontierPool:
// shapes first derived at the same depth are independent, so their
// (rule, shape) homomorphism checks expand in parallel when `threads` > 1,
// while the simplified TGDs are emitted serially per depth. The emitted
// order is canonical and documented (see DynamicSimplificationResult),
// identical for every thread count.

#ifndef CHASE_CORE_DYNAMIC_SIMPLIFICATION_H_
#define CHASE_CORE_DYNAMIC_SIMPLIFICATION_H_

#include <memory>
#include <vector>

#include "base/status.h"
#include "core/simplification.h"
#include "exec/frontier_pool.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "logic/tgd.h"

namespace chase {

struct DynamicSimplificationResult {
  std::unique_ptr<ShapeSchema> shape_schema;
  // simple_D(Σ) over shape_schema->schema(), in the canonical order: TGDs
  // are grouped by the derivation depth of their body shape (depth 0 = the
  // deduplicated database shapes, depth d+1 = shapes first derived from
  // depth d), within a depth by body shape ascending in (pred, id), and per
  // body shape by rule index ascending. Duplicates are kept — one entry per
  // (rule, shape) pair with a compatible homomorphism — and the shape
  // schema's predicates are interned in exactly this emission order, so the
  // whole result (TGDs, predicate ids, names) is bit-identical for every
  // thread count. Pinned by DynamicSimplificationTest.CanonicalTgdOrder.
  std::vector<Tgd> tgds;
  size_t num_initial_shapes = 0;  // |shape(D)|
  size_t num_derived_shapes = 0;  // |Σ(shape(D))|
  FrontierStats frontier;         // worklist depth/expansion counters
};

// Algorithm 2 given the database shapes (the db-dependent FindShapes step is
// separated out so callers can time it independently, as the paper does).
// `threads` <= 1 expands the worklist inline on the calling thread;
// otherwise it runs on a worker pool of its own, spawned once for the whole
// worklist. The canonical result is identical at every thread count.
[[nodiscard]]
StatusOr<DynamicSimplificationResult> DynamicSimplificationFromShapes(
    const Schema& schema, const std::vector<Tgd>& tgds,
    const std::vector<Shape>& database_shapes, unsigned threads = 1);

// A serial FindShapes(D) scan + Algorithm 2. `database.schema()` must
// contain every predicate of `tgds`.
[[nodiscard]] StatusOr<DynamicSimplificationResult> DynamicSimplification(
    const Database& database, const std::vector<Tgd>& tgds);

}  // namespace chase

#endif  // CHASE_CORE_DYNAMIC_SIMPLIFICATION_H_
