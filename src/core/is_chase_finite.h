// The two practical semi-oblivious chase termination algorithms (Section 4):
//
//   IsChaseFiniteSL (Algorithm 1): for simple-linear TGDs. Builds dg(Σ),
//   finds the special SCCs, and checks whether the database supports one of
//   them. chase(D, Σ) is finite iff Σ is D-weakly-acyclic (Theorem 3.3).
//
//   IsChaseFiniteL (Algorithm 3): for linear TGDs. Dynamically simplifies Σ
//   w.r.t. D, builds the dependency graph of simple_D(Σ) and reports
//   finiteness iff the graph has no special SCC — no support check needed,
//   because every predicate of simple_D(Σ) is reachable from shape(D) by
//   construction (Lemma 4.5).
//
// Both report the paper's per-component timings so the benches can
// reconstruct t-graph / t-comp / t-shapes exactly as in Sections 7 and 8.

#ifndef CHASE_CORE_IS_CHASE_FINITE_H_
#define CHASE_CORE_IS_CHASE_FINITE_H_

#include <cstdint>

#include "base/status.h"
#include "logic/database.h"
#include "logic/shape.h"
#include "logic/tgd.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"

namespace chase {

namespace index {
class ShardedShapeIndex;
}  // namespace index

struct SlCheckStats {
  double graph_ms = 0;    // t-graph: build dg(Σ)
  double comp_ms = 0;     // t-comp: find special SCCs
  double support_ms = 0;  // Supports (negligible per Remark 1)
  size_t graph_nodes = 0;
  size_t graph_edges = 0;
  size_t special_sccs = 0;
};

// Algorithm 1. The TGDs must be simple-linear with non-empty frontiers and
// over database.schema().
[[nodiscard]] StatusOr<bool> IsChaseFiniteSL(const Database& database,
                               const std::vector<Tgd>& tgds,
                               SlCheckStats* stats = nullptr);

struct LCheckOptions {
  storage::ShapeFinderMode shape_finder = storage::ShapeFinderMode::kScan;
  // Worker threads for the db-dependent FindShapes component (<= 1 runs it
  // serially). Ignored when the shapes come precomputed.
  unsigned shape_threads = 1;
  // Worker threads for the dynamic-simplification worklist (<= 1 expands it
  // inline). The emitted simple_D(Σ) is canonical and thread-count-
  // independent (see DynamicSimplificationResult), so this only changes
  // wall-clock, never the verdict or the stats.
  unsigned simplify_threads = 1;
  // When set, shape(D) is extracted from this incrementally maintained
  // index (index::ShardedShapeIndex::CurrentShapes) instead of scanning
  // the database — the Section 10 "materialize the shapes" deployment with
  // write-through maintenance. Must outlive the call.
  const index::ShardedShapeIndex* shape_index = nullptr;
  // When set, shape(D) is taken from here (sorted by (pred, id), the
  // contract of storage::FindShapes and storage::ShapeIndex::CurrentShapes)
  // and the db-dependent component is skipped entirely. Takes precedence
  // over shape_index. Must outlive the call.
  const std::vector<Shape>* precomputed_shapes = nullptr;
  // When non-null, both parallel phases — FindShapes and the dynamic-
  // simplification worklist — run on this caller-owned persistent
  // WorkerPool; its thread count overrides shape_threads and
  // simplify_threads. When null and either thread knob exceeds 1, the
  // check spawns ONE pool sized to the larger knob and threads it through
  // both phases itself, so a check pays one thread spawn, not one per
  // phase. Verdict and stats are identical either way (both phases are
  // deterministic in their thread count).
  WorkerPool* pool = nullptr;
};

struct LCheckStats {
  double shapes_ms = 0;  // t-shapes: the db-dependent component
  double graph_ms = 0;   // t-graph: dynamic simplification + graph build
  double comp_ms = 0;    // t-comp: find special SCCs
  size_t num_initial_shapes = 0;
  size_t num_derived_shapes = 0;
  size_t num_simplified_tgds = 0;
  size_t graph_nodes = 0;
  size_t graph_edges = 0;
  storage::AccessStats access;
};

// Algorithm 3. The TGDs must be linear with non-empty frontiers and over
// database.schema().
[[nodiscard]] StatusOr<bool> IsChaseFiniteL(const Database& database,
                              const std::vector<Tgd>& tgds,
                              const LCheckOptions& options = {},
                              LCheckStats* stats = nullptr);

// Reference implementation of the linear case via Theorem 3.6: statically
// simplify D and Σ and run Algorithm 1 on the result. Exponential in arity;
// used by tests and the static-vs-dynamic ablation. `max_simplified` caps
// |simple(Σ)|.
[[nodiscard]] StatusOr<bool> IsChaseFiniteLStatic(const Database& database,
                                    const std::vector<Tgd>& tgds,
                                    uint64_t max_simplified = 10'000'000);

}  // namespace chase

#endif  // CHASE_CORE_IS_CHASE_FINITE_H_
