// index::FindShapes: the full plan dispatcher for shape(D), including the
// Section 10 index-backed plan (ShapeFinderMode::kIndex).
//
// storage::FindShapes implements the paper's two query plans (scan and
// exists) but sits below index/ in the layer DAG (tools/lint/layers.toml),
// so it cannot build a ShapeIndex. This entry point completes the
// dispatch one layer up: kIndex builds the materialized index over the
// source and extracts shape(D) from it; every other mode
// delegates straight to storage::FindShapes. Callers that may ever request
// kIndex — the termination checkers, the CLI, the differential sweeps —
// call this one; callers pinned to scan/exists may keep calling storage.
//
// All mode × backend × thread combinations return the same sorted set; the
// property test in tests/shape_source_test.cc enforces this across the
// dispatcher too.

#ifndef CHASE_INDEX_FIND_SHAPES_H_
#define CHASE_INDEX_FIND_SHAPES_H_

#include <vector>

#include "base/status.h"
#include "logic/shape.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace index {

// Returns shape(D) sorted by (pred, id), computed over `source` with the
// requested plan and parallelism. Identical contract and metering to
// storage::FindShapes, plus the kIndex plan.
[[nodiscard]] StatusOr<std::vector<Shape>> FindShapes(
    const storage::ShapeSource& source,
    const storage::FindShapesOptions& options = {});

}  // namespace index
}  // namespace chase

#endif  // CHASE_INDEX_FIND_SHAPES_H_
