// Figure 4: runtime of FindShapes, in-database implementation, vs n-tuples.

#include "storage/shape_finder.h"

namespace {
constexpr chase::storage::ShapeFinderMode kFinderMode =
    chase::storage::ShapeFinderMode::kExists;
constexpr const char* kFigureTitle =
    "Figure 4: FindShapes runtime (in-database) vs n-tuples";
}  // namespace

#include "findshapes_bench.inc"
