#include "index/find_shapes.h"

#include <algorithm>

#include "base/status.h"
#include "index/shape_index.h"
#include "logic/shape.h"
#include "obs/trace.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace index {

StatusOr<std::vector<Shape>> FindShapes(
    const storage::ShapeSource& source,
    const storage::FindShapesOptions& options) {
  if (options.mode != storage::ShapeFinderMode::kIndex) {
    return storage::FindShapes(source, options);
  }
  const unsigned threads = std::max(1u, options.threads);
  obs::TraceSpan find_span("storage", "find_shapes", "mode",
                           static_cast<int64_t>(options.mode), "threads",
                           static_cast<int64_t>(threads));
  // Same metering as storage::FindShapes: publish this run's access-stats
  // delta on every exit path.
  storage::ScopedAccessStatsMirror stats_mirror(source);
  CHASE_ASSIGN_OR_RETURN(
      ShapeIndex idx, ShapeIndex::Build(source, threads));
  return idx.CurrentShapes();
}

}  // namespace index
}  // namespace chase
