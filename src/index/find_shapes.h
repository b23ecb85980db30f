// index::FindShapes: an alias of storage::FindShapes (storage/shape_finder.h),
// kept for callers that still include this header. New code calls
// storage::FindShapes directly.

#ifndef CHASE_INDEX_FIND_SHAPES_H_
#define CHASE_INDEX_FIND_SHAPES_H_

#include "storage/shape_finder.h"

namespace chase {
namespace index {

using storage::FindShapes;

}  // namespace index
}  // namespace chase

#endif  // CHASE_INDEX_FIND_SHAPES_H_
