// Fixture: allocating id-tuple builders in a scan layer. Each call builds
// a heap IdTuple, an allocation per tuple inside a scan loop. Expect:
// scan-id-alloc at all four calls.
#include <cstdint>
#include <span>

#include "logic/shape.h"

namespace fixture {

void Scan(chase::PredId pred, std::span<const uint32_t> tuple) {
  chase::IdTuple id = chase::IdOf(tuple);                  // BAD
  chase::IdTuple typed = chase::IdOf<uint32_t>(tuple);     // BAD
  chase::Shape shape = chase::ShapeOfTuple(pred, tuple);   // BAD
  chase::Shape spaced = ShapeOfTuple (pred, tuple);        // BAD
}

}  // namespace fixture
