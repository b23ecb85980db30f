// Fixture: scan-layer code that passes — the stack-buffer writers, names
// that merely end in "IdOf", the banned calls in a comment or a string,
// and an allocating call off the scan path that says so. Expect: clean.
#include <cstdint>
#include <span>

#include "logic/shape.h"

namespace fixture {

uint32_t ParentIdOf(uint32_t page) { return page / 2; }

void Scan(chase::PredId pred, std::span<const uint32_t> tuple) {
  chase::IdBuffer buffer;
  chase::WriteIdOf(tuple, buffer.data());
  chase::ShapeView view = chase::ShapeViewOfTuple(pred, tuple, buffer);
  (void)view;
  (void)ParentIdOf(7);
  // Not IdOf(tuple): that would allocate.
  const char* message = "ShapeOfTuple(pred, tuple)";
  (void)message;
  // chase-lint: allow(scan-id-alloc) one diagnostic per failed scan, not
  // per tuple
  chase::Shape shape = chase::ShapeOfTuple(pred, tuple);
  (void)shape;
}

}  // namespace fixture
