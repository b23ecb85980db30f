// Fixture: shape tables that pass — the flat set, a container whose key
// merely starts with "Shape", a Shape held as a mapped value, and a
// node-based map that needs erase and says so. Expect: clean.
#include <cstdint>
#include <unordered_map>

#include "base/flat_set.h"

namespace fixture {

struct Shape {};
struct ShapeHash {
  size_t operator()(const Shape&) const { return 0; }
};
using ShapeId = uint32_t;

chase::FlatSet<Shape, ShapeHash> seen;
std::unordered_map<ShapeId, uint64_t> counts_by_id;
std::unordered_map<uint64_t, Shape> shape_by_fingerprint;
// chase-lint: allow(node-shape-container) counts drop to zero and are
// erased, which the flat set cannot do
std::unordered_map<Shape, uint64_t, ShapeHash> live_counts;

}  // namespace fixture
