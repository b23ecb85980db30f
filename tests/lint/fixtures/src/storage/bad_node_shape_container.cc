// Fixture: node-based hash containers keyed on Shape under src/. Each
// probe chases a node and a heap id-tuple. Expect: node-shape-container
// at all three declarations.
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

namespace fixture {

struct Shape {};
struct ShapeHash {
  size_t operator()(const Shape&) const { return 0; }
};

std::unordered_set<Shape, ShapeHash> seen;                 // BAD
std::unordered_map<Shape, uint32_t, ShapeHash> interned;   // BAD
using Index = std::unordered_set< ::chase::Shape, ShapeHash>;  // BAD

}  // namespace fixture
