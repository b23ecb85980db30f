// Fixture: node-based hash containers keyed on a row of terms under
// src/chase/. Each stores a second, heap-allocated copy of every row.
// Expect: node-row-container at all four declarations.
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fixture {

using Term = uint64_t;
struct GroundAtom {};
struct RowHash {
  size_t operator()(const std::vector<uint64_t>&) const { return 0; }
};

std::unordered_set<GroundAtom, RowHash> membership;                  // BAD
std::unordered_set<std::vector<uint64_t>, RowHash> fired;            // BAD
std::unordered_map<std::vector<Term>, uint32_t, RowHash> row_of;     // BAD
using KeySet = std::unordered_set< ::chase::GroundAtom, RowHash>;    // BAD

}  // namespace fixture
