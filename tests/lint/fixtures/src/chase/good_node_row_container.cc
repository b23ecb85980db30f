// Fixture: row tables that pass under src/chase/ — containers keyed on a
// scalar, a row held as a mapped value, a vector of another element type,
// and a node-based set that needs erase and says so. Expect: clean.
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fixture {

using Term = uint64_t;
struct GroundAtom {};
struct RowHash {
  size_t operator()(const std::vector<uint32_t>&) const { return 0; }
};

std::unordered_map<uint64_t, std::vector<Term>> rows_by_id;
std::unordered_set<Term> terms;
std::unordered_set<std::vector<uint32_t>, RowHash> columns;
// chase-lint: allow(node-row-container) retracted atoms are erased, which
// RowSet cannot do
std::unordered_set<GroundAtom, RowHash> live;

}  // namespace fixture
