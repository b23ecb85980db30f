// Fixture: the row-container rule covers src/chase/ only; a node-based set
// of rows elsewhere passes. Expect: clean.
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace fixture {

struct RowHash {
  size_t operator()(const std::vector<uint64_t>&) const { return 0; }
};

std::unordered_set<std::vector<uint64_t>, RowHash> seen;

}  // namespace fixture
