// Fixture: node-based hash containers keyed on a string under src/. Each
// name costs a heap node and each probe a pointer chase. Expect:
// node-string-container at all four declarations.
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace fixture {

std::unordered_map<std::string, uint32_t> ids;                  // BAD
std::unordered_set<std::string_view> seen;                      // BAD
std::unordered_map<string, uint32_t> unqualified;               // BAD
using Index = std::unordered_map< ::std::string_view, uint32_t>;  // BAD

}  // namespace fixture
