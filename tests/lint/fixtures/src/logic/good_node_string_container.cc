// Fixture: name tables that pass — the flat set, a short vector searched
// linearly, a string held as a mapped value, a key type that merely starts
// with "string", and a node-based map that needs erase and says so.
// Expect: clean.
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/flat_set.h"

namespace fixture {

struct NameHash {
  size_t operator()(std::string_view) const { return 0; }
};
struct stringish {};

chase::FlatSet<std::string, NameHash> names;
std::vector<std::string_view> var_ids;
std::unordered_map<uint32_t, std::string> name_by_id;
std::unordered_map<stringish, uint32_t> other;
// chase-lint: allow(node-string-container) sessions end and are erased,
// which the flat set cannot do
std::unordered_map<std::string, uint64_t> live_sessions;

}  // namespace fixture
