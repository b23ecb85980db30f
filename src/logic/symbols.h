// String interning. Predicate names and constant names are interned into
// dense 32-bit ids so the rest of the library works on integers.

#ifndef CHASE_LOGIC_SYMBOLS_H_
#define CHASE_LOGIC_SYMBOLS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace chase {

class SymbolTable {
 public:
  SymbolTable() = default;

  // Returns the id of `name`, interning it on first use.
  uint32_t Intern(std::string_view name);

  // Returns the id of `name` if present.
  std::optional<uint32_t> Find(std::string_view name) const;

  const std::string& NameOf(uint32_t id) const { return names_[id]; }

  size_t size() const { return names_.size(); }

 private:
  // Hashes std::string and std::string_view alike, so lookups by view
  // build no temporary string.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<std::string> names_;
  std::unordered_map<std::string, uint32_t, Hash, std::equal_to<>> index_;
};

}  // namespace chase

#endif  // CHASE_LOGIC_SYMBOLS_H_
