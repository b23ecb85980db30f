// String interning. Predicate names and constant names are interned into
// dense 32-bit ids so the rest of the library works on integers.
//
// Ids are dense in first-use order: the first name interned is 0, the next
// new name 1, and so on; re-interning a name returns its existing id. The
// table owns one copy of each name, kept in a flat, insertion-ordered
// FlatSet (base/flat_set.h) that is probed by std::string_view, so a lookup
// of a name already present builds no string. A reference returned by
// NameOf is invalidated by a later Intern of a new name (the names may
// move when the table grows).

#ifndef CHASE_LOGIC_SYMBOLS_H_
#define CHASE_LOGIC_SYMBOLS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "base/flat_set.h"

namespace chase {

class SymbolTable {
 public:
  SymbolTable() = default;

  // Returns the id of `name`, interning it on first use.
  uint32_t Intern(std::string_view name) { return names_.Insert(name).first; }

  // Returns the id of `name` if present.
  std::optional<uint32_t> Find(std::string_view name) const {
    const uint32_t id = names_.Find(name);
    if (id == Names::kNotFound) return std::nullopt;
    return id;
  }

  const std::string& NameOf(uint32_t id) const { return names_[id]; }

  size_t size() const { return names_.size(); }

 private:
  // Hashes std::string and std::string_view alike, so lookups by view
  // build no temporary string.
  struct Hash {
    size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };
  using Names = FlatSet<std::string, Hash>;

  Names names_;
};

}  // namespace chase

#endif  // CHASE_LOGIC_SYMBOLS_H_
