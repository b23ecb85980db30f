#include "logic/schema.h"

#include "base/status.h"

#include <algorithm>

namespace chase {

StatusOr<PredId> Schema::AddPredicate(std::string_view name, uint32_t arity) {
  if (arity == 0) {
    return InvalidArgumentError("predicate '" + std::string(name) +
                                "' must have positive arity");
  }
  if (arity > kMaxArity) {
    return InvalidArgumentError(
        "predicate '" + std::string(name) + "' declares arity " +
        std::to_string(arity) + " but the maximum supported arity is " +
        std::to_string(kMaxArity));
  }
  const size_t num_predicates = names_.size();
  const PredId id = names_.Intern(name);
  if (names_.size() == num_predicates) {
    return AlreadyExistsError("predicate '" + std::string(name) +
                              "' already declared");
  }
  arities_.push_back(arity);
  offsets_.push_back(total_positions_);
  total_positions_ += arity;
  return id;
}

StatusOr<PredId> Schema::GetOrAddPredicate(std::string_view name,
                                           uint32_t arity) {
  if (auto existing = names_.Find(name); existing.has_value()) {
    if (arities_[*existing] != arity) {
      return InvalidArgumentError(
          "predicate '" + std::string(name) + "' used with arity " +
          std::to_string(arity) + " but declared with arity " +
          std::to_string(arities_[*existing]));
    }
    return *existing;
  }
  return AddPredicate(name, arity);
}

std::optional<PredId> Schema::FindPredicate(std::string_view name) const {
  return names_.Find(name);
}

Position Schema::PositionFromId(uint32_t position_id) const {
  // offsets_ is sorted; find the last offset <= position_id.
  auto it = std::upper_bound(offsets_.begin(), offsets_.end(), position_id);
  const auto pred = static_cast<PredId>(it - offsets_.begin() - 1);
  return Position{pred, position_id - offsets_[pred]};
}

uint32_t Schema::MaxArity() const {
  uint32_t max_arity = 0;
  for (uint32_t arity : arities_) max_arity = std::max(max_arity, arity);
  return max_arity;
}

}  // namespace chase
