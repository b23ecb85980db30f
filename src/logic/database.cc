#include "logic/database.h"

#include <cstring>

#include "base/status.h"
#include "logic/schema.h"

namespace chase {

Status Database::AddFact(PredId pred, std::span<const uint32_t> tuple) {
  if (pred >= schema_->NumPredicates()) {
    return InvalidArgumentError("unknown predicate id " + std::to_string(pred));
  }
  if (tuple.size() != schema_->Arity(pred)) {
    return InvalidArgumentError(
        "fact for '" + schema_->PredicateName(pred) + "' has " +
        std::to_string(tuple.size()) + " arguments, expected " +
        std::to_string(schema_->Arity(pred)));
  }
  if (pred >= relations_.size()) relations_.resize(pred + 1);
  relations_[pred].insert(relations_[pred].end(), tuple.begin(), tuple.end());
  return OkStatus();
}

Status Database::AddFactBytes(PredId pred, std::span<const uint8_t> bytes) {
  if (pred >= schema_->NumPredicates()) {
    return InvalidArgumentError("unknown predicate id " + std::to_string(pred));
  }
  const size_t stride = sizeof(uint32_t) * schema_->Arity(pred);
  if (bytes.size() % stride != 0) {
    return InvalidArgumentError(
        "facts for '" + schema_->PredicateName(pred) + "' are " +
        std::to_string(bytes.size()) + " bytes, not a multiple of " +
        std::to_string(stride) + " (arity " +
        std::to_string(schema_->Arity(pred)) + ")");
  }
  if (bytes.empty()) return OkStatus();
  if (pred >= relations_.size()) relations_.resize(pred + 1);
  std::vector<uint32_t>& relation = relations_[pred];
  const size_t old_size = relation.size();
  if (old_size == 0) relation.reserve(bytes.size() / sizeof(uint32_t));
  relation.resize(old_size + bytes.size() / sizeof(uint32_t));
  std::memcpy(relation.data() + old_size, bytes.data(), bytes.size());
  return OkStatus();
}

std::vector<PredId> Database::NonEmptyPredicates() const {
  std::vector<PredId> preds;
  for (PredId pred = 0; pred < relations_.size(); ++pred) {
    if (!relations_[pred].empty()) preds.push_back(pred);
  }
  return preds;
}

size_t Database::TotalFacts() const {
  size_t total = 0;
  for (PredId pred = 0; pred < relations_.size(); ++pred) {
    total += NumTuples(pred);
  }
  return total;
}

}  // namespace chase
