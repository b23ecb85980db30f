// A database: a finite set of facts (atoms over constants) grouped by
// predicate. Tuples are stored as flat, arity-strided arrays of interned
// constant ids — the same layout the storage engine scans.

#ifndef CHASE_LOGIC_DATABASE_H_
#define CHASE_LOGIC_DATABASE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "logic/schema.h"
#include "logic/symbols.h"

namespace chase {

class Database {
 public:
  // `schema` must outlive the database.
  explicit Database(const Schema* schema) : schema_(schema) {}

  const Schema& schema() const { return *schema_; }

  uint32_t InternConstant(std::string_view name) {
    return constants_.Intern(name);
  }

  // Generators use an anonymous integer domain {0, ..., size-1} instead of
  // interned names; anonymous constants print as "c<id>".
  void EnsureAnonymousDomain(uint64_t size) {
    anonymous_domain_ = std::max(anonymous_domain_, size);
  }

  std::string ConstantName(uint32_t constant_id) const {
    if (constant_id < constants_.size()) {
      return constants_.NameOf(constant_id);
    }
    return "c" + std::to_string(constant_id);
  }
  size_t NumConstants() const {
    return std::max<size_t>(constants_.size(), anonymous_domain_);
  }

  // Constants with interned names (ids [0, NumNamedConstants())); ids beyond
  // belong to the anonymous integer domain.
  size_t NumNamedConstants() const { return constants_.size(); }

  // Appends a fact; `tuple` must match the predicate arity.
  [[nodiscard]] Status AddFact(PredId pred, std::span<const uint32_t> tuple);

  // Appends a run of facts in one step: `bytes` holds arity-strided
  // constant ids as native-endian uint32 words at any alignment (the layout
  // ByteWriter::PutU32Span writes). Into an empty relation the append is
  // exact-size, with no growth slack. Fails, appending nothing, on an
  // unknown predicate or a length that is not a whole number of tuples.
  [[nodiscard]] Status AddFactBytes(PredId pred,
                                    std::span<const uint8_t> bytes);

  // Number of tuples currently stored for `pred`.
  size_t NumTuples(PredId pred) const {
    if (pred >= relations_.size()) return 0;
    const uint32_t arity = schema_->Arity(pred);
    return relations_[pred].size() / arity;
  }

  // Flat tuple storage for `pred` (stride = arity). Empty if no facts.
  std::span<const uint32_t> Tuples(PredId pred) const {
    static const std::vector<uint32_t> kEmpty;
    return pred < relations_.size() ? std::span<const uint32_t>(relations_[pred])
                                    : std::span<const uint32_t>(kEmpty);
  }

  // One tuple by index.
  std::span<const uint32_t> Tuple(PredId pred, size_t row) const {
    const uint32_t arity = schema_->Arity(pred);
    return std::span<const uint32_t>(relations_[pred])
        .subspan(row * arity, arity);
  }

  bool IsEmpty(PredId pred) const { return NumTuples(pred) == 0; }

  // The predicates with at least one fact; this is what the paper's catalog
  // query ("list of non-empty relations", Section 5.3) returns.
  std::vector<PredId> NonEmptyPredicates() const;

  size_t TotalFacts() const;

 private:
  const Schema* schema_;
  SymbolTable constants_;
  uint64_t anonymous_domain_ = 0;
  std::vector<std::vector<uint32_t>> relations_;  // indexed by PredId
};

}  // namespace chase

#endif  // CHASE_LOGIC_DATABASE_H_
