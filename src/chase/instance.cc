#include "chase/instance.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "base/hash.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/term.h"

namespace chase {
namespace {

constexpr size_t kMinSlots = 8;

}  // namespace

bool RowSet::Insert(std::span<const Term> row) {
  const uint64_t hash = Hash(row);
  size_t slot = 0;
  if (!slots_.empty()) {
    slot = Probe(row, hash);
    if (slots_[slot] != kEmpty) return false;
  }
  if (size_ >= kMaxRows) {
    throw std::length_error("RowSet holds at most 2^32 - 2 rows");
  }
  // Load stays at or below one half; a rehash moves every id, so the free
  // slot is found again.
  if (2 * (size_ + 1) > slots_.size()) {
    Rehash(std::max(kMinSlots, 2 * slots_.size()));
    slot = Probe(row, hash);
  }
  slots_[slot] = static_cast<uint32_t>(size_);
  terms_.insert(terms_.end(), row.begin(), row.end());
  ++size_;
  return true;
}

bool RowSet::Contains(std::span<const Term> row) const {
  return !slots_.empty() && slots_[Probe(row, Hash(row))] != kEmpty;
}

void RowSet::Reserve(size_t rows) {
  terms_.reserve(rows * width_);
  size_t slots = slots_.size();
  while (2 * rows > slots) slots = std::max(kMinSlots, 2 * slots);
  if (slots != slots_.size()) Rehash(slots);
}

uint64_t RowSet::Hash(std::span<const Term> row) {
  uint64_t hash = 0;
  for (Term term : row) hash = Mix64(hash ^ term);
  return hash;
}

bool RowSet::Equal(uint32_t id, std::span<const Term> row) const {
  return std::equal(row.begin(), row.end(),
                    terms_.begin() + size_t{id} * width_);
}

size_t RowSet::Probe(std::span<const Term> row, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  size_t slot = hash & mask;
  while (slots_[slot] != kEmpty && !Equal(slots_[slot], row)) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void RowSet::Rehash(size_t slots) {
  slots_.assign(slots, kEmpty);
  const size_t mask = slots - 1;
  for (uint32_t id = 0; id < size_; ++id) {
    size_t slot = Hash((*this)[id]) & mask;
    while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
    slots_[slot] = id;
  }
}

Instance::Instance(const Schema* schema) : schema_(schema) {
  relations_.reserve(schema->NumPredicates());
  for (PredId pred = 0; pred < schema->NumPredicates(); ++pred) {
    relations_.emplace_back(schema->Arity(pred));
  }
}

void Instance::Cover(PredId pred) {
  assert(pred < schema_->NumPredicates());
  for (PredId next = relations_.size(); next <= pred; ++next) {
    relations_.emplace_back(schema_->Arity(next));
  }
}

Instance Instance::FromDatabase(const Database& database) {
  Instance instance(&database.schema());
  std::vector<Term> args;
  for (PredId pred : database.NonEmptyPredicates()) {
    const size_t rows = database.NumTuples(pred);
    instance.relations_[pred].Reserve(rows);
    for (size_t row = 0; row < rows; ++row) {
      args.clear();
      for (uint32_t constant : database.Tuple(pred, row)) {
        args.push_back(MakeConstant(constant));
      }
      instance.AddAtom(pred, args);
    }
  }
  return instance;
}

}  // namespace chase
