// A (finite prefix of a possibly infinite) instance: a deduplicated set of
// ground atoms over constants and labelled nulls, grouped by predicate. This
// is the structure the chase engines grow.
//
// Layout: each predicate's atoms are the rows of one RowSet — a row-major
// std::vector<Term> of arity-wide rows in insertion order. Membership is an
// open-addressing table of uint32_t row ids per predicate that hashes into
// those rows, so no atom is stored twice and no atom has a heap block of
// its own: an atom of arity k costs its 8k bytes of terms plus 4 bytes per
// table slot (the table is at most half full). A row id is the atom's
// position within its predicate, which is what RoundView windows, RowIndex
// postings and the CHCK checkpoint's relations all count in.
//
// The chase's fired-trigger tables are RowSets too, one per rule, whose
// width is the trigger key's (|fr(σ)| or the number of universal
// variables). A set keeps its own row count, so width 0 — a rule with an
// empty frontier — holds its one row.

#ifndef CHASE_CHASE_INSTANCE_H_
#define CHASE_CHASE_INSTANCE_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/term.h"

namespace chase {

// A deduplicated, insertion-ordered set of fixed-width rows of terms. Row
// ids are dense (0, 1, 2, ...) and stable. The hash table is a power-of-two
// array of row ids, probed linearly and kept at most half full; rows are
// hashed with Mix64 (base/hash.h) so terms that differ only in the null tag
// do not collide. No erase. Not thread-safe: concurrent reads are fine,
// anything alongside an Insert needs the caller's ordering.
class RowSet {
 public:
  // Rows per set: row ids and the table's slots are 32-bit, with one value
  // reserved for an empty slot.
  static constexpr size_t kMaxRows = UINT32_MAX - 1;

  explicit RowSet(uint32_t width = 0) : width_(width) {}

  uint32_t width() const { return width_; }
  size_t size() const { return size_; }

  std::span<const Term> operator[](size_t row) const {
    return {terms_.data() + row * width_, width_};
  }

  // Every row, row-major: size() * width() terms.
  const std::vector<Term>& terms() const { return terms_; }

  // Appends `row` unless an equal row is present; true iff it was appended.
  // row.size() must be width(). Throws std::length_error past kMaxRows.
  bool Insert(std::span<const Term> row);

  bool Contains(std::span<const Term> row) const;

  // Makes room for `rows` rows in total without regrowing.
  void Reserve(size_t rows);

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  static uint64_t Hash(std::span<const Term> row);
  bool Equal(uint32_t id, std::span<const Term> row) const;
  // The slot holding `row`'s id, or the empty slot that ends its probe run
  // (`hash` is Hash(row)). Needs a non-empty table.
  size_t Probe(std::span<const Term> row, uint64_t hash) const;
  void Rehash(size_t slots);

  uint32_t width_;
  size_t size_ = 0;
  std::vector<Term> terms_;
  std::vector<uint32_t> slots_;  // row ids; kEmpty marks a free slot
};

class Instance {
 public:
  explicit Instance(const Schema* schema);

  // Seeds an instance with the facts of `database`.
  static Instance FromDatabase(const Database& database);

  const Schema& schema() const { return *schema_; }

  // Adds the atom pred(args); returns true iff it was not already present.
  // `pred` must be in the schema and args.size() its arity.
  bool AddAtom(PredId pred, std::span<const Term> args) {
    if (pred >= relations_.size()) Cover(pred);
    assert(args.size() == relations_[pred].width());
    if (!relations_[pred].Insert(args)) return false;
    ++num_atoms_;
    return true;
  }

  bool Contains(PredId pred, std::span<const Term> args) const {
    return pred < relations_.size() && relations_[pred].Contains(args);
  }

  // The atoms of `pred`, as rows [0, NumRows(pred)) in insertion order.
  size_t NumRows(PredId pred) const {
    return pred < relations_.size() ? relations_[pred].size() : 0;
  }
  std::span<const Term> Row(PredId pred, size_t row) const {
    return relations_[pred][row];
  }
  // The rows of `pred`, row-major (NumRows(pred) * arity terms).
  std::span<const Term> Terms(PredId pred) const {
    if (pred >= relations_.size()) return {};
    return relations_[pred].terms();
  }

  size_t NumAtoms() const { return num_atoms_; }

  // Allocates a fresh null id (never reused).
  uint64_t NewNullId() { return next_null_++; }

  // Number of null ids allocated so far (= the next id to be handed out).
  uint64_t NumNulls() const { return next_null_; }

  // Restores the null counter when rebuilding an instance from a chase
  // checkpoint (chase/chase_engine.cc resume path), so fresh nulls in the
  // continued run are numbered exactly as in the uninterrupted one.
  void SetNextNull(uint64_t next_null) { next_null_ = next_null; }

  // Iterates all atoms (by predicate, insertion order within predicate).
  // The atom handed to `fn` is one reused scratch: copy it to keep it.
  template <typename Fn>
  void ForEachAtom(Fn&& fn) const {
    GroundAtom atom;
    for (PredId pred = 0; pred < relations_.size(); ++pred) {
      atom.pred = pred;
      for (size_t row = 0; row < relations_[pred].size(); ++row) {
        const std::span<const Term> args = relations_[pred][row];
        atom.args.assign(args.begin(), args.end());
        fn(std::as_const(atom));
      }
    }
  }

 private:
  // Extends relations_ through `pred`, for predicates the schema gained
  // after construction.
  void Cover(PredId pred);

  const Schema* schema_;
  std::vector<RowSet> relations_;  // [pred], width = arity
  size_t num_atoms_ = 0;
  uint64_t next_null_ = 0;
};

}  // namespace chase

#endif  // CHASE_CHASE_INSTANCE_H_
