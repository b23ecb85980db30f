// Shapes of atoms (Section 3 of the paper).
//
// For a tuple t̄ = (t1, ..., tn), unique(t̄) keeps the first occurrence of
// each term, and id(t̄) maps each ti to the (1-based) index of ti within
// unique(t̄). E.g. t̄ = (x, y, x, z, y) gives unique(t̄) = (x, y, z) and
// id(t̄) = (1, 2, 1, 3, 2). The shape of an atom R(t̄) is the pair
// (R, id(t̄)); the simplification of R(t̄) is the atom R_{id(t̄)}(unique(t̄)).
//
// id-tuples are exactly the restricted-growth strings over [1, n]:
// id[0] == 1 and id[i] <= max(id[0..i-1]) + 1. They are in bijection with
// the set partitions of the positions [1, n], so the number of shapes of an
// arity-n predicate is the Bell number B(n).
//
// A Shape owns its id-tuple; a ShapeView borrows one (typically a stack
// IdBuffer filled by ShapeViewOfTuple) and hashes and compares exactly like
// the Shape it views. ShapeSet is a FlatSet (base/flat_set.h) of shapes:
// insertion-ordered, with dense item indices, probed through ShapeViews, so
// a per-tuple lookup that hits an existing shape allocates nothing. The
// scan plan and ShapeSchema's interning (the index is the simplified
// PredId) key shapes this way.

#ifndef CHASE_LOGIC_SHAPE_H_
#define CHASE_LOGIC_SHAPE_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/flat_set.h"
#include "logic/schema.h"

namespace chase {

using IdTuple = std::vector<uint8_t>;

// Writes id(t̄) for any term-like tuple into id[0, tuple.size()).
template <typename T>
void WriteIdOf(std::span<const T> tuple, uint8_t* id) {
  uint8_t next = 1;
  for (size_t i = 0; i < tuple.size(); ++i) {
    uint8_t assigned = 0;
    for (size_t j = 0; j < i; ++j) {
      if (tuple[j] == tuple[i]) {
        assigned = id[j];
        break;
      }
    }
    id[i] = assigned != 0 ? assigned : next++;
  }
}

// Computes id(t̄) for any term-like tuple.
template <typename T>
IdTuple IdOf(std::span<const T> tuple) {
  IdTuple id(tuple.size());
  WriteIdOf(tuple, id.data());
  return id;
}

// Computes unique(t̄).
template <typename T>
std::vector<T> UniqueOf(std::span<const T> tuple) {
  std::vector<T> unique;
  for (size_t i = 0; i < tuple.size(); ++i) {
    bool seen = false;
    for (size_t j = 0; j < i; ++j) {
      if (tuple[j] == tuple[i]) {
        seen = true;
        break;
      }
    }
    if (!seen) unique.push_back(tuple[i]);
  }
  return unique;
}

// A borrowed shape: the id-tuple is a view, valid while its owner is.
struct ShapeView {
  PredId pred = 0;
  std::span<const uint8_t> id;

  ShapeView(PredId p, std::span<const uint8_t> i) : pred(p), id(i) {}

  friend bool operator==(ShapeView a, ShapeView b) {
    return a.pred == b.pred && std::ranges::equal(a.id, b.id);
  }
};

struct Shape {
  PredId pred = 0;
  IdTuple id;

  Shape() = default;
  Shape(PredId p, IdTuple i) : pred(p), id(std::move(i)) {}
  // Copies the viewed id-tuple: the one place a view becomes an owner.
  explicit Shape(ShapeView view)
      : pred(view.pred), id(view.id.begin(), view.id.end()) {}

  operator ShapeView() const { return ShapeView(pred, id); }

  // Number of distinct blocks, i.e., the arity of the simplified predicate
  // R_{id}.
  uint32_t NumDistinct() const {
    uint8_t max_id = 0;
    for (uint8_t v : id) max_id = v > max_id ? v : max_id;
    return max_id;
  }

  friend bool operator==(const Shape& a, const Shape& b) {
    return a.pred == b.pred && a.id == b.id;
  }
  friend bool operator<(const Shape& a, const Shape& b) {
    if (a.pred != b.pred) return a.pred < b.pred;
    return a.id < b.id;
  }
};

// Hashes a Shape and a ShapeView of it alike (a Shape converts to its
// view), so either can probe a ShapeSet.
struct ShapeHash {
  size_t operator()(ShapeView shape) const {
    uint64_t h = 0x9e3779b97f4a7c15ULL ^ shape.pred;
    for (uint8_t v : shape.id) h = (h ^ v) * 0x100000001b3ULL;
    return static_cast<size_t>(h);
  }
};

using ShapeSet = FlatSet<Shape, ShapeHash>;

// The shape of a ground tuple of predicate `pred`.
Shape ShapeOfTuple(PredId pred, std::span<const uint32_t> tuple);

// Scratch for one id-tuple: every schema arity fits (Schema::kMaxArity).
using IdBuffer = std::array<uint8_t, Schema::kMaxArity>;

// The shape of a ground tuple as a view over `buffer`, which receives
// id(t̄): no allocation. Precondition: tuple.size() <= Schema::kMaxArity,
// which every relation of a Schema satisfies.
inline ShapeView ShapeViewOfTuple(PredId pred,
                                  std::span<const uint32_t> tuple,
                                  IdBuffer& buffer) {
  WriteIdOf(tuple, buffer.data());
  return ShapeView(pred, std::span<const uint8_t>(buffer.data(), tuple.size()));
}

// "R_[1,2,1]" — used in diagnostics and as the interned name of the
// simplified predicate R_{id}.
std::string ShapeName(const Schema& schema, const Shape& shape);

// All id-tuples of length `arity` (all restricted-growth strings), i.e., all
// shapes of an arity-`arity` predicate. Ordered lexicographically, from the
// all-equal tuple (1, ..., 1) to the all-distinct tuple (1, 2, ..., n).
std::vector<IdTuple> EnumerateIdTuples(uint32_t arity);

// The Bell number B(n) = |EnumerateIdTuples(n)| without enumerating;
// saturates at uint64 max.
uint64_t BellNumber(uint32_t n);

// The coarsening relation on id-tuples of equal length: `a` is coarser than
// or equal to `b` iff every equality in `b` also holds in `a` (i.e., `a`
// merges at least the positions `b` merges). Used by the Apriori pruning in
// the in-database shape finder.
bool CoarserOrEqual(const IdTuple& a, const IdTuple& b);

// Canonical id-tuple obtained from `id` by merging the blocks containing
// positions i and j.
IdTuple MergeBlocks(const IdTuple& id, uint32_t i, uint32_t j);

}  // namespace chase

#endif  // CHASE_LOGIC_SHAPE_H_
