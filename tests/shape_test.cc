#include <gtest/gtest.h>

#include <set>

#include "core/specialization.h"
#include "logic/schema.h"
#include "logic/shape.h"

namespace chase {
namespace {

template <typename T>
IdTuple Id(std::vector<T> tuple) {
  return IdOf(std::span<const T>(tuple));
}

TEST(ShapeTest, IdOfPaperExample) {
  // Section 3: t̄ = (x, y, x, z, y) gives id(t̄) = (1, 2, 1, 3, 2).
  EXPECT_EQ(Id<int>({10, 20, 10, 30, 20}), (IdTuple{1, 2, 1, 3, 2}));
}

TEST(ShapeTest, UniqueOfPaperExample) {
  std::vector<int> tuple = {10, 20, 10, 30, 20};
  EXPECT_EQ(UniqueOf(std::span<const int>(tuple)),
            (std::vector<int>{10, 20, 30}));
}

TEST(ShapeTest, IdOfEdgeCases) {
  EXPECT_EQ(Id<int>({5}), (IdTuple{1}));
  EXPECT_EQ(Id<int>({5, 5, 5}), (IdTuple{1, 1, 1}));
  EXPECT_EQ(Id<int>({1, 2, 3}), (IdTuple{1, 2, 3}));
}

TEST(ShapeTest, ShapeOfTuple) {
  std::vector<uint32_t> tuple = {4, 4, 9};
  Shape shape = ShapeOfTuple(3, tuple);
  EXPECT_EQ(shape.pred, 3u);
  EXPECT_EQ(shape.id, (IdTuple{1, 1, 2}));
  EXPECT_EQ(shape.NumDistinct(), 2u);
}

TEST(ShapeTest, EqualityAndHash) {
  Shape a(1, {1, 1, 2});
  Shape b(1, {1, 1, 2});
  Shape c(1, {1, 2, 2});
  Shape d(2, {1, 1, 2});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
  ShapeHash hash;
  EXPECT_EQ(hash(a), hash(b));
  ShapeSet set;
  for (const Shape& shape : {a, b, c, d}) set.Insert(shape);
  EXPECT_EQ(set.size(), 3u);
}

TEST(ShapeTest, ShapeNameFormatting) {
  Schema schema;
  const PredId r = schema.AddPredicate("r", 3).value();
  EXPECT_EQ(ShapeName(schema, Shape(r, {1, 1, 2})), "r_[1,1,2]");
}

TEST(ShapeTest, EnumerateIdTuplesMatchesBellNumbers) {
  // B(1..6) = 1, 2, 5, 15, 52, 203.
  const uint64_t expected[] = {1, 2, 5, 15, 52, 203};
  for (uint32_t arity = 1; arity <= 6; ++arity) {
    auto tuples = EnumerateIdTuples(arity);
    EXPECT_EQ(tuples.size(), expected[arity - 1]) << "arity " << arity;
    EXPECT_EQ(BellNumber(arity), expected[arity - 1]);
    // All distinct, all valid restricted-growth strings.
    std::set<IdTuple> distinct(tuples.begin(), tuples.end());
    EXPECT_EQ(distinct.size(), tuples.size());
    for (const IdTuple& id : tuples) {
      uint8_t max_seen = 0;
      for (uint8_t v : id) {
        EXPECT_LE(v, max_seen + 1);
        max_seen = std::max(max_seen, v);
      }
      EXPECT_EQ(id[0], 1);
    }
    // Lexicographic order: all-equal first, all-distinct last.
    for (uint32_t i = 0; i < arity; ++i) {
      EXPECT_EQ(tuples.front()[i], 1);
      EXPECT_EQ(tuples.back()[i], i + 1);
    }
    EXPECT_TRUE(std::is_sorted(tuples.begin(), tuples.end()));
  }
}

TEST(ShapeTest, BellNumbersLargeValues) {
  EXPECT_EQ(BellNumber(0), 1u);
  EXPECT_EQ(BellNumber(10), 115975u);
  EXPECT_EQ(BellNumber(11), 678570u);
  // Saturation, not overflow.
  EXPECT_EQ(BellNumber(60), UINT64_MAX);
}

TEST(ShapeTest, CoarserOrEqual) {
  // [1,1,2] merges positions {0,1}; it is coarser than [1,2,3].
  EXPECT_TRUE(CoarserOrEqual({1, 1, 2}, {1, 2, 3}));
  EXPECT_FALSE(CoarserOrEqual({1, 2, 3}, {1, 1, 2}));
  EXPECT_TRUE(CoarserOrEqual({1, 1, 1}, {1, 1, 2}));
  EXPECT_FALSE(CoarserOrEqual({1, 1, 2}, {1, 2, 2}));
  EXPECT_TRUE(CoarserOrEqual({1, 2, 1}, {1, 2, 1}));
}

TEST(ShapeTest, MergeBlocks) {
  EXPECT_EQ(MergeBlocks({1, 2, 3}, 0, 1), (IdTuple{1, 1, 2}));
  EXPECT_EQ(MergeBlocks({1, 2, 3}, 1, 2), (IdTuple{1, 2, 2}));
  EXPECT_EQ(MergeBlocks({1, 2, 3}, 0, 2), (IdTuple{1, 2, 1}));
  EXPECT_EQ(MergeBlocks({1, 2, 1}, 0, 1), (IdTuple{1, 1, 1}));
}

TEST(ShapeTest, MergeBlocksCoversAllCoarserings) {
  // Every coarser partition is reachable by successive merges: check the
  // one-step children of [1,2,3,4] are all distinct and valid.
  IdTuple base = {1, 2, 3, 4};
  std::set<IdTuple> children;
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t j = i + 1; j < 4; ++j) {
      IdTuple child = MergeBlocks(base, i, j);
      EXPECT_TRUE(CoarserOrEqual(child, base));
      children.insert(child);
    }
  }
  EXPECT_EQ(children.size(), 6u);  // C(4,2) distinct single merges
}

TEST(SpecializationTest, CountsAreBellNumbers) {
  EXPECT_EQ(EnumerateSpecializations(0).size(), 1u);
  EXPECT_EQ(EnumerateSpecializations(1).size(), 1u);
  EXPECT_EQ(EnumerateSpecializations(2).size(), 2u);
  EXPECT_EQ(EnumerateSpecializations(3).size(), 5u);
  EXPECT_EQ(EnumerateSpecializations(4).size(), 15u);
  EXPECT_EQ(EnumerateSpecializations(5).size(), 52u);
}

TEST(SpecializationTest, AllValidAndDistinct) {
  auto specs = EnumerateSpecializations(4);
  std::set<Specialization> distinct(specs.begin(), specs.end());
  EXPECT_EQ(distinct.size(), specs.size());
  for (const Specialization& f : specs) {
    EXPECT_TRUE(IsValidSpecialization(f));
  }
}

TEST(SpecializationTest, ValidityChecks) {
  EXPECT_TRUE(IsValidSpecialization({0, 0, 2}));
  EXPECT_TRUE(IsValidSpecialization({0, 1, 1}));
  EXPECT_FALSE(IsValidSpecialization({1, 1}));     // f[0] > 0
  EXPECT_FALSE(IsValidSpecialization({0, 0, 1}));  // f[2]=1 not a rep
}

TEST(SpecializationTest, FromIdValues) {
  // Paper example (Section 4.2): h maps R(x,y,x,z) to R(1,1,1,2); the
  // h-specialization sends x->x, y->x, z->z. Distinct vars (x,y,z) carry id
  // values (1,1,2).
  Specialization f = SpecializationFromIdValues({1, 1, 2});
  EXPECT_EQ(f, (Specialization{0, 0, 2}));
  EXPECT_TRUE(IsValidSpecialization(f));
}

TEST(SpecializationTest, FromIdValuesIdentity) {
  EXPECT_EQ(SpecializationFromIdValues({1, 2, 3}),
            (Specialization{0, 1, 2}));
  EXPECT_EQ(SpecializationFromIdValues({1, 1, 1}),
            (Specialization{0, 0, 0}));
}

}  // namespace
}  // namespace chase
