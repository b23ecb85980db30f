// ShapeIndex maintenance: insert and remove keep per-shape tuple counts, and
// any interleaving of inserts and removes leaves the index equal to a
// recomputation over the surviving tuples. The parallel build, concurrency,
// persistence and index-fed check suites live in sharded_shape_index_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "base/rng.h"
#include "index/shape_index.h"
#include "logic/shape.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

using index::ShapeIndex;
using storage::ShapeFinderMode;

using ShapeCounts = std::map<Shape, uint64_t>;

// The scan plan over the row store: an independent algorithm the index's
// shape set must match.
std::vector<Shape> ScanShapes(const Database& db) {
  storage::Catalog catalog(&db);
  auto shapes = storage::FindShapes(storage::MemoryShapeSource(&catalog),
                                    {ShapeFinderMode::kScan, 1});
  EXPECT_TRUE(shapes.ok()) << shapes.status();
  return shapes.ok() ? std::move(shapes).value() : std::vector<Shape>{};
}

// Per-shape multiplicities counted straight off the database rows.
ShapeCounts CountShapes(const Database& db) {
  ShapeCounts counts;
  for (PredId pred : db.NonEmptyPredicates()) {
    const uint32_t arity = db.schema().Arity(pred);
    const auto tuples = db.Tuples(pred);
    for (size_t row = 0; row < tuples.size() / arity; ++row) {
      ++counts[ShapeOfTuple(pred, tuples.subspan(row * arity, arity))];
    }
  }
  return counts;
}

// The index's shapes, multiplicities and tuple total equal `expected`.
void ExpectCounts(const ShapeIndex& index, const ShapeCounts& expected) {
  std::vector<Shape> shapes;
  uint64_t tuples = 0;
  for (const auto& [shape, count] : expected) {
    shapes.push_back(shape);
    tuples += count;
    EXPECT_EQ(index.Count(shape), count);
  }
  EXPECT_EQ(index.CurrentShapes(), shapes);
  EXPECT_EQ(index.NumShapes(), shapes.size());
  EXPECT_EQ(index.NumIndexedTuples(), tuples);
}

TEST(ShapeIndexTest, EmptyIndexHasNoShapes) {
  ShapeIndex index;
  EXPECT_EQ(index.NumShapes(), 0u);
  EXPECT_EQ(index.NumIndexedTuples(), 0u);
  EXPECT_TRUE(index.CurrentShapes().empty());
}

TEST(ShapeIndexTest, InsertCountsTuplesPerShape) {
  Schema schema;
  auto pred = schema.AddPredicate("r", 3);
  ASSERT_TRUE(pred.ok());
  ShapeIndex index;
  std::vector<uint32_t> t1 = {1, 1, 2};
  std::vector<uint32_t> t2 = {5, 5, 9};  // same shape (1,1,2)
  index.Insert(*pred, t1);
  index.Insert(*pred, t2);
  EXPECT_EQ(index.NumShapes(), 1u);
  EXPECT_EQ(index.Count(Shape(*pred, {1, 1, 2})), 2u);
  EXPECT_EQ(index.NumIndexedTuples(), 2u);
}

TEST(ShapeIndexTest, RemoveKeepsShapeWhileTuplesRemain) {
  Schema schema;
  auto pred = schema.AddPredicate("r", 2);
  ASSERT_TRUE(pred.ok());
  ShapeIndex index;
  std::vector<uint32_t> t1 = {1, 2};
  std::vector<uint32_t> t2 = {3, 4};
  index.Insert(*pred, t1);
  index.Insert(*pred, t2);
  ASSERT_TRUE(index.Remove(*pred, t1).ok());
  EXPECT_TRUE(index.Contains(Shape(*pred, {1, 2})));
  ASSERT_TRUE(index.Remove(*pred, t2).ok());
  EXPECT_FALSE(index.Contains(Shape(*pred, {1, 2})));
  EXPECT_EQ(index.NumShapes(), 0u);
  EXPECT_EQ(index.NumIndexedTuples(), 0u);
}

TEST(ShapeIndexTest, RemoveUnindexedShapeFails) {
  Schema schema;
  auto pred = schema.AddPredicate("r", 2);
  ASSERT_TRUE(pred.ok());
  ShapeIndex index;
  std::vector<uint32_t> tuple = {1, 2};
  EXPECT_EQ(index.Remove(*pred, tuple).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(index.NumIndexedTuples(), 0u);
  EXPECT_EQ(index.ContentFingerprint(), 0u);
}

// Property: after any interleaving of inserts and removes, the index equals
// a recomputation over the surviving tuples.
class ShapeIndexPropertyTest : public testing::TestWithParam<uint64_t> {};

TEST_P(ShapeIndexPropertyTest, MatchesRecomputationUnderChurn) {
  Rng rng(GetParam());
  Schema schema;
  std::vector<PredId> preds;
  for (int i = 0; i < 4; ++i) {
    auto pred = schema.AddPredicate("p" + std::to_string(i),
                                    1 + static_cast<uint32_t>(rng.Below(4)));
    ASSERT_TRUE(pred.ok());
    preds.push_back(*pred);
  }

  ShapeIndex index;
  // Live multiset of tuples per predicate.
  std::vector<std::vector<std::vector<uint32_t>>> live(preds.size());

  for (int step = 0; step < 600; ++step) {
    const size_t which = rng.Below(preds.size());
    PredId pred = preds[which];
    const uint32_t arity = schema.Arity(pred);
    const bool remove = !live[which].empty() && rng.Below(100) < 40;
    if (remove) {
      const size_t victim = rng.Below(live[which].size());
      ASSERT_TRUE(index.Remove(pred, live[which][victim]).ok());
      live[which].erase(live[which].begin() +
                        static_cast<ptrdiff_t>(victim));
    } else {
      std::vector<uint32_t> tuple(arity);
      for (uint32_t& v : tuple) {
        v = static_cast<uint32_t>(rng.Below(6));  // small domain → collisions
      }
      index.Insert(pred, tuple);
      live[which].push_back(std::move(tuple));
    }
  }

  // Recompute from the surviving tuples.
  Database db(&schema);
  db.EnsureAnonymousDomain(6);
  for (size_t which = 0; which < preds.size(); ++which) {
    for (const auto& tuple : live[which]) {
      ASSERT_TRUE(db.AddFact(preds[which], tuple).ok());
    }
  }
  EXPECT_EQ(index.CurrentShapes(), ScanShapes(db));
  ExpectCounts(index, CountShapes(db));
  EXPECT_EQ(index.ContentFingerprint(), index::DatabaseFingerprint(db));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeIndexPropertyTest,
                         testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace chase
