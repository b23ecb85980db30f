#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "core/is_chase_finite.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_index.h"
#include "storage/shape_source.h"

namespace chase {
namespace storage {
namespace {

// The scan plan over the row store: the reference the index must match.
std::vector<Shape> ScanShapes(const Catalog& catalog) {
  auto shapes = FindShapes(MemoryShapeSource(&catalog));
  EXPECT_TRUE(shapes.ok()) << shapes.status();
  return shapes.ok() ? std::move(shapes).value() : std::vector<Shape>{};
}

GeneratedData MakeData(uint32_t preds, uint64_t rsize, uint64_t seed) {
  DataGenParams params;
  params.preds = preds;
  params.min_arity = 1;
  params.max_arity = 5;
  params.dsize = 100;
  params.rsize = rsize;
  params.seed = seed;
  auto data = GenerateData(params);
  EXPECT_TRUE(data.ok()) << data.status();
  return std::move(data).value();
}

TEST(ShapeIndexTest, EmptyIndexHasNoShapes) {
  ShapeIndex index;
  EXPECT_EQ(index.NumShapes(), 0u);
  EXPECT_TRUE(index.CurrentShapes().empty());
}

TEST(ShapeIndexTest, BuildMatchesFindShapes) {
  GeneratedData data = MakeData(6, 80, 99);
  ShapeIndex index = ShapeIndex::Build(*data.database);
  Catalog catalog(data.database.get());
  EXPECT_EQ(index.CurrentShapes(), ScanShapes(catalog));
}

TEST(ShapeIndexTest, InsertAddsShapeOnce) {
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
}

TEST(ShapeIndexTest, RemoveUnindexedShapeFails) {
  Schema schema;
  auto pred = schema.AddPredicate("r", 2);
  ASSERT_TRUE(pred.ok());
  ShapeIndex index;
  std::vector<uint32_t> tuple = {1, 2};
  EXPECT_EQ(index.Remove(*pred, tuple).code(),
            StatusCode::kFailedPrecondition);
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
  Catalog catalog(&db);
  EXPECT_EQ(index.CurrentShapes(), ScanShapes(catalog));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShapeIndexPropertyTest,
                         testing::Values(11, 22, 33, 44, 55, 66));

// IsChaseFinite[L] fed from the index (Section 10 deployment) agrees with
// the scanning implementation, and reports zero shape-finding work.
class IndexFedCheckTest : public testing::TestWithParam<uint64_t> {};

TEST_P(IndexFedCheckTest, PrecomputedShapesMatchScanningVerdict) {
  Rng rng(GetParam());
  GeneratedData data = MakeData(6, 50, rng.Next());
  TgdGenParams params;
  params.ssize = 6;
  params.min_arity = 1;
  params.max_arity = 5;
  params.tsize = 20;
  params.tclass = TgdClass::kLinear;
  params.seed = rng.Next();
  auto tgds = GenerateTgds(*data.schema, params);
  ASSERT_TRUE(tgds.ok()) << tgds.status();

  auto scanned = IsChaseFiniteL(*data.database, tgds.value());
  ASSERT_TRUE(scanned.ok()) << scanned.status();

  ShapeIndex index = ShapeIndex::Build(*data.database);
  std::vector<Shape> shapes = index.CurrentShapes();
  LCheckOptions options;
  options.precomputed_shapes = &shapes;
  LCheckStats stats;
  auto indexed = IsChaseFiniteL(*data.database, tgds.value(), options,
                                &stats);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  EXPECT_EQ(indexed.value(), scanned.value());
  EXPECT_EQ(stats.access.tuples_scanned, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexFedCheckTest,
                         testing::Values(3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace storage
}  // namespace chase
