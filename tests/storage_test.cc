#include <gtest/gtest.h>

#include "base/rng.h"
#include "gen/data_generator.h"
#include "logic/parser.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

using storage::Catalog;
using storage::ShapeFinderMode;

Program MustParse(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

// shape(D) over the in-memory row store, metered into the catalog's stats.
std::vector<Shape> FindShapes(const Catalog& catalog, ShapeFinderMode mode,
                              unsigned threads = 1) {
  storage::MemoryShapeSource source(&catalog);
  auto shapes =
      storage::FindShapes(source, {.mode = mode, .threads = threads});
  EXPECT_TRUE(shapes.ok()) << shapes.status();
  return shapes.ok() ? std::move(shapes).value() : std::vector<Shape>{};
}

// The EXISTS probe of Section 5.4 over the row store: the full query
// (`exact`: some tuple has exactly this id-tuple) or the relaxed one
// (equalities only: some tuple is coarser than or equal to `id`).
bool Probe(const Catalog& catalog, PredId pred, const IdTuple& id,
           bool exact) {
  storage::MemoryShapeSource source(&catalog);
  auto found = storage::ProbeShapeExists(source, pred, id, exact,
                                         &source.stats());
  EXPECT_TRUE(found.ok()) << found.status();
  return found.ok() && *found;
}

constexpr bool kExact = true;
constexpr bool kRelaxed = false;
constexpr ShapeFinderMode kScan = ShapeFinderMode::kScan;
constexpr ShapeFinderMode kExists = ShapeFinderMode::kExists;

TEST(CatalogTest, ListNonEmptyRelationsUsesMetadataOnly) {
  Program p = MustParse("r(a,b). s(c). ");
  ASSERT_TRUE(p.schema->GetOrAddPredicate("t", 2).ok());
  Catalog catalog(p.database.get());
  auto relations = catalog.ListNonEmptyRelations();
  EXPECT_EQ(relations.size(), 2u);
  EXPECT_EQ(catalog.stats().catalog_queries, 1u);
  EXPECT_EQ(catalog.stats().tuples_scanned, 0u);
}

TEST(ExistsQueryTest, ExactShapeMatch) {
  Program p = MustParse("r(a,a,b). r(a,b,c).");
  Catalog catalog(p.database.get());
  const PredId r = p.schema->FindPredicate("r").value();
  EXPECT_TRUE(Probe(catalog, r, {1, 1, 2}, kExact));
  EXPECT_TRUE(Probe(catalog, r, {1, 2, 3}, kExact));
  EXPECT_FALSE(Probe(catalog, r, {1, 1, 1}, kExact));
  EXPECT_FALSE(Probe(catalog, r, {1, 2, 1}, kExact));
  EXPECT_FALSE(Probe(catalog, r, {1, 2, 2}, kExact));
}

TEST(ExistsQueryTest, RelaxedQueryIgnoresDisequalities) {
  Program p = MustParse("r(a,a,a).");
  Catalog catalog(p.database.get());
  const PredId r = p.schema->FindPredicate("r").value();
  // The all-equal tuple satisfies the equality conditions of every shape
  // that only asks for equalities it has.
  EXPECT_TRUE(Probe(catalog, r, {1, 1, 2}, kRelaxed));
  EXPECT_TRUE(Probe(catalog, r, {1, 1, 1}, kRelaxed));
  EXPECT_TRUE(Probe(catalog, r, {1, 2, 3}, kRelaxed));
  EXPECT_FALSE(Probe(catalog, r, {1, 1, 2}, kExact));
}

TEST(ExistsQueryTest, EarlyExitCountsScannedTuples) {
  Program p = MustParse("r(a,b). r(c,d). r(e,f).");
  Catalog catalog(p.database.get());
  const PredId r = p.schema->FindPredicate("r").value();
  EXPECT_TRUE(Probe(catalog, r, {1, 2}, kExact));
  EXPECT_EQ(catalog.stats().tuples_scanned, 1u);  // first row matches
  EXPECT_FALSE(Probe(catalog, r, {1, 1}, kExact));
  EXPECT_EQ(catalog.stats().tuples_scanned, 4u);  // full scan added 3
  EXPECT_EQ(catalog.stats().exists_queries, 2u);
}

TEST(ShapeFinderTest, FindsAllShapes) {
  Program p = MustParse(R"(
    r(a,a,b). r(a,b,c). r(x,y,x).
    s(q). s(w).
    t(m,m).
  )");
  Catalog catalog(p.database.get());
  const PredId r = p.schema->FindPredicate("r").value();
  const PredId s = p.schema->FindPredicate("s").value();
  const PredId t = p.schema->FindPredicate("t").value();
  const std::vector<Shape> expected = {
      Shape(r, {1, 1, 2}), Shape(r, {1, 2, 1}), Shape(r, {1, 2, 3}),
      Shape(s, {1}), Shape(t, {1, 1})};
  EXPECT_EQ(FindShapes(catalog, kScan), expected);
  EXPECT_EQ(FindShapes(catalog, kExists), expected);
}

TEST(ShapeFinderTest, EmptyDatabase) {
  Program p;
  ASSERT_TRUE(p.schema->AddPredicate("r", 2).ok());
  Catalog catalog(p.database.get());
  EXPECT_TRUE(FindShapes(catalog, kScan).empty());
  EXPECT_TRUE(FindShapes(catalog, kExists).empty());
}

TEST(ShapeFinderTest, AprioriPrunesUnreachableShapes) {
  // All tuples are all-distinct: the relaxed query for any shape with an
  // equality fails on the first probe, so the in-db finder must not issue
  // the full query for coarser shapes of arity-4 (15 partitions; only the
  // all-distinct one and its 6 single-merge children get a relaxed probe).
  Program p = MustParse("r(a,b,c,d). r(e,f,g,h).");
  Catalog catalog(p.database.get());
  auto shapes = FindShapes(catalog, kExists);
  ASSERT_EQ(shapes.size(), 1u);
  // 1 relaxed + 1 full for the all-distinct shape, then 6 failing relaxed
  // probes for its children: 8 queries total, far below 2 * 15.
  EXPECT_EQ(catalog.stats().exists_queries, 8u);
}

TEST(ShapeFinderTest, ModeDispatchAndNames) {
  Program p = MustParse("r(a,b).");
  Catalog catalog(p.database.get());
  EXPECT_EQ(FindShapes(catalog, kScan).size(), 1u);
  EXPECT_EQ(FindShapes(catalog, kExists).size(), 1u);
  EXPECT_STREQ(storage::ShapeFinderModeName(ShapeFinderMode::kScan), "scan");
  EXPECT_STREQ(storage::ShapeFinderModeName(ShapeFinderMode::kExists),
               "exists");
  EXPECT_STREQ(storage::ShapeFinderModeName(ShapeFinderMode::kIndex),
               "index");
}

TEST(ShapeFinderTest, AgreeOnRandomDatabases) {
  Rng rng(99);
  for (int trial = 0; trial < 25; ++trial) {
    DataGenParams params;
    params.preds = 1 + static_cast<uint32_t>(rng.Below(5));
    params.min_arity = 1;
    params.max_arity = 1 + static_cast<uint32_t>(rng.Below(5));
    params.dsize = 64 + rng.Below(64);
    params.rsize = rng.Below(60);
    params.seed = rng.Next();
    auto data = GenerateData(params);
    ASSERT_TRUE(data.ok()) << data.status();
    Catalog catalog(data->database.get());
    EXPECT_EQ(FindShapes(catalog, kScan), FindShapes(catalog, kExists))
        << "trial " << trial;
  }
}

TEST(ShapeFinderTest, StatsDifferBetweenModes) {
  DataGenParams params;
  params.preds = 3;
  params.min_arity = 2;
  params.max_arity = 3;
  params.dsize = 100;
  params.rsize = 50;
  auto data = GenerateData(params);
  ASSERT_TRUE(data.ok());
  Catalog mem_catalog(data->database.get());
  FindShapes(mem_catalog, kScan);
  EXPECT_EQ(mem_catalog.stats().exists_queries, 0u);
  EXPECT_EQ(mem_catalog.stats().relations_loaded, 3u);
  EXPECT_EQ(mem_catalog.stats().tuples_scanned, 150u);

  Catalog db_catalog(data->database.get());
  FindShapes(db_catalog, kExists);
  EXPECT_GT(db_catalog.stats().exists_queries, 0u);
  EXPECT_EQ(db_catalog.stats().relations_loaded, 0u);
}

class ParallelShapeFinderTest
    : public testing::TestWithParam<std::tuple<unsigned, uint64_t>> {};

TEST_P(ParallelShapeFinderTest, AgreesWithSerialScan) {
  const auto [threads, seed] = GetParam();
  DataGenParams params;
  params.preds = 7;
  params.min_arity = 1;
  params.max_arity = 5;
  params.dsize = 200;
  params.rsize = 500;
  params.seed = seed;
  auto data = GenerateData(params);
  ASSERT_TRUE(data.ok());

  Catalog serial_catalog(data->database.get());
  std::vector<Shape> expected = FindShapes(serial_catalog, kScan);

  Catalog parallel_catalog(data->database.get());
  std::vector<Shape> actual =
      FindShapes(parallel_catalog, kScan, threads);
  EXPECT_EQ(actual, expected);
  // Every tuple is scanned exactly once regardless of thread count.
  EXPECT_EQ(parallel_catalog.stats().tuples_scanned,
            serial_catalog.stats().tuples_scanned);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndSeeds, ParallelShapeFinderTest,
    testing::Combine(testing::Values(1u, 2u, 4u, 8u),
                     testing::Values(17u, 29u)));

TEST(ParallelShapeFinderTest, EmptyDatabase) {
  Schema schema;
  ASSERT_TRUE(schema.AddPredicate("r", 2).ok());
  Database db(&schema);
  Catalog catalog(&db);
  EXPECT_TRUE(FindShapes(catalog, kScan, 4).empty());
}

}  // namespace
}  // namespace chase
