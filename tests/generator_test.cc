#include <gtest/gtest.h>

#include <set>

#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

TEST(DataGeneratorTest, RespectsParameters) {
  DataGenParams params;
  params.preds = 7;
  params.min_arity = 2;
  params.max_arity = 4;
  params.dsize = 200;
  params.rsize = 30;
  params.seed = 42;
  auto data = GenerateData(params);
  ASSERT_TRUE(data.ok()) << data.status();
  const Schema& schema = *data->schema;
  EXPECT_EQ(schema.NumPredicates(), 7u);
  for (PredId pred = 0; pred < schema.NumPredicates(); ++pred) {
    EXPECT_GE(schema.Arity(pred), 2u);
    EXPECT_LE(schema.Arity(pred), 4u);
    EXPECT_EQ(data->database->NumTuples(pred), 30u);
  }
  EXPECT_EQ(data->database->TotalFacts(), 7u * 30u);
  // Domain values stay below dsize.
  for (PredId pred = 0; pred < schema.NumPredicates(); ++pred) {
    for (uint32_t value : data->database->Tuples(pred)) {
      EXPECT_LT(value, params.dsize);
    }
  }
}

TEST(DataGeneratorTest, DeterministicForSeed) {
  DataGenParams params;
  params.preds = 3;
  params.rsize = 10;
  params.dsize = 100;
  params.seed = 5;
  auto a = GenerateData(params);
  auto b = GenerateData(params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (PredId pred = 0; pred < 3; ++pred) {
    auto ta = a->database->Tuples(pred);
    auto tb = b->database->Tuples(pred);
    ASSERT_EQ(ta.size(), tb.size());
    EXPECT_TRUE(std::equal(ta.begin(), ta.end(), tb.begin()));
  }
}

TEST(DataGeneratorTest, ProducesShapeVariety) {
  // With arity up to 4 and many tuples per relation, multiple shapes per
  // relation must appear — this is the generator's reason to exist.
  DataGenParams params;
  params.preds = 1;
  params.min_arity = 4;
  params.max_arity = 4;
  params.dsize = 1000;
  params.rsize = 500;
  params.seed = 9;
  auto data = GenerateData(params);
  ASSERT_TRUE(data.ok());
  storage::Catalog catalog(data->database.get());
  auto shapes = storage::FindShapes(storage::MemoryShapeSource(&catalog));
  ASSERT_TRUE(shapes.ok()) << shapes.status();
  EXPECT_GT(shapes->size(), 5u);   // out of B(4) = 15 possible
  EXPECT_LE(shapes->size(), 15u);
}

TEST(DataGeneratorTest, ShapedTuplesCoverTheShapeSpectrum) {
  Rng rng(3);
  std::vector<uint32_t> tuple;
  bool saw_all_equal = false;
  bool saw_all_distinct = false;
  for (int trial = 0; trial < 500; ++trial) {
    GenerateShapedTuple(3, 100, &rng, &tuple);
    ASSERT_EQ(tuple.size(), 3u);
    for (uint32_t value : tuple) EXPECT_LT(value, 100u);
    const IdTuple id = IdOf(std::span<const uint32_t>(tuple));
    saw_all_equal |= id == IdTuple{1, 1, 1};
    saw_all_distinct |= id == IdTuple{1, 2, 3};
  }
  // Both the coarsest and the finest shape must occur: the generator
  // controls shapes, it does not just sample values.
  EXPECT_TRUE(saw_all_equal);
  EXPECT_TRUE(saw_all_distinct);
}

TEST(DataGeneratorTest, RejectsBadParameters) {
  DataGenParams params;
  params.min_arity = 0;
  EXPECT_FALSE(GenerateData(params).ok());
  params.min_arity = 3;
  params.max_arity = 2;
  EXPECT_FALSE(GenerateData(params).ok());
  params.max_arity = 3;
  params.dsize = 10;  // too small
  EXPECT_FALSE(GenerateData(params).ok());
}

TEST(TgdGeneratorTest, RespectsParameters) {
  DataGenParams data_params;
  data_params.preds = 50;
  data_params.rsize = 0;
  auto data = GenerateData(data_params);
  ASSERT_TRUE(data.ok());

  TgdGenParams params;
  params.ssize = 20;
  params.min_arity = 1;
  params.max_arity = 5;
  params.tsize = 300;
  params.tclass = TgdClass::kSimpleLinear;
  params.seed = 11;
  auto tgds = GenerateTgds(*data->schema, params);
  ASSERT_TRUE(tgds.ok()) << tgds.status();
  EXPECT_EQ(tgds->size(), 300u);
  EXPECT_TRUE(AllSimpleLinear(tgds.value()));
  EXPECT_TRUE(AllHaveNonEmptyFrontier(tgds.value()));

  // sch(Σ) stays within the chosen subset size.
  std::set<PredId> used;
  for (const Tgd& tgd : tgds.value()) {
    used.insert(tgd.body()[0].pred);
    for (const RuleAtom& atom : tgd.head()) used.insert(atom.pred);
  }
  EXPECT_LE(used.size(), 20u);
}

TEST(TgdGeneratorTest, LinearClassProducesRepeatedVariables) {
  DataGenParams data_params;
  data_params.preds = 30;
  data_params.min_arity = 3;
  data_params.max_arity = 5;
  data_params.rsize = 0;
  auto data = GenerateData(data_params);
  ASSERT_TRUE(data.ok());

  TgdGenParams params;
  params.ssize = 30;
  params.min_arity = 3;
  params.max_arity = 5;
  params.tsize = 200;
  params.tclass = TgdClass::kLinear;
  params.seed = 13;
  auto tgds = GenerateTgds(*data->schema, params);
  ASSERT_TRUE(tgds.ok());
  EXPECT_TRUE(AllLinear(tgds.value()));
  EXPECT_TRUE(AllHaveNonEmptyFrontier(tgds.value()));
  // Some rule must have a repeated body variable (overwhelmingly likely
  // with 200 draws of arity >= 3 shapes).
  bool some_non_simple = false;
  for (const Tgd& tgd : tgds.value()) {
    some_non_simple |= !tgd.IsSimpleLinear();
  }
  EXPECT_TRUE(some_non_simple);
}

TEST(TgdGeneratorTest, DeterministicForSeed) {
  DataGenParams data_params;
  data_params.preds = 10;
  data_params.rsize = 0;
  auto data = GenerateData(data_params);
  ASSERT_TRUE(data.ok());
  TgdGenParams params;
  params.ssize = 10;
  params.tsize = 50;
  params.seed = 21;
  auto a = GenerateTgds(*data->schema, params);
  auto b = GenerateTgds(*data->schema, params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());
}

TEST(TgdGeneratorTest, FailsWhenSchemaTooSmall) {
  Schema schema;
  ASSERT_TRUE(schema.AddPredicate("only", 2).ok());
  TgdGenParams params;
  params.ssize = 5;
  EXPECT_FALSE(GenerateTgds(schema, params).ok());
}

TEST(TgdGeneratorTest, ExistentialPercentZeroMeansFullDatalog) {
  DataGenParams data_params;
  data_params.preds = 10;
  data_params.rsize = 0;
  auto data = GenerateData(data_params);
  ASSERT_TRUE(data.ok());
  TgdGenParams params;
  params.ssize = 10;
  params.tsize = 100;
  params.existential_percent = 0;
  auto tgds = GenerateTgds(*data->schema, params);
  ASSERT_TRUE(tgds.ok());
  for (const Tgd& tgd : tgds.value()) {
    EXPECT_EQ(tgd.num_existential(), 0u);
  }
}

}  // namespace
}  // namespace chase
