#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "base/rng.h"
#include "core/dynamic_simplification.h"
#include "core/simplification.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

Program MustParse(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

// FindShapes(D) by `mode` + Algorithm 2, both on `threads` workers.
StatusOr<DynamicSimplificationResult> SimplifyWith(
    const Database& database, const std::vector<Tgd>& tgds,
    storage::ShapeFinderMode mode, unsigned threads = 1) {
  storage::Catalog catalog(&database);
  CHASE_ASSIGN_OR_RETURN(
      std::vector<Shape> shapes,
      storage::FindShapes(storage::MemoryShapeSource(&catalog),
                          {.mode = mode, .threads = threads}));
  return DynamicSimplificationFromShapes(database.schema(), tgds, shapes,
                                         threads);
}

// Renders a simplified rule set as a canonical set of strings so results of
// different runs (with differently ordered shape schemas) can be compared.
std::set<std::string> CanonicalRules(const Schema& schema,
                                     const std::vector<Tgd>& tgds) {
  std::set<std::string> out;
  for (const Tgd& tgd : tgds) out.insert(ToString(schema, tgd));
  return out;
}

TEST(DynamicSimplificationTest, KeepsOnlyReachableShapes) {
  // The database only has the shape r_[1,2]; the specialization merging the
  // two body variables is unreachable and must be dropped.
  Program p = MustParse("r(a,b).\nr(X,Y) -> r(Y,X).");
  auto dynamic = DynamicSimplification(*p.database, p.tgds);
  ASSERT_TRUE(dynamic.ok()) << dynamic.status();
  EXPECT_EQ(dynamic->num_initial_shapes, 1u);
  EXPECT_EQ(dynamic->num_derived_shapes, 1u);
  ASSERT_EQ(dynamic->tgds.size(), 1u);
  EXPECT_EQ(ToString(dynamic->shape_schema->schema(), dynamic->tgds[0]),
            "r_[1,2](X0,X1) -> r_[1,2](X1,X0).");
}

TEST(DynamicSimplificationTest, PaperExample34) {
  // Example 3.4: D = {R(a,b)}, R(x,x) -> exists z R(z,x). The only database
  // shape is R_[1,2], which does not admit a homomorphism from R(x,x), so
  // simple_D(Σ) is empty (and the chase is trivially finite).
  Program p = MustParse("r(a,b).\nr(X,X) -> r(Z,X).");
  auto dynamic = DynamicSimplification(*p.database, p.tgds);
  ASSERT_TRUE(dynamic.ok());
  EXPECT_TRUE(dynamic->tgds.empty());
  EXPECT_EQ(dynamic->num_derived_shapes, 1u);
}

TEST(DynamicSimplificationTest, DerivesNewShapesTransitively) {
  // r(a,b) gives r_[1,2]; the first rule derives s_[1,1] (head s(y,y)), the
  // second rule then applies to s_[1,1].
  Program p = MustParse(R"(
    r(a,b).
    r(X,Y) -> s(Y,Y).
    s(X,X) -> t(X).
  )");
  auto dynamic = DynamicSimplification(*p.database, p.tgds);
  ASSERT_TRUE(dynamic.ok());
  // Shapes: r_[1,2], s_[1,1], t_[1].
  EXPECT_EQ(dynamic->num_derived_shapes, 3u);
  EXPECT_EQ(dynamic->tgds.size(), 2u);
}

TEST(DynamicSimplificationTest, HomRequiresConsistentIds) {
  // s(x,x) only maps onto the shape s_[1,1], not s_[1,2].
  Program p = MustParse("s(a,b). s(c,c).\ns(X,X) -> t(X).");
  auto dynamic = DynamicSimplification(*p.database, p.tgds);
  ASSERT_TRUE(dynamic.ok());
  ASSERT_EQ(dynamic->tgds.size(), 1u);
  EXPECT_EQ(ToString(dynamic->shape_schema->schema(), dynamic->tgds[0]),
            "s_[1,1](X0) -> t_[1](X0).");
}

TEST(DynamicSimplificationTest, IsSubsetOfStaticSimplification) {
  Program p = MustParse(R"(
    r(a,b). r(c,c). q(d,e,f).
    r(X,Y) -> q(Y,X,Z).
    q(X,Y,W) -> r(X,W).
    q(X,X,Y) -> r(Y,Y).
  )");
  auto dynamic = DynamicSimplification(*p.database, p.tgds);
  ASSERT_TRUE(dynamic.ok());
  auto static_result = StaticSimplification(*p.schema, p.tgds);
  ASSERT_TRUE(static_result.ok());
  auto dynamic_rules =
      CanonicalRules(dynamic->shape_schema->schema(), dynamic->tgds);
  auto static_rules = CanonicalRules(static_result->shape_schema->schema(), static_result->tgds);
  for (const std::string& rule : dynamic_rules) {
    EXPECT_TRUE(static_rules.count(rule)) << "missing: " << rule;
  }
  EXPECT_LE(dynamic_rules.size(), static_rules.size());
}

TEST(DynamicSimplificationTest, EmptyDatabaseYieldsEmptySet) {
  Program p = MustParse("r(X,Y) -> r(Y,Z).");
  auto dynamic = DynamicSimplification(*p.database, p.tgds);
  ASSERT_TRUE(dynamic.ok());
  EXPECT_TRUE(dynamic->tgds.empty());
  EXPECT_EQ(dynamic->num_initial_shapes, 0u);
}

TEST(DynamicSimplificationTest, RejectsNonLinear) {
  Program p = MustParse("r(X), s(X) -> t(X).");
  EXPECT_FALSE(DynamicSimplification(*p.database, p.tgds).ok());
}

TEST(DynamicSimplificationTest, ProcessesEachRuleShapePairOnce) {
  // Two rules over the same body predicate; three database shapes.
  Program p = MustParse(R"(
    r(a,b). r(c,c).
    r(X,Y) -> s(X,Y).
    r(X,Y) -> s(Y,X).
  )");
  auto dynamic = DynamicSimplification(*p.database, p.tgds);
  ASSERT_TRUE(dynamic.ok());
  // Each of the 2 rules applies to each of the 2 r-shapes: 4 simplified
  // TGDs. Under the merging shape r_[1,1] the two rules collapse to the same
  // simplification, so only 3 are distinct as a set.
  EXPECT_EQ(dynamic->tgds.size(), 4u);
  auto rules = CanonicalRules(dynamic->shape_schema->schema(), dynamic->tgds);
  EXPECT_EQ(rules.size(), 3u);
}

TEST(DynamicSimplificationTest, BothFinderModesAgree) {
  DataGenParams data_params;
  data_params.preds = 6;
  data_params.min_arity = 1;
  data_params.max_arity = 4;
  data_params.dsize = 100;
  data_params.rsize = 40;
  data_params.seed = 3;
  auto data = GenerateData(data_params);
  ASSERT_TRUE(data.ok());
  TgdGenParams tgd_params;
  tgd_params.ssize = 6;
  tgd_params.tsize = 30;
  tgd_params.tclass = TgdClass::kLinear;
  tgd_params.seed = 4;
  auto tgds = GenerateTgds(*data->schema, tgd_params);
  ASSERT_TRUE(tgds.ok());
  auto in_memory = DynamicSimplification(*data->database, tgds.value());
  auto in_db = SimplifyWith(*data->database, tgds.value(),
                            storage::ShapeFinderMode::kExists);
  ASSERT_TRUE(in_memory.ok());
  ASSERT_TRUE(in_db.ok());
  EXPECT_EQ(CanonicalRules(in_memory->shape_schema->schema(),
                           in_memory->tgds),
            CanonicalRules(in_db->shape_schema->schema(), in_db->tgds));
}

TEST(DynamicSimplificationTest, CanonicalTgdOrder) {
  // Regression pin for the canonical emission order documented on
  // DynamicSimplificationResult: depth-grouped (database shapes first),
  // body shape ascending in (pred, id) within a depth, rule index ascending
  // per shape, duplicates kept — identical for every thread count. The old
  // worklist emitted in nondeterministic-looking pop order instead.
  Program p = MustParse(R"(
    r(a,b). r(c,c).
    r(X,Y) -> s(X,Y).
    r(X,Y) -> s(Y,X).
    s(X,Y) -> t(X).
  )");
  const std::vector<std::string> expected = {
      // Depth 0: r_[1,1] (rules 0, 1), then r_[1,2] (rules 0, 1).
      "r_[1,1](X0) -> s_[1,1](X0).",
      "r_[1,1](X0) -> s_[1,1](X0).",
      "r_[1,2](X0,X1) -> s_[1,2](X0,X1).",
      "r_[1,2](X0,X1) -> s_[1,2](X1,X0).",
      // Depth 1: the derived s-shapes, ascending.
      "s_[1,1](X0) -> t_[1](X0).",
      "s_[1,2](X0,X1) -> t_[1](X0).",
  };
  for (unsigned threads : {1u, 4u}) {
    auto dynamic = SimplifyWith(*p.database, p.tgds,
                                storage::ShapeFinderMode::kScan, threads);
    ASSERT_TRUE(dynamic.ok()) << dynamic.status();
    std::vector<std::string> got;
    for (const Tgd& tgd : dynamic->tgds) {
      got.push_back(ToString(dynamic->shape_schema->schema(), tgd));
    }
    EXPECT_EQ(got, expected) << "threads " << threads;
    EXPECT_EQ(dynamic->num_initial_shapes, 2u);
    // r_[1,1], r_[1,2], s_[1,1], s_[1,2], t_[1].
    EXPECT_EQ(dynamic->num_derived_shapes, 5u);
    // Depth 2 expands t_[1], which matches no rule.
    EXPECT_EQ(dynamic->frontier.depths, 3u);
  }
}

TEST(DynamicSimplificationTest, OutputIsAlwaysSimpleLinear) {
  Program p = MustParse(R"(
    r(a,a,b).
    r(X,X,Y) -> r(Y,X,Z).
  )");
  auto dynamic = DynamicSimplification(*p.database, p.tgds);
  ASSERT_TRUE(dynamic.ok());
  for (const Tgd& tgd : dynamic->tgds) {
    EXPECT_TRUE(tgd.IsSimpleLinear());
  }
}

}  // namespace
}  // namespace chase
