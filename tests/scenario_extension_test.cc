// Cross-module checks on the Section 9 scenario families: the extension
// modules (acyclicity zoo, shape index, rewriting) run on realistic rule
// sets, not only on the synthetic generator output.

#include <gtest/gtest.h>

#include "acyclicity/joint_acyclicity.h"
#include "acyclicity/super_weak_acyclicity.h"
#include "core/is_chase_finite.h"
#include "core/weak_acyclicity.h"
#include "gen/scenario.h"
#include "query/rewriting.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_index.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

TEST(ScenarioExtensionTest, DeepIsWeaklyAcyclicSoWholeZooAccepts) {
  auto scenario = MakeDeepScenario(4241, /*seed=*/1);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  const Program& p = scenario->program;
  // Deep is weakly acyclic by construction (the paper uses it as a
  // terminating family); joint acyclicity must accept too.
  EXPECT_TRUE(IsWeaklyAcyclic(*p.schema, p.tgds));
  EXPECT_TRUE(acyclicity::IsJointlyAcyclic(*p.schema, p.tgds));
  // Super-weak acyclicity is quadratic in places per invention site; run it
  // on a truncated prefix of the family (still thousands of places) to keep
  // the test fast. A subset of a WA set is WA, hence SWA.
  std::vector<Tgd> prefix(p.tgds.begin(),
                          p.tgds.begin() + std::min<size_t>(800,
                                                            p.tgds.size()));
  EXPECT_TRUE(acyclicity::IsSuperWeaklyAcyclic(*p.schema, prefix));
}

TEST(ScenarioExtensionTest, ShapeIndexMatchesFindShapesOnLubm) {
  auto scenario = MakeLubmScenario("LUBM-t", /*atoms=*/40'000, /*seed=*/2);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  const Program& p = scenario->program;
  storage::Catalog catalog(p.database.get());
  storage::ShapeIndex index = storage::ShapeIndex::Build(*p.database);
  auto scanned_shapes =
      storage::FindShapes(storage::MemoryShapeSource(&catalog));
  ASSERT_TRUE(scanned_shapes.ok()) << scanned_shapes.status();
  EXPECT_EQ(index.CurrentShapes(), *scanned_shapes);

  // Index-fed check agrees with the scanning check.
  std::vector<Shape> shapes = index.CurrentShapes();
  LCheckOptions options;
  options.precomputed_shapes = &shapes;
  auto indexed = IsChaseFiniteL(*p.database, p.tgds, options);
  auto scanned = IsChaseFiniteL(*p.database, p.tgds);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(indexed.value(), scanned.value());
}

TEST(ScenarioExtensionTest, LubmAtomicQueriesRewriteFinitely) {
  auto scenario = MakeLubmScenario("LUBM-t", /*atoms=*/10'000, /*seed=*/3);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  Program& p = scenario->program;
  // Rewrite an atomic query per unary predicate; DL-Lite-style rule sets
  // always admit small finite rewritings.
  size_t rewritten = 0;
  for (PredId pred = 0; pred < p.schema->NumPredicates() && rewritten < 10;
       ++pred) {
    if (p.schema->Arity(pred) != 1) continue;
    query::ConjunctiveQuery cq;
    cq.name = "q";
    cq.num_vars = 1;
    cq.answer_vars = {0};
    cq.body.emplace_back(pred, std::vector<VarId>{0});
    query::RewriteOptions options;
    options.max_queries = 5'000;
    auto rewriting = query::RewriteUnderTgds(cq, p.tgds, options);
    ASSERT_TRUE(rewriting.ok()) << rewriting.status();
    EXPECT_GE(rewriting->disjuncts.size(), 1u);
    ++rewritten;
  }
  EXPECT_GT(rewritten, 0u);
}

TEST(ScenarioExtensionTest, IBenchShapeFindersAgree) {
  IBenchParams params;
  params.name = "STB-t";
  params.atoms = 20'000;
  auto scenario = MakeIBenchScenario(params);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  const Program& p = scenario->program;
  storage::Catalog catalog(p.database.get());
  storage::MemoryShapeSource source(&catalog);
  auto scan = storage::FindShapes(source, {storage::ShapeFinderMode::kScan});
  auto exists =
      storage::FindShapes(source, {storage::ShapeFinderMode::kExists});
  ASSERT_TRUE(scan.ok()) << scan.status();
  ASSERT_TRUE(exists.ok()) << exists.status();
  EXPECT_EQ(*scan, *exists);
}

}  // namespace
}  // namespace chase
