// Cross-module checks on the Section 9 scenario families: weak acyclicity
// and the shape index run on realistic rule sets, not only on the
// synthetic generator output.

#include <gtest/gtest.h>

#include "core/is_chase_finite.h"
#include "core/weak_acyclicity.h"
#include "gen/scenario.h"
#include "index/shape_index.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

TEST(ScenarioExtensionTest, DeepIsWeaklyAcyclic) {
  auto scenario = MakeDeepScenario(4241, /*seed=*/1);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  const Program& p = scenario->program;
  // Deep is weakly acyclic by construction (the paper uses it as a
  // terminating family).
  EXPECT_TRUE(IsWeaklyAcyclic(*p.schema, p.tgds));
}

TEST(ScenarioExtensionTest, ShapeIndexMatchesFindShapesOnLubm) {
  auto scenario = MakeLubmScenario("LUBM-t", /*atoms=*/40'000, /*seed=*/2);
  ASSERT_TRUE(scenario.ok()) << scenario.status();
  const Program& p = scenario->program;
  storage::Catalog catalog(p.database.get());
  storage::MemoryShapeSource source(&catalog);
  auto index = index::ShapeIndex::Build(source);
  ASSERT_TRUE(index.ok()) << index.status();
  auto scanned_shapes = storage::FindShapes(source);
  ASSERT_TRUE(scanned_shapes.ok()) << scanned_shapes.status();
  EXPECT_EQ(index->CurrentShapes(), *scanned_shapes);

  // Index-fed check agrees with the scanning check.
  std::vector<Shape> shapes = index->CurrentShapes();
  LCheckOptions options;
  options.precomputed_shapes = &shapes;
  auto indexed = IsChaseFiniteL(*p.database, p.tgds, options);
  auto scanned = IsChaseFiniteL(*p.database, p.tgds);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(indexed.value(), scanned.value());
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
