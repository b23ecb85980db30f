// End-to-end flows: parse a program from text, run the checker, cross-check
// with the chase; plus the Section 7/8 experiment pipelines at miniature
// scale (generate -> serialize -> parse -> check), exactly what the bench
// harness does.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "base/timer.h"
#include "chase/chase_engine.h"
#include "core/is_chase_finite.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "logic/parser.h"
#include "logic/printer.h"

namespace chase {
namespace {

TEST(IntegrationTest, OntologyStyleProgramEndToEnd) {
  auto program = ParseProgram(R"(
    % DL-Lite style ontology
    professor(ada).
    professor(alan).
    professor(X) -> faculty(X).
    faculty(X) -> exists D : worksFor(X, D).
    worksFor(X, D) -> department(D).
    department(D) -> exists H : headedBy(D, H).
    headedBy(D, H) -> faculty(H).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  // faculty(H) for a fresh H re-enters worksFor: the chase is infinite.
  auto finite = IsChaseFiniteL(*program->database, program->tgds);
  ASSERT_TRUE(finite.ok()) << finite.status();
  EXPECT_FALSE(finite.value());

  ChaseOptions options;
  options.max_atoms = 2000;
  auto chase = RunChase(*program->database, program->tgds, options);
  ASSERT_TRUE(chase.ok());
  EXPECT_EQ(chase->outcome, ChaseOutcome::kAtomLimit);
}

TEST(IntegrationTest, TerminatingOntologyVariant) {
  auto program = ParseProgram(R"(
    professor(ada).
    professor(X) -> faculty(X).
    faculty(X) -> exists D : worksFor(X, D).
    worksFor(X, D) -> department(D).
  )");
  ASSERT_TRUE(program.ok());
  auto finite = IsChaseFiniteL(*program->database, program->tgds);
  ASSERT_TRUE(finite.ok());
  EXPECT_TRUE(finite.value());
  auto chase = RunChase(*program->database, program->tgds, {});
  ASSERT_TRUE(chase.ok());
  EXPECT_EQ(chase->outcome, ChaseOutcome::kFixpoint);
  EXPECT_TRUE(Satisfies(chase->instance, program->tgds));
}

TEST(IntegrationTest, Figure1PipelineMiniature) {
  // The Fig. 1 pipeline: generate SL TGDs, serialize, parse (t-parse),
  // build D_Σ, run Algorithm 1 (t-graph + t-comp).
  DataGenParams data_params;
  data_params.preds = 50;
  data_params.min_arity = 1;
  data_params.max_arity = 5;
  data_params.rsize = 0;
  auto data = GenerateData(data_params);
  ASSERT_TRUE(data.ok());

  TgdGenParams tgd_params;
  tgd_params.ssize = 30;
  tgd_params.tsize = 2000;
  tgd_params.tclass = TgdClass::kSimpleLinear;
  tgd_params.seed = 17;
  auto tgds = GenerateTgds(*data->schema, tgd_params);
  ASSERT_TRUE(tgds.ok());

  const std::string text = TgdsToString(*data->schema, tgds.value());
  Timer parse_timer;
  auto program = ParseProgram(text);
  const double parse_ms = parse_timer.ElapsedMillis();
  ASSERT_TRUE(program.ok()) << program.status();
  ASSERT_EQ(program->tgds.size(), 2000u);

  // D_Σ: one all-distinct fact per predicate (Remark 1).
  Database& db = *program->database;
  db.EnsureAnonymousDomain(64);
  std::vector<uint32_t> tuple;
  for (PredId pred = 0; pred < program->schema->NumPredicates(); ++pred) {
    tuple.clear();
    for (uint32_t i = 0; i < program->schema->Arity(pred); ++i) {
      tuple.push_back(i);
    }
    ASSERT_TRUE(db.AddFact(pred, tuple).ok());
  }

  SlCheckStats stats;
  auto finite = IsChaseFiniteSL(db, program->tgds, &stats);
  ASSERT_TRUE(finite.ok()) << finite.status();
  EXPECT_GT(stats.graph_nodes, 0u);
  EXPECT_GT(stats.graph_edges, 0u);
  EXPECT_GE(parse_ms, 0.0);
}

TEST(IntegrationTest, Section8PipelineMiniature) {
  // The Section 8 pipeline: shared schema, database D*, linear TGDs, then
  // IsChaseFinite[L] with both shape finder implementations.
  Rng rng(23);
  auto schema = std::make_unique<Schema>();
  auto preds = DeclarePredicates(schema.get(), "p", 40, 1, 5, &rng);
  ASSERT_TRUE(preds.ok());
  Database db(schema.get());
  ASSERT_TRUE(
      PopulateRelations(&db, preds.value(), /*dsize=*/500, /*rsize=*/200,
                        &rng)
          .ok());

  TgdGenParams tgd_params;
  tgd_params.ssize = 25;
  tgd_params.tsize = 500;
  tgd_params.tclass = TgdClass::kLinear;
  tgd_params.seed = 29;
  auto tgds = GenerateTgds(*schema, tgd_params);
  ASSERT_TRUE(tgds.ok());

  LCheckStats mem_stats, db_stats;
  LCheckOptions mem_options{storage::ShapeFinderMode::kScan};
  LCheckOptions db_options{storage::ShapeFinderMode::kExists};
  auto mem_result = IsChaseFiniteL(db, tgds.value(), mem_options, &mem_stats);
  auto db_result = IsChaseFiniteL(db, tgds.value(), db_options, &db_stats);
  ASSERT_TRUE(mem_result.ok()) << mem_result.status();
  ASSERT_TRUE(db_result.ok()) << db_result.status();
  EXPECT_EQ(mem_result.value(), db_result.value());
  EXPECT_EQ(mem_stats.num_initial_shapes, db_stats.num_initial_shapes);
  EXPECT_EQ(mem_stats.num_derived_shapes, db_stats.num_derived_shapes);
  EXPECT_EQ(mem_stats.num_simplified_tgds, db_stats.num_simplified_tgds);
  // The two implementations do different kinds of work.
  EXPECT_GT(mem_stats.access.relations_loaded, 0u);
  EXPECT_EQ(db_stats.access.relations_loaded, 0u);
  EXPECT_GT(db_stats.access.exists_queries, 0u);
}

TEST(IntegrationTest, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/chase_program.dlgp";
  {
    std::ofstream out(path);
    out << "r(a,b).\nr(X,Y) -> s(Y,Z).\ns(X,Y) -> r(X,X).\n";
  }
  auto program = ParseProgramFile(path);
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->tgds.size(), 2u);
  EXPECT_EQ(program->database->TotalFacts(), 1u);
  auto finite = IsChaseFiniteL(*program->database, program->tgds);
  ASSERT_TRUE(finite.ok());
  EXPECT_FALSE(ParseProgramFile("/nonexistent/nope.dlgp").ok());
}

TEST(IntegrationTest, CheckerVerdictPredictsChaseBehaviour) {
  // Three canonical programs where we know the answer; tie every layer
  // together.
  struct Case {
    const char* text;
    bool finite;
  };
  const Case cases[] = {
      {"r(a,b).\nr(X,Y) -> r(Y,Z).", false},
      {"r(a,b).\nr(X,X) -> r(Z,X).", true},
      {"e(a,b).\ne(X,Y) -> t(X,Y).\nt(X,Y) -> t(Y,X).", true},
  };
  for (const Case& c : cases) {
    auto program = ParseProgram(c.text);
    ASSERT_TRUE(program.ok());
    auto verdict = IsChaseFiniteL(*program->database, program->tgds);
    ASSERT_TRUE(verdict.ok());
    EXPECT_EQ(verdict.value(), c.finite) << c.text;
    ChaseOptions options;
    options.max_atoms = 5000;
    auto chase = RunChase(*program->database, program->tgds, options);
    ASSERT_TRUE(chase.ok());
    EXPECT_EQ(chase->outcome == ChaseOutcome::kFixpoint, c.finite) << c.text;
  }
}

}  // namespace
}  // namespace chase
