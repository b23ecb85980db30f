#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "chase/chase_engine.h"
#include "chase/instance.h"
#include "logic/parser.h"

namespace chase {
namespace {

Program MustParse(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

ChaseResult MustChase(const Program& p, ChaseVariant variant,
                      uint64_t max_atoms = 10000) {
  ChaseOptions options;
  options.variant = variant;
  options.max_atoms = max_atoms;
  auto result = RunChase(*p.database, p.tgds, options);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).value();
}

TEST(InstanceTest, DeduplicatesAtoms) {
  Schema schema;
  const PredId r = schema.AddPredicate("r", 1).value();
  Instance instance(&schema);
  EXPECT_TRUE(instance.AddAtom(GroundAtom(r, {MakeConstant(1)})));
  EXPECT_FALSE(instance.AddAtom(GroundAtom(r, {MakeConstant(1)})));
  EXPECT_TRUE(instance.AddAtom(GroundAtom(r, {MakeConstant(2)})));
  EXPECT_EQ(instance.NumAtoms(), 2u);
  EXPECT_TRUE(instance.Contains(GroundAtom(r, {MakeConstant(1)})));
  EXPECT_FALSE(instance.Contains(GroundAtom(r, {MakeConstant(3)})));
}

TEST(InstanceTest, FromDatabase) {
  Program p = MustParse("r(a,b). r(b,c). s(a).");
  Instance instance = Instance::FromDatabase(*p.database);
  EXPECT_EQ(instance.NumAtoms(), 3u);
  size_t count = 0;
  instance.ForEachAtom([&](const GroundAtom&) { ++count; });
  EXPECT_EQ(count, 3u);
}

TEST(ChaseTest, PaperExample11RestrictedVsSemiOblivious) {
  // Example 1.1: D = {R(a,a)}, R(x,y) -> exists z R(z,x).
  // Restricted: already satisfied, no application. (Semi-)oblivious: grows
  // forever.
  Program p = MustParse("r(a,a).\nr(X,Y) -> r(Z,X).");

  ChaseResult restricted = MustChase(p, ChaseVariant::kRestricted);
  EXPECT_EQ(restricted.outcome, ChaseOutcome::kFixpoint);
  EXPECT_EQ(restricted.instance.NumAtoms(), 1u);
  EXPECT_EQ(restricted.triggers_fired, 0u);

  ChaseResult semi = MustChase(p, ChaseVariant::kSemiOblivious, 200);
  EXPECT_EQ(semi.outcome, ChaseOutcome::kAtomLimit);

  ChaseResult oblivious = MustChase(p, ChaseVariant::kOblivious, 200);
  EXPECT_EQ(oblivious.outcome, ChaseOutcome::kAtomLimit);
}

TEST(ChaseTest, Section3InfiniteExample) {
  // D = {R(a,b)}, R(x,y) -> exists z R(y,z): chase(D, Σ) is infinite.
  Program p = MustParse("r(a,b).\nr(X,Y) -> r(Y,Z).");
  ChaseResult semi = MustChase(p, ChaseVariant::kSemiOblivious, 500);
  EXPECT_EQ(semi.outcome, ChaseOutcome::kAtomLimit);
  // Restricted also runs forever here (every new null needs a successor).
  ChaseResult restricted = MustChase(p, ChaseVariant::kRestricted, 500);
  EXPECT_EQ(restricted.outcome, ChaseOutcome::kAtomLimit);
}

TEST(ChaseTest, SemiObliviousFiresOncePerFrontierWitness) {
  // R(x,y) -> exists z S(x,z): two facts sharing x fire one trigger in the
  // semi-oblivious chase (frontier {x}) but two in the oblivious chase.
  Program p = MustParse("r(a,b). r(a,c).\nr(X,Y) -> s(X,Z).");
  ChaseResult semi = MustChase(p, ChaseVariant::kSemiOblivious);
  EXPECT_EQ(semi.outcome, ChaseOutcome::kFixpoint);
  EXPECT_EQ(semi.triggers_fired, 1u);
  EXPECT_EQ(semi.instance.NumAtoms(), 3u);

  ChaseResult oblivious = MustChase(p, ChaseVariant::kOblivious);
  EXPECT_EQ(oblivious.outcome, ChaseOutcome::kFixpoint);
  EXPECT_EQ(oblivious.triggers_fired, 2u);
  EXPECT_EQ(oblivious.instance.NumAtoms(), 4u);

  // Restricted: one application satisfies the other trigger too.
  ChaseResult restricted = MustChase(p, ChaseVariant::kRestricted);
  EXPECT_EQ(restricted.outcome, ChaseOutcome::kFixpoint);
  EXPECT_EQ(restricted.instance.NumAtoms(), 3u);
}

TEST(ChaseTest, TerminatingTransitiveClosureStyleRules) {
  Program p = MustParse(R"(
    e(a,b). e(b,c). e(c,d).
    e(X,Y) -> t(X,Y).
    t(X,Y), e(Y,W) -> t(X,W).
  )");
  ChaseResult result = MustChase(p, ChaseVariant::kSemiOblivious);
  EXPECT_EQ(result.outcome, ChaseOutcome::kFixpoint);
  // t = transitive closure: (a,b),(b,c),(c,d),(a,c),(b,d),(a,d).
  const PredId t = p.schema->FindPredicate("t").value();
  EXPECT_EQ(result.instance.AtomsOf(t).size(), 6u);
  EXPECT_TRUE(Satisfies(result.instance, p.tgds));
}

TEST(ChaseTest, TransitiveClosureOfAChainMatchesItsClosedForms) {
  // e(X,Y), e(Y,Z) -> e(X,Z) over the chain c0 -> c1 -> ... -> cn. Round r
  // derives exactly the paths of length in (2^(r-1), 2^r], so the chase
  // needs ceil(log2 n) growing rounds plus the one that finds nothing new;
  // each pair at distance >= 2 is one frontier binding, fired once; the
  // result is every pair i < j. Each round's body join looks up rows added
  // in the round before, so this pins the multi-round behaviour the row
  // index must keep: it is extended at every round start.
  for (uint32_t n : {1u, 2u, 5u, 8u, 40u}) {
    std::string text;
    for (uint32_t i = 0; i < n; ++i) {
      text += "e(c" + std::to_string(i) + ",c" + std::to_string(i + 1) +
              ").\n";
    }
    text += "e(X,Y), e(Y,Z) -> e(X,Z).\n";
    const Program p = MustParse(text);
    uint64_t rounds = 1;
    while ((uint64_t{1} << (rounds - 1)) < n) ++rounds;
    for (unsigned threads : {1u, 4u}) {
      ChaseOptions options;
      options.frontier_threads = threads;
      auto result = RunChase(*p.database, p.tgds, options);
      ASSERT_TRUE(result.ok()) << result.status();
      const std::string label =
          "n " + std::to_string(n) + ", threads " + std::to_string(threads);
      EXPECT_EQ(result->outcome, ChaseOutcome::kFixpoint) << label;
      EXPECT_EQ(result->rounds, rounds) << label;
      EXPECT_EQ(result->triggers_fired, uint64_t{n} * (n - 1) / 2) << label;
      EXPECT_EQ(result->instance.NumAtoms(), uint64_t{n} * (n + 1) / 2)
          << label;
      EXPECT_TRUE(Satisfies(result->instance, p.tgds)) << label;
    }
  }
}

TEST(ChaseTest, MultiHeadSharesNulls) {
  // r(x) -> s(x,z), t(z): the same null must appear in both head atoms.
  Program p = MustParse("r(a).\nr(X) -> s(X,Z), t(Z).");
  ChaseResult result = MustChase(p, ChaseVariant::kSemiOblivious);
  EXPECT_EQ(result.outcome, ChaseOutcome::kFixpoint);
  const PredId s = p.schema->FindPredicate("s").value();
  const PredId t = p.schema->FindPredicate("t").value();
  ASSERT_EQ(result.instance.AtomsOf(s).size(), 1u);
  ASSERT_EQ(result.instance.AtomsOf(t).size(), 1u);
  const Term null_in_s = result.instance.AtomsOf(s)[0].args[1];
  const Term null_in_t = result.instance.AtomsOf(t)[0].args[0];
  EXPECT_TRUE(IsNull(null_in_s));
  EXPECT_EQ(null_in_s, null_in_t);
}

TEST(ChaseTest, ResultSatisfiesRulesWhenFinite) {
  Program p = MustParse(R"(
    r(a,b). r(b,c).
    r(X,Y) -> s(Y).
    s(X) -> u(X,X).
    u(X,Y) -> w(X).
  )");
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    ChaseResult result = MustChase(p, variant);
    EXPECT_EQ(result.outcome, ChaseOutcome::kFixpoint)
        << ChaseVariantName(variant);
    EXPECT_TRUE(Satisfies(result.instance, p.tgds))
        << ChaseVariantName(variant);
  }
}

TEST(ChaseTest, VariantInstanceSizeOrdering) {
  // restricted <= semi-oblivious <= oblivious on terminating inputs.
  Program p = MustParse(R"(
    r(a,b). r(a,c). r(b,b).
    r(X,Y) -> s(X,Z).
    s(X,Y) -> t(X).
  )");
  const auto restricted =
      MustChase(p, ChaseVariant::kRestricted).instance.NumAtoms();
  const auto semi =
      MustChase(p, ChaseVariant::kSemiOblivious).instance.NumAtoms();
  const auto oblivious =
      MustChase(p, ChaseVariant::kOblivious).instance.NumAtoms();
  EXPECT_LE(restricted, semi);
  EXPECT_LE(semi, oblivious);
}

TEST(ChaseTest, EmptyDatabaseFixpointImmediately) {
  Program p = MustParse("r(X,Y) -> r(Y,Z).");
  ChaseResult result = MustChase(p, ChaseVariant::kSemiOblivious);
  EXPECT_EQ(result.outcome, ChaseOutcome::kFixpoint);
  EXPECT_EQ(result.instance.NumAtoms(), 0u);
}

TEST(ChaseTest, NoRulesIsFixpoint) {
  Program p = MustParse("r(a,b).");
  ChaseResult result = MustChase(p, ChaseVariant::kSemiOblivious);
  EXPECT_EQ(result.outcome, ChaseOutcome::kFixpoint);
  EXPECT_EQ(result.instance.NumAtoms(), 1u);
  EXPECT_EQ(result.rounds, 1u);
}

TEST(ChaseTest, RoundLimit) {
  Program p = MustParse("r(a,b).\nr(X,Y) -> r(Y,Z).");
  ChaseOptions options;
  options.variant = ChaseVariant::kSemiOblivious;
  options.max_rounds = 3;
  auto result = RunChase(*p.database, p.tgds, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->outcome, ChaseOutcome::kRoundLimit);
  EXPECT_EQ(result->rounds, 3u);
}

TEST(ChaseTest, NullNamesAreFunctionalInSemiOblivious) {
  // Two rules with the same body: each fires once; nulls across rules are
  // distinct.
  Program p = MustParse(R"(
    r(a).
    r(X) -> s(X,Z).
    r(X) -> t(X,Z).
  )");
  ChaseResult result = MustChase(p, ChaseVariant::kSemiOblivious);
  const PredId s = p.schema->FindPredicate("s").value();
  const PredId t = p.schema->FindPredicate("t").value();
  const Term null_s = result.instance.AtomsOf(s)[0].args[1];
  const Term null_t = result.instance.AtomsOf(t)[0].args[1];
  EXPECT_NE(null_s, null_t);
}

TEST(ChaseTest, RepeatedBodyVariableFiltersMatches) {
  // r(x,x) -> s(x): only the diagonal tuple matches.
  Program p = MustParse("r(a,a). r(a,b).\nr(X,X) -> s(X).");
  ChaseResult result = MustChase(p, ChaseVariant::kSemiOblivious);
  const PredId s = p.schema->FindPredicate("s").value();
  EXPECT_EQ(result.instance.AtomsOf(s).size(), 1u);
  EXPECT_EQ(result.instance.AtomsOf(s)[0].args[0], MakeConstant(0));
}

TEST(ChaseTest, PaperExample34NoTrigger) {
  // Example 3.4: D = {R(a,b)}, R(x,x) -> exists z R(z,x): no trigger, the
  // chase equals D.
  Program p = MustParse("r(a,b).\nr(X,X) -> r(Z,X).");
  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    ChaseResult result = MustChase(p, variant);
    EXPECT_EQ(result.outcome, ChaseOutcome::kFixpoint);
    EXPECT_EQ(result.instance.NumAtoms(), 1u);
    EXPECT_EQ(result.triggers_fired, 0u);
  }
}

TEST(ChaseTest, SatisfiesDetectsViolation) {
  Program p = MustParse("r(a,b).\nr(X,Y) -> s(X).");
  Instance instance = Instance::FromDatabase(*p.database);
  EXPECT_FALSE(Satisfies(instance, p.tgds));
}

TEST(ChaseTest, RejectsRuleOverForeignSchema) {
  Program rules = MustParse("r(X) -> s(X).");
  Schema other;
  Database db(&other);
  EXPECT_FALSE(RunChase(db, rules.tgds, {}).ok());
}

}  // namespace
}  // namespace chase
