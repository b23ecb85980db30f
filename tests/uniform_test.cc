// The uniform termination check (core/uniform.h): does chase(D, Σ)
// terminate for every database D? Its oracle is the chase itself — the
// semi-oblivious chase of the critical shape database D⊤ reaches a
// fixpoint iff the check says "finite" — plus weak acyclicity, which is
// sound for uniform termination.

#include <string>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "chase/chase_engine.h"
#include "core/uniform.h"
#include "core/weak_acyclicity.h"
#include "gen/tgd_generator.h"
#include "logic/parser.h"
#include "logic/printer.h"

namespace chase {
namespace {

Program MustParse(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

TEST(UniformTest, CriticalShapeDatabaseHasBellManyFacts) {
  // The data-only predicate u/3 is outside sch(Σ) and adds no facts.
  Program p = MustParse(
      "u(a,b,c).\nr(X,Y,U) -> s(X).\ns(X) -> t(X,Z).");
  auto critical = CriticalShapeDatabase(*p.schema, p.tgds);
  ASSERT_TRUE(critical.ok()) << critical.status();
  // r/3 contributes B(3)=5, s/1 contributes 1, t/2 contributes 2.
  EXPECT_EQ(critical->TotalFacts(), 5u + 1u + 2u);
}

TEST(UniformTest, RequiresLinearity) {
  Program p = MustParse("r(X,Y), s(Y,X) -> t(X).");
  auto verdict = IsChaseFiniteUniform(*p.schema, p.tgds);
  EXPECT_EQ(verdict.status().code(), StatusCode::kInvalidArgument);
}

TEST(UniformTest, SimpleLinearUsesWeakAcyclicity) {
  Program uniform = MustParse("a(X) -> b(X,Z).\nb(X,Y) -> c(Y).");
  auto verdict = IsChaseFiniteUniform(*uniform.schema, uniform.tgds);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict.value());

  Program infinite = MustParse("r(X,Y) -> r(Y,Z).");
  verdict = IsChaseFiniteUniform(*infinite.schema, infinite.tgds);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict.value());
}

TEST(UniformTest, NonSimpleLinearTerminatingForAllDatabases) {
  // Example 3.4 of the paper: R(x,x) → ∃z R(z,x). For *every* database the
  // chase terminates: firing on R(c,c) yields R(n,c), whose arguments are
  // distinct, so the rule never re-fires on invented atoms.
  Program p = MustParse("r(X,X) -> r(Z,X).");
  auto verdict = IsChaseFiniteUniform(*p.schema, p.tgds);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict.value());
}

TEST(UniformTest, NonSimpleLinearInfiniteSomewhere) {
  Program p = MustParse("r(X,Y) -> r(Y,Z).");
  auto verdict = IsChaseFiniteUniform(*p.schema, p.tgds);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict.value());
}

TEST(UniformTest, UnrelatedWidePredicateStaysOutOfTheCriticalDatabase) {
  // big/16 has Bell(16) ≈ 1.05·10¹⁰ shapes, but no rule mentions it: D⊤
  // holds just the two shapes of q.
  Program p = MustParse(
      "q(X,X) -> q(X,Z).\nq(a,a).\n"
      "big(c1,c2,c3,c4,c5,c6,c7,c8,c9,c10,c11,c12,c13,c14,c15,c16).");
  auto critical = CriticalShapeDatabase(*p.schema, p.tgds);
  ASSERT_TRUE(critical.ok()) << critical.status();
  EXPECT_EQ(critical->TotalFacts(), 2u);
  auto verdict = IsChaseFiniteUniform(*p.schema, p.tgds);
  ASSERT_TRUE(verdict.ok()) << verdict.status();
  EXPECT_TRUE(verdict.value());
}

TEST(UniformTest, WideNonSimpleRuleIsResourceExhausted) {
  // A non-simple linear rule over an arity-16 predicate needs Bell(16)
  // facts in D⊤: refused before anything is enumerated.
  Program p = MustParse(
      "big(X,X,X3,X4,X5,X6,X7,X8,X9,X10,X11,X12,X13,X14,X15,X16) -> "
      "big(X,Z,X3,X4,X5,X6,X7,X8,X9,X10,X11,X12,X13,X14,X15,X16).");
  ASSERT_EQ(p.tgds.size(), 1u);
  ASSERT_FALSE(p.tgds[0].IsSimpleLinear());
  auto verdict = IsChaseFiniteUniform(*p.schema, p.tgds);
  EXPECT_EQ(verdict.status().code(), StatusCode::kResourceExhausted)
      << verdict.status();
  EXPECT_EQ(CriticalShapeDatabase(*p.schema, p.tgds).status().code(),
            StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Random linear rule sets: the check against the chase of D⊤, and weak
// acyclicity's soundness.

Program RandomLinearProgram(Rng& rng) {
  Program p;
  const uint32_t num_preds = 2 + static_cast<uint32_t>(rng.Below(3));
  for (uint32_t i = 0; i < num_preds; ++i) {
    EXPECT_TRUE(p.schema
                    ->AddPredicate("p" + std::to_string(i),
                                   1 + static_cast<uint32_t>(rng.Below(3)))
                    .ok());
  }
  TgdGenParams params;
  params.ssize = num_preds;
  params.min_arity = 1;
  params.max_arity = 3;
  params.tsize = 1 + rng.Below(4);
  params.tclass = TgdClass::kLinear;
  params.existential_percent = 35;
  params.seed = rng.Next();
  auto tgds = GenerateTgds(*p.schema, params);
  EXPECT_TRUE(tgds.ok()) << tgds.status();
  if (tgds.ok()) p.tgds = std::move(tgds).value();
  return p;
}

class UniformSoundnessTest : public testing::TestWithParam<uint64_t> {};

TEST_P(UniformSoundnessTest, AgreesWithTheChaseOfTheCriticalDatabase) {
  Rng rng(GetParam());
  int finite = 0;
  for (int trial = 0; trial < 100; ++trial) {
    Program p = RandomLinearProgram(rng);
    auto uniform = IsChaseFiniteUniform(*p.schema, p.tgds);
    ASSERT_TRUE(uniform.ok()) << uniform.status();
    auto critical = CriticalShapeDatabase(*p.schema, p.tgds);
    ASSERT_TRUE(critical.ok()) << critical.status();
    // Every terminating chase here stays far below the budget (a few
    // predicates of arity <= 3 and at most four rules), so running out of
    // atoms means the chase of D⊤ diverges.
    ChaseOptions options;
    options.variant = ChaseVariant::kSemiOblivious;
    options.max_atoms = 20'000;
    auto result = RunChase(*critical, p.tgds, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(uniform.value(), result->outcome == ChaseOutcome::kFixpoint)
        << ChaseOutcomeName(result->outcome) << " on D⊤ of:\n"
        << TgdsToString(*p.schema, p.tgds);
    finite += uniform.value();
  }
  // The sample must exercise both verdicts for the test to mean anything.
  EXPECT_GE(finite, 5);
  EXPECT_GE(100 - finite, 5);
}

TEST_P(UniformSoundnessTest, WeakAcyclicityImpliesUniformTermination) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    Program p = RandomLinearProgram(rng);
    auto uniform = IsChaseFiniteUniform(*p.schema, p.tgds);
    ASSERT_TRUE(uniform.ok()) << uniform.status();
    if (IsWeaklyAcyclic(*p.schema, p.tgds)) {
      EXPECT_TRUE(uniform.value())
          << "weakly acyclic but uniform check rejects:\n"
          << TgdsToString(*p.schema, p.tgds);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniformSoundnessTest,
                         testing::Values(13, 131, 1313));

}  // namespace
}  // namespace chase
