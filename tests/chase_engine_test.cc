#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
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
  EXPECT_TRUE(instance.AddAtom(r, std::vector<Term>{MakeConstant(1)}));
  EXPECT_FALSE(instance.AddAtom(r, std::vector<Term>{MakeConstant(1)}));
  EXPECT_TRUE(instance.AddAtom(r, std::vector<Term>{MakeConstant(2)}));
  EXPECT_EQ(instance.NumAtoms(), 2u);
  EXPECT_TRUE(instance.Contains(r, std::vector<Term>{MakeConstant(1)}));
  EXPECT_FALSE(instance.Contains(r, std::vector<Term>{MakeConstant(3)}));
}

TEST(InstanceTest, MatchesAnOrderedSetOnARandomStream) {
  // 120k random atoms over 40 predicates of arity 1-5, from a domain small
  // enough that low arities mostly repeat and high ones mostly grow their
  // tables through several rehashes. Every AddAtom answer, a Contains probe
  // of an unrelated atom, the atom count, and the per-predicate insertion
  // order must match the oracle.
  constexpr uint32_t kPreds = 40;
  Schema schema;
  for (uint32_t i = 0; i < kPreds; ++i) {
    ASSERT_TRUE(schema.AddPredicate("p" + std::to_string(i), 1 + i % 5).ok());
  }
  Instance instance(&schema);
  std::set<std::pair<PredId, std::vector<Term>>> oracle;
  std::vector<std::vector<std::vector<Term>>> order(kPreds);
  Rng rng(23);
  auto random_atom = [&] {
    const auto pred = static_cast<PredId>(rng.Below(kPreds));
    std::vector<Term> args(schema.Arity(pred));
    for (Term& arg : args) {
      const auto value = static_cast<uint32_t>(rng.Below(24));
      arg = rng.Below(2) == 0 ? MakeConstant(value) : MakeNull(value);
    }
    return std::make_pair(pred, std::move(args));
  };
  for (int i = 0; i < 120'000; ++i) {
    auto [pred, args] = random_atom();
    const bool added = instance.AddAtom(pred, args);
    const bool expected = oracle.emplace(pred, args).second;
    ASSERT_EQ(added, expected) << "atom " << i;
    if (added) order[pred].push_back(args);
    const auto [probe_pred, probe_args] = random_atom();
    ASSERT_EQ(instance.Contains(probe_pred, probe_args),
              oracle.count({probe_pred, probe_args}) > 0)
        << "probe " << i;
  }
  EXPECT_EQ(instance.NumAtoms(), oracle.size());
  EXPECT_GT(oracle.size(), 50'000u);
  std::vector<std::vector<std::vector<Term>>> seen(kPreds);
  instance.ForEachAtom(
      [&](const GroundAtom& atom) { seen[atom.pred].push_back(atom.args); });
  EXPECT_EQ(seen, order);
}

TEST(RowSetTest, WidthZeroHoldsOneRow) {
  // The schema has no arity-0 predicate, but a rule with an empty frontier
  // keys its fired triggers on zero values: the row count alone decides.
  RowSet rows(0);
  EXPECT_FALSE(rows.Contains({}));
  EXPECT_TRUE(rows.Insert({}));
  EXPECT_FALSE(rows.Insert({}));
  EXPECT_EQ(rows.size(), 1u);
  EXPECT_TRUE(rows.Contains({}));
  EXPECT_TRUE(rows[0].empty());
}

TEST(InstanceTest, ConstantAndNullWithTheSameIdAreDistinct) {
  // The terms differ only in the null tag bit.
  Schema schema;
  const PredId r = schema.AddPredicate("r", 2).value();
  Instance instance(&schema);
  const std::vector<Term> constant = {MakeConstant(5), MakeConstant(7)};
  const std::vector<Term> null = {MakeNull(5), MakeConstant(7)};
  EXPECT_TRUE(instance.AddAtom(r, constant));
  EXPECT_FALSE(instance.Contains(r, null));
  EXPECT_TRUE(instance.AddAtom(r, null));
  EXPECT_EQ(instance.NumRows(r), 2u);
  // Equal atoms built separately hash alike: both are found again.
  EXPECT_FALSE(
      instance.AddAtom(r, std::vector<Term>{MakeConstant(5), MakeConstant(7)}));
  EXPECT_FALSE(
      instance.AddAtom(r, std::vector<Term>{MakeNull(5), MakeConstant(7)}));
  EXPECT_EQ(instance.NumAtoms(), 2u);
}

TEST(InstanceTest, EqualArgumentsUnderDifferentPredicatesAreDistinct) {
  Schema schema;
  const PredId r = schema.AddPredicate("r", 2).value();
  const PredId s = schema.AddPredicate("s", 2).value();
  Instance instance(&schema);
  const std::vector<Term> args = {MakeConstant(1), MakeNull(2)};
  EXPECT_TRUE(instance.AddAtom(r, args));
  EXPECT_FALSE(instance.Contains(s, args));
  EXPECT_TRUE(instance.AddAtom(s, args));
  EXPECT_EQ(instance.NumAtoms(), 2u);
}

TEST(InstanceTest, ForEachAtomKeepsInsertionOrderPerPredicate) {
  Schema schema;
  const PredId r = schema.AddPredicate("r", 1).value();
  const PredId s = schema.AddPredicate("s", 1).value();
  Instance instance(&schema);
  for (uint32_t value : {9u, 3u, 7u}) {
    ASSERT_TRUE(instance.AddAtom(s, std::vector<Term>{MakeConstant(value)}));
    ASSERT_TRUE(instance.AddAtom(r, std::vector<Term>{MakeNull(value)}));
  }
  std::vector<GroundAtom> atoms;
  instance.ForEachAtom([&](const GroundAtom& atom) { atoms.push_back(atom); });
  const std::vector<GroundAtom> expected = {
      GroundAtom(r, {MakeNull(9)}),     GroundAtom(r, {MakeNull(3)}),
      GroundAtom(r, {MakeNull(7)}),     GroundAtom(s, {MakeConstant(9)}),
      GroundAtom(s, {MakeConstant(3)}), GroundAtom(s, {MakeConstant(7)})};
  EXPECT_EQ(atoms, expected);
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

TEST(ChaseTest, EmptyFrontierFiresOncePerRule) {
  // r(x) -> exists z s(z): the semi-oblivious trigger key is empty, so the
  // rule fires once however many r-facts match; the oblivious key is x.
  Program p = MustParse("r(a). r(b).\nr(X) -> s(Z).");
  ChaseResult semi = MustChase(p, ChaseVariant::kSemiOblivious);
  EXPECT_EQ(semi.triggers_fired, 1u);
  EXPECT_EQ(semi.instance.NumAtoms(), 3u);
  ChaseResult oblivious = MustChase(p, ChaseVariant::kOblivious);
  EXPECT_EQ(oblivious.triggers_fired, 2u);
  EXPECT_EQ(oblivious.instance.NumAtoms(), 4u);
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
  EXPECT_EQ(result.instance.NumRows(t), 6u);
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
    auto result = RunChase(*p.database, p.tgds);
    ASSERT_TRUE(result.ok()) << result.status();
    const std::string label = "n " + std::to_string(n);
    EXPECT_EQ(result->outcome, ChaseOutcome::kFixpoint) << label;
    EXPECT_EQ(result->rounds, rounds) << label;
    EXPECT_EQ(result->triggers_fired, uint64_t{n} * (n - 1) / 2) << label;
    EXPECT_EQ(result->instance.NumAtoms(), uint64_t{n} * (n + 1) / 2)
        << label;
    EXPECT_TRUE(Satisfies(result->instance, p.tgds)) << label;
  }
}

TEST(ChaseTest, MultiHeadSharesNulls) {
  // r(x) -> s(x,z), t(z): the same null must appear in both head atoms.
  Program p = MustParse("r(a).\nr(X) -> s(X,Z), t(Z).");
  ChaseResult result = MustChase(p, ChaseVariant::kSemiOblivious);
  EXPECT_EQ(result.outcome, ChaseOutcome::kFixpoint);
  const PredId s = p.schema->FindPredicate("s").value();
  const PredId t = p.schema->FindPredicate("t").value();
  ASSERT_EQ(result.instance.NumRows(s), 1u);
  ASSERT_EQ(result.instance.NumRows(t), 1u);
  const Term null_in_s = result.instance.Row(s, 0)[1];
  const Term null_in_t = result.instance.Row(t, 0)[0];
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
  const Term null_s = result.instance.Row(s, 0)[1];
  const Term null_t = result.instance.Row(t, 0)[1];
  EXPECT_NE(null_s, null_t);
}

TEST(ChaseTest, RepeatedBodyVariableFiltersMatches) {
  // r(x,x) -> s(x): only the diagonal tuple matches.
  Program p = MustParse("r(a,a). r(a,b).\nr(X,X) -> s(X).");
  ChaseResult result = MustChase(p, ChaseVariant::kSemiOblivious);
  const PredId s = p.schema->FindPredicate("s").value();
  EXPECT_EQ(result.instance.NumRows(s), 1u);
  EXPECT_EQ(result.instance.Row(s, 0)[0], MakeConstant(0));
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

TEST(ChaseTest, RejectsHeadAtomsTheSchemaCannotStore) {
  // Body and heads alike: an atom's predicate must be in the schema and
  // its argument count the predicate's arity.
  Schema schema;
  const PredId r = schema.AddPredicate("r", 1).value();
  const PredId s = schema.AddPredicate("s", 2).value();
  Database db(&schema);
  ASSERT_TRUE(db.AddFact(r, std::vector<uint32_t>{0}).ok());
  for (const RuleAtom& head :
       {RuleAtom(s, {0}), RuleAtom(s, {0, 1, 2}), RuleAtom(s + 1, {0, 1})}) {
    auto tgd = Tgd::Create({RuleAtom(r, {0})}, {head});
    ASSERT_TRUE(tgd.ok()) << tgd.status();
    EXPECT_EQ(RunChase(db, {*tgd}, {}).status().code(),
              StatusCode::kInvalidArgument);
  }
  auto wide_body = Tgd::Create({RuleAtom(r, {0, 1})}, {RuleAtom(s, {0, 1})});
  ASSERT_TRUE(wide_body.ok()) << wide_body.status();
  EXPECT_EQ(RunChase(db, {*wide_body}, {}).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace chase
