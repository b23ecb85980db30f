#include <gtest/gtest.h>

#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/symbols.h"
#include "logic/term.h"
#include "logic/tgd.h"

namespace chase {
namespace {

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable table;
  const uint32_t a = table.Intern("alpha");
  const uint32_t b = table.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("alpha"), a);
  EXPECT_EQ(table.NameOf(a), "alpha");
  EXPECT_EQ(table.NameOf(b), "beta");
  EXPECT_EQ(table.size(), 2u);
}

TEST(SymbolTableTest, FindMissing) {
  SymbolTable table;
  EXPECT_FALSE(table.Find("nope").has_value());
  table.Intern("yes");
  EXPECT_TRUE(table.Find("yes").has_value());
}

// Ids are dense in first-use order however often the table grows, and
// every name stays findable under its id after each growth.
TEST(SymbolTableTest, IdsAreDenseInFirstUseOrderAcrossGrowth) {
  constexpr uint32_t kNames = 100'000;
  SymbolTable table;
  EXPECT_EQ(table.Intern(""), 0u);  // the empty name is a name like any
  for (uint32_t i = 1; i < kNames; ++i) {
    const std::string name = "c" + std::to_string(i);
    ASSERT_EQ(table.Intern(name), i);
    ASSERT_EQ(table.size(), i + 1);
    // A power-of-two size is right after a growth; check everything then.
    if ((i & (i - 1)) == 0) {
      for (uint32_t j = 1; j <= i; ++j) {
        const std::string old = "c" + std::to_string(j);
        ASSERT_EQ(table.Find(old), j) << old;
        ASSERT_EQ(table.NameOf(j), old);
      }
      ASSERT_EQ(table.Find(""), 0u);
    }
  }
  for (uint32_t i = 1; i < kNames; ++i) {
    const std::string name = "c" + std::to_string(i);
    ASSERT_EQ(table.Intern(name), i);  // re-interning adds nothing
    ASSERT_EQ(table.NameOf(i), name);
  }
  EXPECT_EQ(table.size(), kNames);
  EXPECT_EQ(table.NameOf(0), "");
  EXPECT_EQ(table.Find(""), 0u);
  EXPECT_FALSE(table.Find("c" + std::to_string(kNames)).has_value());
}

TEST(SymbolTableTest, PrefixPairsAreDistinctNames) {
  SymbolTable table;
  const uint32_t c1 = table.Intern("c1");
  const uint32_t c10 = table.Intern("c10");
  const uint32_t c = table.Intern("c");
  EXPECT_EQ(c1, 0u);
  EXPECT_EQ(c10, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(table.Find("c1"), c1);
  EXPECT_EQ(table.Find("c10"), c10);
  EXPECT_EQ(table.Find("c"), c);
  EXPECT_FALSE(table.Find("c100").has_value());
  EXPECT_FALSE(table.Find("").has_value());
  // A view of a longer buffer matches only its own bytes.
  const std::string buffer = "c10x";
  EXPECT_EQ(table.Find(std::string_view(buffer).substr(0, 2)), c1);
  EXPECT_EQ(table.Find(std::string_view(buffer).substr(0, 3)), c10);
}

// Intern copies the name: overwriting the caller's buffer afterwards
// changes nothing in the table.
TEST(SymbolTableTest, TableOwnsItsCopyOfEachName) {
  SymbolTable table;
  std::string buffer = "alpha";
  const uint32_t alpha = table.Intern(buffer);
  buffer.replace(0, buffer.size(), "omega");
  EXPECT_EQ(table.NameOf(alpha), "alpha");
  EXPECT_EQ(table.Find("alpha"), alpha);
  EXPECT_FALSE(table.Find("omega").has_value());
  EXPECT_EQ(table.Intern(buffer), alpha + 1);
  // A long name (past any small-string buffer) and growth after it.
  std::string long_name(100, 'x');
  const uint32_t xs = table.Intern(long_name);
  long_name.assign(100, 'y');
  for (int i = 0; i < 1000; ++i) table.Intern("n" + std::to_string(i));
  EXPECT_EQ(table.NameOf(xs), std::string(100, 'x'));
  EXPECT_EQ(table.Find(std::string(100, 'x')), xs);
  EXPECT_FALSE(table.Find(long_name).has_value());
}

TEST(TermTest, TaggedRepresentation) {
  const Term c = MakeConstant(7);
  const Term n = MakeNull(7);
  EXPECT_TRUE(IsConstant(c));
  EXPECT_FALSE(IsNull(c));
  EXPECT_TRUE(IsNull(n));
  EXPECT_FALSE(IsConstant(n));
  EXPECT_EQ(ConstantId(c), 7u);
  EXPECT_EQ(NullId(n), 7u);
  EXPECT_NE(c, n);
}

TEST(SchemaTest, AddAndLookup) {
  Schema schema;
  auto r = schema.AddPredicate("r", 2);
  ASSERT_TRUE(r.ok());
  auto s = schema.AddPredicate("s", 3);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(schema.NumPredicates(), 2u);
  EXPECT_EQ(schema.Arity(r.value()), 2u);
  EXPECT_EQ(schema.Arity(s.value()), 3u);
  EXPECT_EQ(schema.PredicateName(r.value()), "r");
  EXPECT_EQ(schema.FindPredicate("s"), s.value());
  EXPECT_FALSE(schema.FindPredicate("t").has_value());
  EXPECT_EQ(schema.MaxArity(), 3u);
}

TEST(SchemaTest, RejectsDuplicatesAndZeroArity) {
  Schema schema;
  ASSERT_TRUE(schema.AddPredicate("r", 2).ok());
  EXPECT_EQ(schema.AddPredicate("r", 2).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(schema.AddPredicate("z", 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaTest, RejectsAritiesPastTheSupportedMaximum) {
  // Arities beyond kMaxArity would overflow the uint8_t id-tuple encoding
  // and the EXISTS-probe scratch tables; the schema is the choke point.
  Schema schema;
  ASSERT_TRUE(schema.AddPredicate("wide", Schema::kMaxArity).ok());
  EXPECT_EQ(
      schema.AddPredicate("wider", Schema::kMaxArity + 1).status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(schema.GetOrAddPredicate("widest", 100'000).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaTest, GetOrAddChecksArity) {
  Schema schema;
  auto r1 = schema.GetOrAddPredicate("r", 2);
  ASSERT_TRUE(r1.ok());
  auto r2 = schema.GetOrAddPredicate("r", 2);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value(), r2.value());
  EXPECT_EQ(schema.GetOrAddPredicate("r", 3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SchemaTest, PositionEncodingRoundTrips) {
  Schema schema;
  const PredId r = schema.AddPredicate("r", 2).value();
  const PredId s = schema.AddPredicate("s", 3).value();
  const PredId t = schema.AddPredicate("t", 1).value();
  EXPECT_EQ(schema.NumPositions(), 6u);
  // Dense ids are contiguous and unique.
  std::vector<bool> seen(schema.NumPositions(), false);
  for (PredId pred : {r, s, t}) {
    for (uint32_t i = 0; i < schema.Arity(pred); ++i) {
      const uint32_t id = schema.PositionId(pred, i);
      ASSERT_LT(id, schema.NumPositions());
      EXPECT_FALSE(seen[id]);
      seen[id] = true;
      const Position position = schema.PositionFromId(id);
      EXPECT_EQ(position.pred, pred);
      EXPECT_EQ(position.index, i);
    }
  }
}

TEST(RuleAtomTest, PositionsOfAndDistinctness) {
  RuleAtom atom(0, {0, 1, 0, 2});
  EXPECT_EQ(atom.PositionsOf(0), (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(atom.PositionsOf(1), (std::vector<uint32_t>{1}));
  EXPECT_TRUE(atom.PositionsOf(9).empty());
  EXPECT_FALSE(atom.HasDistinctVars());
  EXPECT_TRUE(RuleAtom(0, {0, 1, 2}).HasDistinctVars());
  EXPECT_TRUE(RuleAtom(0, {5}).HasDistinctVars());
}

TEST(TgdTest, CreateNormalizesVariables) {
  // body r(7, 3), head s(3, 99) with 99 head-only: renumber to
  // universals {7->0, 3->1}, existential {99->2}.
  auto tgd = Tgd::Create({RuleAtom(0, {7, 3})}, {RuleAtom(1, {3, 99})});
  ASSERT_TRUE(tgd.ok());
  EXPECT_EQ(tgd->num_vars(), 3u);
  EXPECT_EQ(tgd->num_universal(), 2u);
  EXPECT_EQ(tgd->num_existential(), 1u);
  EXPECT_EQ(tgd->body()[0].args, (std::vector<VarId>{0, 1}));
  EXPECT_EQ(tgd->head()[0].args, (std::vector<VarId>{1, 2}));
  EXPECT_TRUE(tgd->IsUniversal(0));
  EXPECT_TRUE(tgd->IsUniversal(1));
  EXPECT_TRUE(tgd->IsExistential(2));
}

TEST(TgdTest, FrontierComputation) {
  // r(x, y) -> s(y, z): frontier = {y}.
  auto tgd = Tgd::Create({RuleAtom(0, {0, 1})}, {RuleAtom(1, {1, 2})});
  ASSERT_TRUE(tgd.ok());
  EXPECT_EQ(tgd->frontier(), (std::vector<VarId>{1}));
  EXPECT_TRUE(tgd->HasNonEmptyFrontier());
  EXPECT_FALSE(tgd->InFrontier(0));
  EXPECT_TRUE(tgd->InFrontier(1));
}

TEST(TgdTest, EmptyFrontierDetected) {
  // r(x) -> s(z): no shared variable.
  auto tgd = Tgd::Create({RuleAtom(0, {0})}, {RuleAtom(1, {5})});
  ASSERT_TRUE(tgd.ok());
  EXPECT_FALSE(tgd->HasNonEmptyFrontier());
  EXPECT_TRUE(tgd->frontier().empty());
}

TEST(TgdTest, LinearityClassification) {
  auto linear = Tgd::Create({RuleAtom(0, {0, 0})}, {RuleAtom(1, {0})});
  ASSERT_TRUE(linear.ok());
  EXPECT_TRUE(linear->IsLinear());
  EXPECT_FALSE(linear->IsSimpleLinear());

  auto simple = Tgd::Create({RuleAtom(0, {0, 1})}, {RuleAtom(1, {0, 0})});
  ASSERT_TRUE(simple.ok());
  EXPECT_TRUE(simple->IsSimpleLinear());  // head repetition is allowed

  auto multi = Tgd::Create({RuleAtom(0, {0}), RuleAtom(1, {0})},
                           {RuleAtom(1, {0, 1})});
  ASSERT_TRUE(multi.ok());
  EXPECT_FALSE(multi->IsLinear());
  EXPECT_FALSE(multi->IsSimpleLinear());
}

TEST(TgdTest, RejectsEmptyBodyOrHead) {
  EXPECT_FALSE(Tgd::Create({}, {RuleAtom(0, {0})}).ok());
  EXPECT_FALSE(Tgd::Create({RuleAtom(0, {0})}, {}).ok());
  EXPECT_FALSE(Tgd::Create({RuleAtom(0, {})}, {RuleAtom(1, {0})}).ok());
}

TEST(TgdTest, ClassPredicatesOverSets) {
  auto sl = Tgd::Create({RuleAtom(0, {0, 1})}, {RuleAtom(0, {1, 2})});
  auto l = Tgd::Create({RuleAtom(0, {0, 0})}, {RuleAtom(0, {0, 1})});
  ASSERT_TRUE(sl.ok());
  ASSERT_TRUE(l.ok());
  std::vector<Tgd> both = {sl.value(), l.value()};
  EXPECT_TRUE(AllLinear(both));
  EXPECT_FALSE(AllSimpleLinear(both));
  EXPECT_TRUE(AllSimpleLinear({sl.value()}));
  EXPECT_TRUE(AllHaveNonEmptyFrontier(both));
}

TEST(DatabaseTest, AddAndQueryFacts) {
  Schema schema;
  const PredId r = schema.AddPredicate("r", 2).value();
  const PredId s = schema.AddPredicate("s", 1).value();
  Database db(&schema);
  const uint32_t a = db.InternConstant("a");
  const uint32_t b = db.InternConstant("b");
  ASSERT_TRUE(db.AddFact(r, std::vector<uint32_t>{a, b}).ok());
  ASSERT_TRUE(db.AddFact(r, std::vector<uint32_t>{b, b}).ok());
  EXPECT_EQ(db.NumTuples(r), 2u);
  EXPECT_EQ(db.NumTuples(s), 0u);
  EXPECT_TRUE(db.IsEmpty(s));
  EXPECT_FALSE(db.IsEmpty(r));
  EXPECT_EQ(db.TotalFacts(), 2u);
  EXPECT_EQ(db.NonEmptyPredicates(), (std::vector<PredId>{r}));
  auto row = db.Tuple(r, 1);
  EXPECT_EQ(row[0], b);
  EXPECT_EQ(row[1], b);
  EXPECT_EQ(db.ConstantName(a), "a");
}

TEST(DatabaseTest, RejectsArityMismatchAndUnknownPredicate) {
  Schema schema;
  const PredId r = schema.AddPredicate("r", 2).value();
  Database db(&schema);
  EXPECT_EQ(db.AddFact(r, std::vector<uint32_t>{1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(db.AddFact(99, std::vector<uint32_t>{1, 2}).code(),
            StatusCode::kInvalidArgument);
}

TEST(DatabaseTest, AnonymousDomain) {
  Schema schema;
  const PredId r = schema.AddPredicate("r", 1).value();
  Database db(&schema);
  db.EnsureAnonymousDomain(100);
  EXPECT_EQ(db.NumConstants(), 100u);
  ASSERT_TRUE(db.AddFact(r, std::vector<uint32_t>{42}).ok());
  EXPECT_EQ(db.ConstantName(42), "c42");
}

TEST(GroundAtomTest, Equality) {
  GroundAtom a(0, {MakeConstant(1), MakeNull(2)});
  GroundAtom b(0, {MakeConstant(1), MakeNull(2)});
  GroundAtom c(0, {MakeConstant(1), MakeConstant(2)});
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace chase
