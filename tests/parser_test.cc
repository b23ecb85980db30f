#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "logic/parser.h"
#include "logic/printer.h"

namespace chase {
namespace {

TEST(ParserTest, ParsesSingleRule) {
  auto program = ParseProgram("r(X,Y) -> s(Y,Z).");
  ASSERT_TRUE(program.ok());
  ASSERT_EQ(program->tgds.size(), 1u);
  const Tgd& tgd = program->tgds[0];
  EXPECT_TRUE(tgd.IsSimpleLinear());
  EXPECT_EQ(tgd.num_universal(), 2u);
  EXPECT_EQ(tgd.num_existential(), 1u);
  EXPECT_EQ(tgd.frontier(), (std::vector<VarId>{1}));
  EXPECT_EQ(program->schema->NumPredicates(), 2u);
}

TEST(ParserTest, ParsesFacts) {
  auto program = ParseProgram("r(a,b). r(b,c). s(a).");
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program->tgds.empty());
  EXPECT_EQ(program->database->TotalFacts(), 3u);
  const PredId r = program->schema->FindPredicate("r").value();
  EXPECT_EQ(program->database->NumTuples(r), 2u);
}

TEST(ParserTest, MixedRulesAndFacts) {
  auto program = ParseProgram(R"(
    % a comment
    person(alice).
    person(bob).
    person(X) -> hasParent(X, Y), person(Y).  # existential Y
  )");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->tgds.size(), 1u);
  EXPECT_EQ(program->database->TotalFacts(), 2u);
  EXPECT_EQ(program->tgds[0].head().size(), 2u);
}

TEST(ParserTest, ExplicitExistsAnnotation) {
  auto program = ParseProgram("r(X) -> exists Z : s(X, Z).");
  ASSERT_TRUE(program.ok());
  ASSERT_EQ(program->tgds.size(), 1u);
  EXPECT_EQ(program->tgds[0].num_existential(), 1u);
}

TEST(ParserTest, ExistsListMustBeHeadOnly) {
  auto program = ParseProgram("r(X) -> exists X : s(X, X).");
  EXPECT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("existential"),
            std::string_view::npos);
}

TEST(ParserTest, ExistsVariableMustOccur) {
  auto program = ParseProgram("r(X) -> exists W : s(X, Z).");
  EXPECT_FALSE(program.ok());
}

TEST(ParserTest, MultiAtomBody) {
  auto program = ParseProgram("r(X,Y), s(Y,W) -> t(X, W, Z).");
  ASSERT_TRUE(program.ok());
  const Tgd& tgd = program->tgds[0];
  EXPECT_EQ(tgd.body().size(), 2u);
  EXPECT_FALSE(tgd.IsLinear());
  EXPECT_EQ(tgd.num_universal(), 3u);
  EXPECT_EQ(tgd.num_existential(), 1u);
}

TEST(ParserTest, RepeatedBodyVariableIsLinearNotSimple) {
  auto program = ParseProgram("r(X,X) -> s(X).");
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program->tgds[0].IsLinear());
  EXPECT_FALSE(program->tgds[0].IsSimpleLinear());
}

TEST(ParserTest, QuestionMarkVariables) {
  auto program = ParseProgram("r(?x, ?y) -> s(?y).");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->tgds[0].num_universal(), 2u);
}

TEST(ParserTest, QuotedAndNumericConstants) {
  auto program = ParseProgram(R"(r("hello world", 42). r('x y', 7).)");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->database->TotalFacts(), 2u);
}

TEST(ParserTest, RejectsConstantInRule) {
  auto program = ParseProgram("r(X, a) -> s(X).");
  EXPECT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("constant"),
            std::string_view::npos);
}

TEST(ParserTest, RejectsVariableInFact) {
  auto program = ParseProgram("r(X, a).");
  EXPECT_FALSE(program.ok());
}

TEST(ParserTest, RejectsArityMismatch) {
  auto program = ParseProgram("r(a,b). r(a).");
  EXPECT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("arity"),
            std::string_view::npos);
}

TEST(ParserTest, ErrorsCarryLineNumbers) {
  auto program = ParseProgram("r(a).\nr(b)\nr(c).");
  EXPECT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("line 3"),
            std::string_view::npos);
}

TEST(ParserTest, RejectsMissingDot) {
  EXPECT_FALSE(ParseProgram("r(a,b)").ok());
  EXPECT_FALSE(ParseProgram("r(X) -> s(X)").ok());
}

TEST(ParserTest, RejectsMalformedAtoms) {
  EXPECT_FALSE(ParseProgram("r(.").ok());
  EXPECT_FALSE(ParseProgram("r X).").ok());
  EXPECT_FALSE(ParseProgram("r().").ok());
  EXPECT_FALSE(ParseProgram("-> s(X).").ok());
  EXPECT_FALSE(ParseProgram("r(a,).").ok());
}

TEST(ParserTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseProgram("r(\"abc).").ok());
}

TEST(ParserTest, EmptyAndCommentOnlyPrograms) {
  EXPECT_TRUE(ParseProgram("").ok());
  EXPECT_TRUE(ParseProgram("  \n\t ").ok());
  EXPECT_TRUE(ParseProgram("% only a comment\n# another").ok());
}

TEST(ParserTest, FactsNotAllowedInRuleOnlyMode) {
  Schema schema;
  EXPECT_FALSE(ParseTgds("r(a).", &schema).ok());
}

TEST(ParserTest, ParseTgdsSharesSchema) {
  Schema schema;
  ASSERT_TRUE(schema.AddPredicate("r", 2).ok());
  auto tgds = ParseTgds("r(X,Y) -> r(Y,Z).", &schema);
  ASSERT_TRUE(tgds.ok());
  EXPECT_EQ(schema.NumPredicates(), 1u);
  EXPECT_EQ(tgds->size(), 1u);
}

TEST(ParserTest, ParseTgdSingle) {
  Schema schema;
  auto tgd = ParseTgd("r(X,Y) -> r(Y,X).", &schema);
  ASSERT_TRUE(tgd.ok());
  EXPECT_TRUE(tgd->frontier().size() == 2);
  EXPECT_FALSE(ParseTgd("r(X,Y) -> r(Y,X). r(X,Y) -> r(X,X).", &schema).ok());
}

TEST(PrinterTest, TgdRoundTrip) {
  const std::string source =
      "r(X0,X1) -> s(X1,Z0).\n"
      "t(X0,X0,X1) -> r(X0,X1), t(X1,Z0,Z1).\n";
  auto program = ParseProgram(source);
  ASSERT_TRUE(program.ok());
  const std::string printed =
      TgdsToString(*program->schema, program->tgds);
  auto reparsed = ParseProgram(printed);
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->tgds.size(), program->tgds.size());
  for (size_t i = 0; i < program->tgds.size(); ++i) {
    EXPECT_EQ(reparsed->tgds[i], program->tgds[i]) << "rule " << i;
  }
}

TEST(PrinterTest, DatabaseRoundTrip) {
  auto program = ParseProgram("r(a,b). r(b,b). s(a).");
  ASSERT_TRUE(program.ok());
  std::ostringstream os;
  PrintDatabase(*program->database, os);
  auto reparsed = ParseProgram(os.str());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->database->TotalFacts(), 3u);
}

TEST(PrinterTest, GroundAtomWithNull) {
  auto program = ParseProgram("r(a,b).");
  ASSERT_TRUE(program.ok());
  const PredId r = program->schema->FindPredicate("r").value();
  GroundAtom atom(r, {MakeConstant(0), MakeNull(3)});
  EXPECT_EQ(ToString(*program->schema, *program->database, atom),
            "r(a,_:n3)");
}

TEST(PrinterTest, VariableNames) {
  auto program = ParseProgram("r(A,B) -> s(B,C).");
  ASSERT_TRUE(program.ok());
  const Tgd& tgd = program->tgds[0];
  EXPECT_EQ(VariableName(tgd, 0), "X0");
  EXPECT_EQ(VariableName(tgd, 1), "X1");
  EXPECT_EQ(VariableName(tgd, 2), "Z0");
  EXPECT_EQ(ToString(*program->schema, tgd), "r(X0,X1) -> s(X1,Z0).");
}

TEST(ParserTest, LargeRuleSetParses) {
  std::string source;
  for (int i = 0; i < 2000; ++i) {
    source += "p" + std::to_string(i % 50) + "(X,Y) -> p" +
              std::to_string((i + 1) % 50) + "(Y,Z).\n";
  }
  auto program = ParseProgram(source);
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->tgds.size(), 2000u);
  EXPECT_EQ(program->schema->NumPredicates(), 50u);
}

// A directory opens like a file and reads as nothing; it must be an error,
// never an empty program.
TEST(ParserTest, ProgramFileMustBeARegularFile) {
  const std::string dir = testing::TempDir() + "/parser_test_dir.dlgp";
  std::filesystem::create_directories(dir);
  for (const std::string& path : {dir, dir + "/"}) {
    const Status status = ParseProgramFile(path).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << path;
    EXPECT_NE(status.message().find("not a regular file"), std::string::npos)
        << status;
  }
  std::filesystem::remove(dir);
  EXPECT_EQ(ParseProgramFile(dir).status().code(), StatusCode::kNotFound);
}

TEST(ParserTest, IncrementalParsing) {
  Program program;
  ASSERT_TRUE(ParseProgramInto("r(a,b).", &program).ok());
  ASSERT_TRUE(ParseProgramInto("r(X,Y) -> r(Y,Z).", &program).ok());
  EXPECT_EQ(program.database->TotalFacts(), 1u);
  EXPECT_EQ(program.tgds.size(), 1u);
}

}  // namespace
}  // namespace chase
