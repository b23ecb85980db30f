#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
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

// Error messages and their line:col, byte for byte.
TEST(ParserTest, ErrorMessagesArePinned) {
  const std::pair<const char*, const char*> cases[] = {
      {"r(a)", "parse error at line 1:5: expected '.' or '->' after atom(s)"},
      {"r(a).\n  r(", "parse error at line 2:5: unexpected end of input, "
                      "expected a name"},
      {"r(\"ab", "parse error at line 1:6: unterminated quoted name"},
      {"r(a;b).", "parse error at line 1:4: expected ')' or ',' in atom"},
      {"r a.", "parse error at line 1:3: expected '(' after predicate name"},
      {"r(-).", "parse error at line 1:3: unexpected character '-'"},
      {"r(a), s(b).", "parse error at line 1:12: a fact must consist of a "
                      "single atom"},
      {"r(X).", "parse error at line 1:6: variables are not allowed in "
                "facts: 'X'"},
      {"r(a,b). r(c).", "parse error at line 1:14: predicate 'r' used with "
                        "arity 1 but declared with arity 2"},
      {"r(X) -> s(X, a).", "parse error at line 1:17: constants are not "
                           "allowed in rules (TGDs are constant-free): 'a'"},
      {"r(X) -> exists a : s(X).", "parse error at line 1:17: 'exists' list "
                                   "must contain variables"},
      {"r(X) -> exists Z s(X).", "parse error at line 1:18: expected ':' "
                                 "after 'exists' list"},
      {"r(X) -> exists W : s(X, Z).", "parse error at line 1:28: existential "
                                      "variable 'W' does not occur in the "
                                      "head"},
      {"r(X) -> exists X : s(X).", "parse error at line 1:25: variable 'X' "
                                   "is declared existential but occurs in "
                                   "the body"},
      {"r(X) -> s(X)", "parse error at line 1:13: expected '.' at end of "
                       "rule"},
      // The exists list classifies names as atoms do: a quoted name is a
      // constant, however it is spelled, the empty one included.
      {"r(a). r(X) -> exists \"Z\" : s(X,Z).",
       "parse error at line 1:25: 'exists' list must contain variables"},
      {"r(a). r(X) -> exists '' : s(X,Z).",
       "parse error at line 1:24: 'exists' list must contain variables"},
      {"r(a). r(X) -> exists Z, 'W' : s(X,Z,W).",
       "parse error at line 1:28: 'exists' list must contain variables"},
  };
  for (const auto& [text, message] : cases) {
    EXPECT_EQ(ParseProgram(text).status().message(), message) << text;
  }
}

// Letters, digits and identifier characters are the ASCII ("C" locale)
// classes, byte for byte.
TEST(ParserTest, CharacterClassesAreAscii) {
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    // An identifier starts with a letter, '_' or '?'.
    const std::string start = std::string(1, c) + "b";
    auto program = ParseProgram(start + "(a).");
    EXPECT_EQ(program.ok() && program->schema->FindPredicate(start),
              alpha || c == '_' || c == '?')
        << "byte " << byte;
    // It continues with letters, digits, '_' and '\''.
    const std::string inner = std::string("a") + c + "b";
    program = ParseProgram("r(" + inner + ").");
    EXPECT_EQ(program.ok() && program->database->NumNamedConstants() == 1 &&
                  program->database->ConstantName(0) == inner,
              alpha || digit || c == '_' || c == '\'')
        << "byte " << byte;
    // A number is a run of digits.
    const std::string number = std::string("1") + c;
    program = ParseProgram("r(" + number + ").");
    EXPECT_EQ(program.ok() && program->database->NumNamedConstants() == 1 &&
                  program->database->ConstantName(0) == number,
              digit)
        << "byte " << byte;
  }
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

// A generated linear program: facts and rules interleaved, with the
// predicate and constant names in the order the text first uses them.
struct GeneratedProgram {
  std::string text;
  std::vector<size_t> statement_ends;  // offset just past each statement
  std::vector<std::string> predicates;
  std::vector<std::string> constants;
};

GeneratedProgram GenerateLinearProgram(size_t facts, size_t rules) {
  constexpr uint32_t kPredicates = 700;
  constexpr uint32_t kConstants = 6000;
  Rng rng(20230322);
  auto draw = [&](uint64_t n) { return rng.Below(n); };
  auto arity = [](uint64_t pred) { return 1 + pred % 3; };
  GeneratedProgram out;
  std::vector<bool> pred_seen(kPredicates), const_seen(kConstants);
  auto use_pred = [&](uint64_t pred) {
    const std::string name = "p" + std::to_string(pred);
    if (!pred_seen[pred]) {
      pred_seen[pred] = true;
      out.predicates.push_back(name);
    }
    return name;
  };
  const char* const var_names[] = {"X", "Y1", "_v", "?w", "Long_Name'"};
  for (size_t fact = 0, rule = 0; fact < facts || rule < rules;) {
    if (fact < facts && (rule == rules || draw(2) == 0)) {
      const uint64_t pred = draw(kPredicates);
      out.text += use_pred(pred) + "(";
      for (uint64_t i = 0; i < arity(pred); ++i) {
        const uint64_t constant = draw(kConstants);
        // Numbers and identifiers, some written quoted.
        const std::string name = constant % 5 == 0
                                     ? std::to_string(constant)
                                     : "c" + std::to_string(constant);
        if (!const_seen[constant]) {
          const_seen[constant] = true;
          out.constants.push_back(name);
        }
        out.text += (i > 0 ? ", " : "") +
                    (constant % 7 == 0 ? "'" + name + "'" : name);
      }
      out.text += ").";
      ++fact;
    } else {
      // One body atom over up to 3 variables (possibly repeated), one or
      // two head atoms that may add 2 more: those are existential.
      const uint64_t body = draw(kPredicates);
      std::string text = use_pred(body) + "(";
      for (uint64_t i = 0; i < arity(body); ++i) {
        text += (i > 0 ? "," : "") + std::string(var_names[draw(3)]);
      }
      text += ") -> ";
      const uint64_t heads = 1 + draw(2);
      for (uint64_t h = 0; h < heads; ++h) {
        const uint64_t head = draw(kPredicates);
        text += (h > 0 ? ", " : "") + use_pred(head) + "(";
        for (uint64_t i = 0; i < arity(head); ++i) {
          text += (i > 0 ? "," : "") + std::string(var_names[draw(5)]);
        }
        text += ")";
      }
      out.text += text + ".";
      ++rule;
    }
    out.text += draw(4) == 0 ? "  % note\n" : "\n";
    out.statement_ends.push_back(out.text.size());
  }
  return out;
}

std::string PrintProgram(const Program& program) {
  std::ostringstream os;
  PrintDatabase(*program.database, os);
  PrintTgds(*program.schema, program.tgds, os);
  return os.str();
}

void ExpectSameProgram(const Program& a, const Program& b) {
  ASSERT_EQ(a.schema->NumPredicates(), b.schema->NumPredicates());
  for (PredId pred = 0; pred < a.schema->NumPredicates(); ++pred) {
    ASSERT_EQ(a.schema->PredicateName(pred), b.schema->PredicateName(pred));
  }
  ASSERT_EQ(a.database->NumNamedConstants(), b.database->NumNamedConstants());
  for (uint32_t c = 0; c < a.database->NumNamedConstants(); ++c) {
    ASSERT_EQ(a.database->ConstantName(c), b.database->ConstantName(c));
  }
  ASSERT_EQ(a.tgds, b.tgds);
  ASSERT_EQ(PrintProgram(a), PrintProgram(b));
}

// Predicate and constant ids are their first use in the text, printing and
// re-parsing is a fixed point, and loading the text in pieces gives the
// same ids as loading it whole.
TEST(ParserTest, GeneratedProgramKeepsFirstUseIds) {
  const GeneratedProgram generated = GenerateLinearProgram(10'000, 10'000);
  auto program = ParseProgram(generated.text);
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->database->TotalFacts(), 10'000u);
  ASSERT_EQ(program->tgds.size(), 10'000u);
  for (const Tgd& tgd : program->tgds) ASSERT_TRUE(tgd.IsLinear());

  ASSERT_EQ(program->schema->NumPredicates(), generated.predicates.size());
  for (PredId pred = 0; pred < generated.predicates.size(); ++pred) {
    ASSERT_EQ(program->schema->PredicateName(pred),
              generated.predicates[pred]);
  }
  ASSERT_EQ(program->database->NumNamedConstants(),
            generated.constants.size());
  for (uint32_t c = 0; c < generated.constants.size(); ++c) {
    ASSERT_EQ(program->database->ConstantName(c), generated.constants[c]);
  }

  const std::string printed = PrintProgram(*program);
  auto reparsed = ParseProgram(printed);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(PrintProgram(*reparsed), printed);

  // Pieces of 1 to 997 statements, through one program.
  Program pieces;
  size_t begin = 0;
  for (size_t i = 0, step = 1; i < generated.statement_ends.size();
       i += step, step = step * 7 % 997 + 1) {
    const size_t end =
        generated.statement_ends[std::min(i + step,
                                          generated.statement_ends.size()) -
                                 1];
    ASSERT_TRUE(ParseProgramInto(
                    std::string_view(generated.text).substr(begin, end - begin),
                    &pieces)
                    .ok());
    begin = end;
  }
  ASSERT_EQ(begin, generated.text.size());
  ExpectSameProgram(*program, pieces);
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
