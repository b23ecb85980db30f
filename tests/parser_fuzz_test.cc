// Robustness fuzzing of the rule/data parser: random token soups and random
// mutations of valid programs must produce a Status, never a crash, hang,
// or accepted garbage — and valid programs must round-trip through the
// printer byte-for-byte semantically.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "logic/parser.h"
#include "logic/printer.h"

namespace chase {
namespace {

// Token pool skewed towards syntactically meaningful fragments so the fuzz
// reaches deep parser states instead of failing at the first byte.
const char* kTokens[] = {
    "r",  "s",   "emp", "X",  "Y",  "Z",  "?v", "_",   "a",  "b",  "c",
    "(",  ")",   ",",   ".",  "->", ":-", "%",  "\n",  " ",  "42", "'q'",
    "exists", ":", "\"str\"", "-",  ">",  "((", "))",  "..", "@",  "#",
};

std::string RandomTokenSoup(Rng* rng, int max_tokens) {
  std::string text;
  const int n = 1 + static_cast<int>(rng->Below(max_tokens));
  for (int i = 0; i < n; ++i) {
    text += kTokens[rng->Below(std::size(kTokens))];
  }
  return text;
}

TEST(ParserFuzzTest, TokenSoupNeverCrashes) {
  Rng rng(123);
  int parsed_ok = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    std::string text = RandomTokenSoup(&rng, 40);
    auto program = ParseProgram(text);
    parsed_ok += program.ok();
    if (!program.ok()) {
      EXPECT_FALSE(program.status().message().empty()) << text;
    }
  }
  // Sanity: the soup is garbage almost always.
  EXPECT_LT(parsed_ok, 2500);
}

TEST(ParserFuzzTest, RandomBytesNeverCrash) {
  Rng rng(456);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string text;
    const int n = static_cast<int>(rng.Below(120));
    for (int i = 0; i < n; ++i) {
      text += static_cast<char>(1 + rng.Below(255));
    }
    auto program = ParseProgram(text);
    (void)program;  // any Status is fine; crashing is not
  }
}

TEST(ParserFuzzTest, MutatedValidProgramsNeverCrash) {
  Rng rng(789);
  const std::string base = R"(
    person(alice). person(bob).
    hasParent(X, Y) -> person(Y).
    person(X) -> exists Z : hasParent(X, Z).
  )";
  for (int trial = 0; trial < 3000; ++trial) {
    std::string text = base;
    const int mutations = 1 + static_cast<int>(rng.Below(4));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.Below(text.size());
      switch (rng.Below(3)) {
        case 0:  // flip
          text[pos] = static_cast<char>(1 + rng.Below(126));
          break;
        case 1:  // delete
          text.erase(pos, 1);
          break;
        default:  // duplicate
          text.insert(pos, 1, text[pos]);
          break;
      }
    }
    auto program = ParseProgram(text);
    (void)program;
  }
}

// Printer -> parser round trip on generated workloads: the printed program
// re-parses to an identical rule set and database.
class RoundTripTest : public testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripTest, GeneratedProgramsRoundTripThroughText) {
  Rng rng(GetParam());
  DataGenParams data_params;
  data_params.preds = 6;
  data_params.min_arity = 1;
  data_params.max_arity = 5;
  data_params.dsize = 200;
  data_params.rsize = 30;
  data_params.seed = rng.Next();
  auto data = GenerateData(data_params);
  ASSERT_TRUE(data.ok());
  TgdGenParams tgd_params;
  tgd_params.ssize = 6;
  tgd_params.min_arity = 1;
  tgd_params.max_arity = 5;
  tgd_params.tsize = 40;
  tgd_params.tclass =
      GetParam() % 2 == 0 ? TgdClass::kLinear : TgdClass::kSimpleLinear;
  tgd_params.seed = rng.Next();
  auto tgds = GenerateTgds(*data->schema, tgd_params);
  ASSERT_TRUE(tgds.ok());

  std::ostringstream out;
  PrintDatabase(*data->database, out);
  PrintTgds(*data->schema, tgds.value(), out);

  auto reparsed = ParseProgram(out.str());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->database->TotalFacts(), data->database->TotalFacts());
  ASSERT_EQ(reparsed->tgds.size(), tgds->size());
  // Rule-by-rule equality holds modulo predicate ids; compare re-printed
  // text, which is canonical.
  std::ostringstream again;
  PrintDatabase(*reparsed->database, again);
  PrintTgds(*reparsed->schema, reparsed->tgds, again);
  EXPECT_EQ(out.str(), again.str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripTest,
                         testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace chase
