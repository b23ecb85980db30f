#include "query/conjunctive_query.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <utility>

#include "base/status.h"
#include "chase/body_partition.h"
#include "chase/chase_engine.h"
#include "chase/instance.h"
#include "chase/row_index.h"
#include "core/is_chase_finite.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/term.h"
#include "logic/tgd.h"

namespace chase {
namespace query {

namespace {

// A minimal lexer for the query syntax. Kept local: queries are a handful
// of tokens, and reusing the rule parser would drag fact/TGD handling in.
class QueryLexer {
 public:
  explicit QueryLexer(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool ConsumeChar(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeTurnstile() {
    SkipSpace();
    if (pos_ + 1 < text_.size() && text_[pos_] == ':' &&
        text_[pos_ + 1] == '-') {
      pos_ += 2;
      return true;
    }
    return false;
  }

  StatusOr<std::string> ConsumeName() {
    SkipSpace();
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_' || text_[pos_] == '?')) {
      ++pos_;
    }
    if (start == pos_) {
      return InvalidArgumentError("expected a name at offset " +
                                  std::to_string(pos_));
    }
    return std::string(text_.substr(start, pos_ - start));
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

bool IsVariableName(std::string_view name) {
  const char c = name.front();
  return std::isupper(static_cast<unsigned char>(c)) || c == '_' || c == '?';
}

}  // namespace

StatusOr<ConjunctiveQuery> ParseQuery(std::string_view text, Schema* schema) {
  QueryLexer lexer(text);
  ConjunctiveQuery cq;
  std::map<std::string, VarId> vars;
  auto var_of = [&](const std::string& name) {
    auto [it, inserted] = vars.emplace(name, cq.num_vars);
    if (inserted) ++cq.num_vars;
    return it->second;
  };

  // Head: name(V1, ..., Vk)
  CHASE_ASSIGN_OR_RETURN(cq.name, lexer.ConsumeName());
  if (!lexer.ConsumeChar('(')) {
    return InvalidArgumentError("expected '(' after query name");
  }
  if (!lexer.ConsumeChar(')')) {
    while (true) {
      CHASE_ASSIGN_OR_RETURN(std::string name, lexer.ConsumeName());
      if (!IsVariableName(name)) {
        return InvalidArgumentError("query head must use variables, got '" +
                                    name + "'");
      }
      cq.answer_vars.push_back(var_of(name));
      if (lexer.ConsumeChar(')')) break;
      if (!lexer.ConsumeChar(',')) {
        return InvalidArgumentError("expected ',' or ')' in query head");
      }
    }
  }
  if (!lexer.ConsumeTurnstile()) {
    return InvalidArgumentError("expected ':-' after query head");
  }

  // Body: atom, atom, ... '.'
  while (true) {
    CHASE_ASSIGN_OR_RETURN(std::string pred_name, lexer.ConsumeName());
    if (!lexer.ConsumeChar('(')) {
      return InvalidArgumentError("expected '(' after predicate '" +
                                  pred_name + "'");
    }
    std::vector<VarId> args;
    if (!lexer.ConsumeChar(')')) {
      while (true) {
        CHASE_ASSIGN_OR_RETURN(std::string name, lexer.ConsumeName());
        if (!IsVariableName(name)) {
          return InvalidArgumentError(
              "query bodies are variable-only (TGDs are constant-free), "
              "got '" + name + "'");
        }
        args.push_back(var_of(name));
        if (lexer.ConsumeChar(')')) break;
        if (!lexer.ConsumeChar(',')) {
          return InvalidArgumentError("expected ',' or ')' in atom");
        }
      }
    }
    if (args.empty()) {
      return InvalidArgumentError("atoms must have at least one argument");
    }
    CHASE_ASSIGN_OR_RETURN(
        PredId pred,
        schema->GetOrAddPredicate(pred_name,
                                  static_cast<uint32_t>(args.size())));
    cq.body.emplace_back(pred, std::move(args));
    if (lexer.ConsumeChar('.')) break;
    if (!lexer.ConsumeChar(',')) {
      return InvalidArgumentError("expected ',' or '.' after atom");
    }
  }
  if (!lexer.AtEnd()) {
    return InvalidArgumentError("trailing input after query");
  }
  if (cq.body.empty()) {
    return InvalidArgumentError("query body must not be empty");
  }

  // Safety: every answer variable occurs in the body.
  std::vector<bool> in_body(cq.num_vars, false);
  for (const RuleAtom& atom : cq.body) {
    for (VarId v : atom.args) in_body[v] = true;
  }
  for (VarId v : cq.answer_vars) {
    if (!in_body[v]) {
      return InvalidArgumentError("unsafe query: answer variable not bound "
                                  "by the body");
    }
  }
  return cq;
}

std::vector<Answer> Evaluate(const Instance& instance,
                             const ConjunctiveQuery& query) {
  std::set<Answer> answers;
  const std::vector<Term> unbound(query.num_vars, kUnboundTerm);
  RowIndex index;
  IndexProbes(query.body, unbound, index);
  index.Extend(instance);
  HomEnumerator matcher;
  matcher.Reset(query.body, &instance, FullRanges(query.body, instance),
                unbound, &index);
  while (matcher.Next()) {
    Answer answer;
    answer.reserve(query.answer_vars.size());
    for (VarId v : query.answer_vars) answer.push_back(matcher.hom()[v]);
    answers.insert(std::move(answer));
  }
  return {answers.begin(), answers.end()};
}

std::vector<Answer> Evaluate(const Database& database,
                             const ConjunctiveQuery& query) {
  return Evaluate(Instance::FromDatabase(database), query);
}

StatusOr<CertainAnswersResult> CertainAnswers(
    const Database& database, const std::vector<Tgd>& tgds,
    const ConjunctiveQuery& query, const CertainAnswersOptions& options) {
  // For linear TGDs the termination checkers give an exact a-priori answer;
  // otherwise the atom bound guards the materialization.
  if (AllLinear(tgds) && AllHaveNonEmptyFrontier(tgds) && !tgds.empty()) {
    StatusOr<bool> finite =
        AllSimpleLinear(tgds) ? IsChaseFiniteSL(database, tgds)
                              : IsChaseFiniteL(database, tgds);
    CHASE_RETURN_IF_ERROR(finite.status());
    if (!finite.value()) {
      return FailedPreconditionError(
          "chase(D, Σ) is infinite; certain answers require a terminating "
          "chase");
    }
  }
  ChaseOptions chase_options;
  chase_options.variant = ChaseVariant::kSemiOblivious;
  chase_options.max_atoms = options.max_atoms;
  CHASE_ASSIGN_OR_RETURN(ChaseResult chased,
                         RunChase(database, tgds, chase_options));
  if (chased.outcome != ChaseOutcome::kFixpoint) {
    return ResourceExhaustedError(
        "chase materialization exceeded max_atoms");
  }
  CertainAnswersResult result;
  result.chase_atoms = chased.instance.NumAtoms();
  for (Answer& answer : Evaluate(chased.instance, query)) {
    const bool null_free =
        std::none_of(answer.begin(), answer.end(),
                     [](Term t) { return IsNull(t); });
    if (null_free) result.answers.push_back(std::move(answer));
  }
  return result;
}

}  // namespace query
}  // namespace chase
