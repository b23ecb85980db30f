#include "logic/parser.h"

#include "base/file.h"
#include "base/status.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/tgd.h"

#include <cctype>
#include <unordered_map>

namespace chase {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '?';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '\'';
}
bool IsVarStart(char c) {
  return (c >= 'A' && c <= 'Z') || c == '_' || c == '?';
}

// One statement's worth of parsed atoms, before conversion to Tgd / fact.
struct ParsedTerm {
  std::string_view text;
  bool is_variable;
};
struct ParsedAtom {
  std::string_view pred;
  std::vector<ParsedTerm> args;
};

class Parser {
 public:
  Parser(std::string_view text, Program* program, bool rules_only)
      : text_(text), program_(program), rules_only_(rules_only) {}

  Status Run() {
    while (true) {
      SkipTrivia();
      if (AtEnd()) return OkStatus();
      CHASE_RETURN_IF_ERROR(ParseStatement());
    }
  }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }

  void SkipTrivia() {
    while (!AtEnd()) {
      char c = Peek();
      if (c == ' ' || c == '\t' || c == '\r') {
        ++pos_;
      } else if (c == '\n') {
        ++pos_;
        ++line_;
        line_start_ = pos_;
      } else if (c == '%' || c == '#') {
        while (!AtEnd() && Peek() != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  Status Error(const std::string& message) const {
    return InvalidArgumentError("parse error at line " + std::to_string(line_) +
                                ":" + std::to_string(pos_ - line_start_ + 1) +
                                ": " + message);
  }

  bool Consume(char expected) {
    if (!AtEnd() && Peek() == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeArrow() {
    if (pos_ + 1 < text_.size() && text_[pos_] == '-' &&
        text_[pos_ + 1] == '>') {
      pos_ += 2;
      return true;
    }
    return false;
  }

  // Reads an identifier or number token.
  StatusOr<std::string_view> ReadName() {
    if (AtEnd()) return Error("unexpected end of input, expected a name");
    char c = Peek();
    if (c == '"' || c == '\'') {
      const char quote = c;
      size_t start = ++pos_;
      while (!AtEnd() && Peek() != quote) ++pos_;
      if (AtEnd()) return Error("unterminated quoted name");
      std::string_view name = text_.substr(start, pos_ - start);
      ++pos_;  // closing quote
      return name;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t start = pos_;
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos_;
      }
      return text_.substr(start, pos_ - start);
    }
    if (!IsIdentStart(c)) {
      return Error(std::string("unexpected character '") + c + "'");
    }
    size_t start = pos_;
    ++pos_;
    while (!AtEnd() && IsIdentChar(Peek())) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  StatusOr<ParsedAtom> ParseAtom() {
    CHASE_ASSIGN_OR_RETURN(std::string_view pred, ReadName());
    SkipTrivia();
    if (!Consume('(')) return Error("expected '(' after predicate name");
    ParsedAtom atom;
    atom.pred = pred;
    do {
      SkipTrivia();
      size_t term_start = pos_;
      CHASE_ASSIGN_OR_RETURN(std::string_view term, ReadName());
      const char first = text_[term_start];
      const bool quoted = first == '"' || first == '\'';
      atom.args.push_back(ParsedTerm{term, !quoted && IsVarStart(first)});
      SkipTrivia();
    } while (Consume(','));
    if (!Consume(')')) return Error("expected ')' or ',' in atom");
    return atom;
  }

  StatusOr<std::vector<ParsedAtom>> ParseAtomList() {
    std::vector<ParsedAtom> atoms;
    do {
      SkipTrivia();
      CHASE_ASSIGN_OR_RETURN(ParsedAtom atom, ParseAtom());
      atoms.push_back(std::move(atom));
      SkipTrivia();
    } while (Consume(','));
    return atoms;
  }

  Status ParseStatement() {
    CHASE_ASSIGN_OR_RETURN(std::vector<ParsedAtom> body, ParseAtomList());
    SkipTrivia();
    if (ConsumeArrow()) {
      return FinishRule(std::move(body));
    }
    if (!Consume('.')) return Error("expected '.' or '->' after atom(s)");
    if (rules_only_) return Error("facts are not allowed in a rule file");
    if (body.size() != 1) {
      return Error("a fact must consist of a single atom");
    }
    return AddFact(body[0]);
  }

  Status FinishRule(std::vector<ParsedAtom> body) {
    SkipTrivia();
    // Optional "exists V1, V2 :" prefix; the listed variables must be
    // head-only, which Tgd::Create enforces structurally, so the list is
    // validated and otherwise ignored.
    std::vector<std::string_view> declared_existentials;
    if (PeekKeyword("exists")) {
      pos_ += 6;
      do {
        SkipTrivia();
        CHASE_ASSIGN_OR_RETURN(std::string_view var, ReadName());
        if (!IsVarStart(var[0])) {
          return Error("'exists' list must contain variables");
        }
        declared_existentials.push_back(var);
        SkipTrivia();
      } while (Consume(','));
      if (!Consume(':')) return Error("expected ':' after 'exists' list");
    }
    SkipTrivia();
    CHASE_ASSIGN_OR_RETURN(std::vector<ParsedAtom> head, ParseAtomList());
    SkipTrivia();
    if (!Consume('.')) return Error("expected '.' at end of rule");

    var_ids_.clear();
    CHASE_ASSIGN_OR_RETURN(std::vector<RuleAtom> body_atoms,
                           ConvertRuleAtoms(body));
    const size_t num_body_vars = var_ids_.size();
    CHASE_ASSIGN_OR_RETURN(std::vector<RuleAtom> head_atoms,
                           ConvertRuleAtoms(head));
    for (std::string_view var : declared_existentials) {
      auto it = var_ids_.find(var);
      if (it == var_ids_.end()) {
        return Error("existential variable '" + std::string(var) +
                     "' does not occur in the head");
      }
      if (it->second < num_body_vars) {
        return Error("variable '" + std::string(var) +
                     "' is declared existential but occurs in the body");
      }
    }
    auto tgd = Tgd::Create(std::move(body_atoms), std::move(head_atoms));
    if (!tgd.ok()) return Error(std::string(tgd.status().message()));
    program_->tgds.push_back(std::move(tgd).value());
    return OkStatus();
  }

  bool PeekKeyword(std::string_view keyword) {
    if (text_.substr(pos_, keyword.size()) != keyword) return false;
    const size_t after = pos_ + keyword.size();
    return after >= text_.size() || !IsIdentChar(text_[after]);
  }

  StatusOr<std::vector<RuleAtom>> ConvertRuleAtoms(
      const std::vector<ParsedAtom>& atoms) {
    std::vector<RuleAtom> out;
    out.reserve(atoms.size());
    for (const ParsedAtom& atom : atoms) {
      auto pred = program_->schema->GetOrAddPredicate(
          atom.pred, static_cast<uint32_t>(atom.args.size()));
      if (!pred.ok()) return Error(std::string(pred.status().message()));
      RuleAtom rule_atom;
      rule_atom.pred = pred.value();
      rule_atom.args.reserve(atom.args.size());
      for (const ParsedTerm& term : atom.args) {
        if (!term.is_variable) {
          return Error("constants are not allowed in rules (TGDs are "
                       "constant-free): '" +
                       std::string(term.text) + "'");
        }
        auto [it, inserted] = var_ids_.emplace(
            term.text, static_cast<VarId>(var_ids_.size()));
        rule_atom.args.push_back(it->second);
        (void)inserted;
      }
      out.push_back(std::move(rule_atom));
    }
    return out;
  }

  Status AddFact(const ParsedAtom& atom) {
    auto pred = program_->schema->GetOrAddPredicate(
        atom.pred, static_cast<uint32_t>(atom.args.size()));
    if (!pred.ok()) return Error(std::string(pred.status().message()));
    tuple_buffer_.clear();
    for (const ParsedTerm& term : atom.args) {
      if (term.is_variable) {
        return Error("variables are not allowed in facts: '" +
                     std::string(term.text) + "'");
      }
      tuple_buffer_.push_back(program_->database->InternConstant(term.text));
    }
    auto status = program_->database->AddFact(pred.value(), tuple_buffer_);
    if (!status.ok()) return Error(std::string(status.message()));
    return OkStatus();
  }

  std::string_view text_;
  Program* program_;
  bool rules_only_;
  size_t pos_ = 0;
  size_t line_ = 1;
  size_t line_start_ = 0;
  std::unordered_map<std::string_view, VarId> var_ids_;
  std::vector<uint32_t> tuple_buffer_;
};

}  // namespace

StatusOr<Program> ParseProgram(std::string_view text) {
  Program program;
  CHASE_RETURN_IF_ERROR(ParseProgramInto(text, &program));
  return program;
}

Status ParseProgramInto(std::string_view text, Program* program) {
  Parser parser(text, program, /*rules_only=*/false);
  return parser.Run();
}

StatusOr<Program> ParseProgramFile(const std::string& path) {
  CHASE_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  return ParseProgram(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

StatusOr<std::vector<Tgd>> ParseTgds(std::string_view text, Schema* schema) {
  // Route through a Program that borrows the caller's schema.
  Program program;
  program.schema.reset(schema);
  program.database = std::make_unique<Database>(schema);
  Parser parser(text, &program, /*rules_only=*/true);
  Status status = parser.Run();
  program.schema.release();  // not owned
  if (!status.ok()) return status;
  return std::move(program.tgds);
}

StatusOr<Tgd> ParseTgd(std::string_view text, Schema* schema) {
  CHASE_ASSIGN_OR_RETURN(std::vector<Tgd> tgds, ParseTgds(text, schema));
  if (tgds.size() != 1) {
    return InvalidArgumentError("expected exactly one rule, found " +
                                std::to_string(tgds.size()));
  }
  return std::move(tgds[0]);
}

}  // namespace chase
