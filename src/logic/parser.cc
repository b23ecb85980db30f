#include "logic/parser.h"

#include "base/file.h"
#include "base/status.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/tgd.h"

#include <array>
#include <cstdint>
#include <span>

namespace chase {
namespace {

// Byte classes of the grammar, one table load per byte. They are the
// "C"-locale classes: only ASCII letters and digits count, whatever the
// process locale.
enum : uint8_t {
  kDigit = 1 << 0,       // 0-9
  kIdentStart = 1 << 1,  // a letter, '_' or '?'
  kIdentChar = 1 << 2,   // a letter, a digit, '_' or '\''
  kVarStart = 1 << 3,    // an upper-case letter, '_' or '?'
};

constexpr std::array<uint8_t, 256> kCharClasses = [] {
  std::array<uint8_t, 256> classes{};
  for (int c = 0; c < 256; ++c) {
    const bool upper = c >= 'A' && c <= 'Z';
    const bool letter = upper || (c >= 'a' && c <= 'z');
    const bool digit = c >= '0' && c <= '9';
    classes[c] = static_cast<uint8_t>(
        (digit ? kDigit : 0) |
        (letter || c == '_' || c == '?' ? kIdentStart : 0) |
        (letter || digit || c == '_' || c == '\'' ? kIdentChar : 0) |
        (upper || c == '_' || c == '?' ? kVarStart : 0));
  }
  return classes;
}();

bool HasClass(char c, uint8_t mask) {
  return (kCharClasses[static_cast<unsigned char>(c)] & mask) != 0;
}
bool IsDigit(char c) { return HasClass(c, kDigit); }
bool IsIdentStart(char c) { return HasClass(c, kIdentStart); }
bool IsIdentChar(char c) { return HasClass(c, kIdentChar); }
bool IsVarStart(char c) { return HasClass(c, kVarStart); }

// One statement's worth of parsed atoms, before conversion to Tgd / fact.
// The atoms index into the parser's term scratch, which every statement
// clears and refills.
struct ParsedTerm {
  std::string_view text;
  bool is_variable;
};
struct ParsedAtom {
  std::string_view pred;
  uint32_t first;  // index of the first argument in Parser::terms_
  uint32_t size;   // number of arguments
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
    if (IsDigit(c)) {
      size_t start = pos_;
      while (!AtEnd() && IsDigit(Peek())) ++pos_;
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

  // Reads a term: a quoted name is a constant, whatever its text; an
  // unquoted one is a variable when it starts like one.
  StatusOr<ParsedTerm> ReadTerm() {
    const size_t term_start = pos_;
    CHASE_ASSIGN_OR_RETURN(std::string_view name, ReadName());
    const char first = text_[term_start];
    const bool quoted = first == '"' || first == '\'';
    return ParsedTerm{name, !quoted && IsVarStart(first)};
  }

  // Appends one atom to atoms_, its arguments to terms_.
  Status ParseAtom() {
    CHASE_ASSIGN_OR_RETURN(std::string_view pred, ReadName());
    SkipTrivia();
    if (!Consume('(')) return Error("expected '(' after predicate name");
    const auto first = static_cast<uint32_t>(terms_.size());
    do {
      SkipTrivia();
      CHASE_ASSIGN_OR_RETURN(ParsedTerm term, ReadTerm());
      terms_.push_back(term);
      SkipTrivia();
    } while (Consume(','));
    if (!Consume(')')) return Error("expected ')' or ',' in atom");
    atoms_.push_back(ParsedAtom{
        pred, first, static_cast<uint32_t>(terms_.size()) - first});
    return OkStatus();
  }

  Status ParseAtomList() {
    do {
      SkipTrivia();
      CHASE_RETURN_IF_ERROR(ParseAtom());
      SkipTrivia();
    } while (Consume(','));
    return OkStatus();
  }

  std::span<const ParsedTerm> Args(const ParsedAtom& atom) const {
    return std::span<const ParsedTerm>(terms_).subspan(atom.first, atom.size);
  }

  Status ParseStatement() {
    atoms_.clear();
    terms_.clear();
    CHASE_RETURN_IF_ERROR(ParseAtomList());
    const size_t num_body = atoms_.size();
    SkipTrivia();
    if (ConsumeArrow()) {
      return FinishRule(num_body);
    }
    if (!Consume('.')) return Error("expected '.' or '->' after atom(s)");
    if (rules_only_) return Error("facts are not allowed in a rule file");
    if (num_body != 1) {
      return Error("a fact must consist of a single atom");
    }
    return AddFact(atoms_[0]);
  }

  // atoms_[0, num_body) is the body; the head is appended after it.
  Status FinishRule(size_t num_body) {
    SkipTrivia();
    // Optional "exists V1, V2 :" prefix; the listed variables must be
    // head-only, which Tgd::Create enforces structurally, so the list is
    // validated and otherwise ignored.
    existentials_.clear();
    if (PeekKeyword("exists")) {
      pos_ += 6;
      do {
        SkipTrivia();
        CHASE_ASSIGN_OR_RETURN(ParsedTerm var, ReadTerm());
        if (!var.is_variable) {
          return Error("'exists' list must contain variables");
        }
        existentials_.push_back(var.text);
        SkipTrivia();
      } while (Consume(','));
      if (!Consume(':')) return Error("expected ':' after 'exists' list");
    }
    SkipTrivia();
    CHASE_RETURN_IF_ERROR(ParseAtomList());
    SkipTrivia();
    if (!Consume('.')) return Error("expected '.' at end of rule");

    const std::span<const ParsedAtom> atoms(atoms_);
    var_ids_.clear();
    CHASE_ASSIGN_OR_RETURN(std::vector<RuleAtom> body_atoms,
                           ConvertRuleAtoms(atoms.first(num_body)));
    const size_t num_body_vars = var_ids_.size();
    CHASE_ASSIGN_OR_RETURN(std::vector<RuleAtom> head_atoms,
                           ConvertRuleAtoms(atoms.subspan(num_body)));
    for (std::string_view var : existentials_) {
      const size_t id = FindVar(var);
      if (id == var_ids_.size()) {
        return Error("existential variable '" + std::string(var) +
                     "' does not occur in the head");
      }
      if (id < num_body_vars) {
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

  // The id of variable `name` in the current rule (its index in var_ids_),
  // or var_ids_.size() if it has none yet. Rules have few variables, so a
  // linear scan beats hashing.
  size_t FindVar(std::string_view name) const {
    size_t id = 0;
    while (id < var_ids_.size() && var_ids_[id] != name) ++id;
    return id;
  }

  StatusOr<std::vector<RuleAtom>> ConvertRuleAtoms(
      std::span<const ParsedAtom> atoms) {
    std::vector<RuleAtom> out;
    out.reserve(atoms.size());
    for (const ParsedAtom& atom : atoms) {
      auto pred = program_->schema->GetOrAddPredicate(atom.pred, atom.size);
      if (!pred.ok()) return Error(std::string(pred.status().message()));
      RuleAtom rule_atom;
      rule_atom.pred = pred.value();
      rule_atom.args.reserve(atom.size);
      for (const ParsedTerm& term : Args(atom)) {
        if (!term.is_variable) {
          return Error("constants are not allowed in rules (TGDs are "
                       "constant-free): '" +
                       std::string(term.text) + "'");
        }
        const size_t id = FindVar(term.text);
        if (id == var_ids_.size()) var_ids_.push_back(term.text);
        rule_atom.args.push_back(static_cast<VarId>(id));
      }
      out.push_back(std::move(rule_atom));
    }
    return out;
  }

  Status AddFact(const ParsedAtom& atom) {
    auto pred = program_->schema->GetOrAddPredicate(atom.pred, atom.size);
    if (!pred.ok()) return Error(std::string(pred.status().message()));
    tuple_buffer_.clear();
    for (const ParsedTerm& term : Args(atom)) {
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
  // Per-statement scratch, cleared (not freed) between statements.
  std::vector<ParsedAtom> atoms_;   // body atoms, then head atoms
  std::vector<ParsedTerm> terms_;   // every atom's arguments, in order
  std::vector<std::string_view> existentials_;  // the "exists" list
  std::vector<std::string_view> var_ids_;  // a rule's variables by id
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
