// Hand-written recursive-descent parser for rule/data files.
//
// Syntax (Datalog± style):
//
//   % comment           # comment
//   r(X, Y) -> exists Z : s(Y, Z), t(Z).   % a TGD; "exists ... :" optional
//   r(X, Y) -> s(Y, Z).                    % head-only vars are existential
//   r(a, b).                               % a fact (ground atom)
//
// Variables start with an upper-case letter, '_' or '?'; constants are
// lower-case identifiers, numbers, or quoted strings. TGDs are constant-free
// (Section 2), so constants in rules and variables in facts are rejected.
// The schema is discovered from use; inconsistent arities are errors.

#ifndef CHASE_LOGIC_PARSER_H_
#define CHASE_LOGIC_PARSER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/tgd.h"

namespace chase {

// A parsed rule/data file: the discovered schema, the facts, and the TGDs.
// The database references the schema, so both live behind stable pointers.
struct Program {
  std::unique_ptr<Schema> schema;
  std::unique_ptr<Database> database;
  std::vector<Tgd> tgds;

  Program()
      : schema(std::make_unique<Schema>()),
        database(std::make_unique<Database>(schema.get())) {}
};

// Parses a complete program (rules and facts).
[[nodiscard]] StatusOr<Program> ParseProgram(std::string_view text);

// Parses `text` into an existing program (incremental loading).
[[nodiscard]] Status ParseProgramInto(std::string_view text, Program* program);

// Parses a file from disk (base/file.h's ReadFileBytes: a path that is not
// a regular file, such as a directory, fails with kInvalidArgument).
[[nodiscard]] StatusOr<Program> ParseProgramFile(const std::string& path);

// Parses rules only, interning predicates into `schema`. Facts are rejected.
[[nodiscard]]
StatusOr<std::vector<Tgd>> ParseTgds(std::string_view text, Schema* schema);

// Parses exactly one rule.
[[nodiscard]] StatusOr<Tgd> ParseTgd(std::string_view text, Schema* schema);

}  // namespace chase

#endif  // CHASE_LOGIC_PARSER_H_
