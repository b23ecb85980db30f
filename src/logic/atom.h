// Rule atoms (atoms over variables, used in TGD bodies and heads) and ground
// atoms (atoms over constants/nulls, used in instances).

#ifndef CHASE_LOGIC_ATOM_H_
#define CHASE_LOGIC_ATOM_H_

#include <cstdint>
#include <vector>

#include "logic/schema.h"
#include "logic/term.h"

namespace chase {

// Per-rule variable index. TGDs are constant-free (Section 2), so rule atoms
// carry only variables.
using VarId = uint32_t;

struct RuleAtom {
  PredId pred = 0;
  std::vector<VarId> args;

  RuleAtom() = default;
  RuleAtom(PredId p, std::vector<VarId> a) : pred(p), args(std::move(a)) {}

  // pos(atom, var): the 0-based argument indices at which `var` occurs.
  std::vector<uint32_t> PositionsOf(VarId var) const;

  // True if no variable occurs more than once (the "simple" condition).
  bool HasDistinctVars() const;

  friend bool operator==(const RuleAtom& a, const RuleAtom& b) {
    return a.pred == b.pred && a.args == b.args;
  }
};

struct GroundAtom {
  PredId pred = 0;
  std::vector<Term> args;

  GroundAtom() = default;
  GroundAtom(PredId p, std::vector<Term> a) : pred(p), args(std::move(a)) {}

  friend bool operator==(const GroundAtom& a, const GroundAtom& b) {
    return a.pred == b.pred && a.args == b.args;
  }
};

}  // namespace chase

#endif  // CHASE_LOGIC_ATOM_H_
