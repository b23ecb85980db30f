// Uniform chase termination for (simple-)linear TGDs: does chase(D, Σ)
// terminate for *every* database D?
//
// For simple-linear TGDs this is plain weak acyclicity of Σ (Theorem 3.3
// with the supportedness requirement dropped: the worst-case database
// supports every cycle). For linear TGDs, we run Algorithm 3 on the
// *critical shape database* D⊤ containing one fact per shape of sch(Σ) —
// every database's shape set over sch(Σ) is a subset of shape(sch(Σ)), and
// both D-supportedness and the dynamically simplified rule set grow
// monotonically with the shape set, so chase(D, Σ) is finite for all D iff
// it is finite for D⊤. Facts over predicates no rule mentions never trigger
// a rule, so D⊤ leaves them out.
//
// `chasectl zoo` prints this verdict beside weak acyclicity (which is sound
// for every D but incomplete on non-simple linear Σ).

#ifndef CHASE_CORE_UNIFORM_H_
#define CHASE_CORE_UNIFORM_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/tgd.h"

namespace chase {

// The most facts D⊤ may hold. |D⊤| is exponential in the arity, so a rule
// over one wide predicate would otherwise exhaust memory in the
// enumeration: Bell(11) = 678,570 fits, Bell(12) = 4,213,597 does not.
inline constexpr uint64_t kMaxCriticalShapeFacts = 1'000'000;

// The critical shape database D⊤ of Σ: for every predicate R of sch(Σ) and
// every shape R_id of R, one fact R(id(t̄)) whose constants are the shape's
// block indices. |D⊤| = Σ_{R ∈ sch(Σ)} Bell(ar(R)); ResourceExhausted if
// that exceeds kMaxCriticalShapeFacts.
[[nodiscard]] StatusOr<Database> CriticalShapeDatabase(
    const Schema& schema, const std::vector<Tgd>& tgds);

// True iff chase(D, Σ) is finite for every database D. Requires linear TGDs
// with non-empty frontiers (simple-linear inputs take the weak-acyclicity
// fast path); ResourceExhausted if D⊤ would be too large.
[[nodiscard]] StatusOr<bool> IsChaseFiniteUniform(
    const Schema& schema, const std::vector<Tgd>& tgds);

}  // namespace chase

#endif  // CHASE_CORE_UNIFORM_H_
