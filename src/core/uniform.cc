#include "core/uniform.h"

#include <algorithm>
#include <string>

#include "base/status.h"
#include "core/is_chase_finite.h"
#include "core/weak_acyclicity.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "logic/tgd.h"

namespace chase {
namespace {

// sch(Σ): the predicates some rule mentions, ascending.
std::vector<PredId> PredicatesOf(const std::vector<Tgd>& tgds) {
  std::vector<PredId> preds;
  for (const Tgd& tgd : tgds) {
    for (const RuleAtom& atom : tgd.body()) preds.push_back(atom.pred);
    for (const RuleAtom& atom : tgd.head()) preds.push_back(atom.pred);
  }
  std::sort(preds.begin(), preds.end());
  preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
  return preds;
}

}  // namespace

StatusOr<Database> CriticalShapeDatabase(const Schema& schema,
                                         const std::vector<Tgd>& tgds) {
  const std::vector<PredId> preds = PredicatesOf(tgds);
  // Size D⊤ before enumerating it: BellNumber saturates, so the sum cannot
  // wrap, and an over-wide predicate fails here instead of in the
  // allocator.
  uint64_t facts = 0;
  uint32_t max_arity = 0;
  for (PredId pred : preds) {
    const uint64_t shapes = BellNumber(schema.Arity(pred));
    if (shapes > kMaxCriticalShapeFacts - facts) {
      return ResourceExhaustedError(
          "critical shape database over sch(Σ) would exceed " +
          std::to_string(kMaxCriticalShapeFacts) + " facts at " +
          schema.PredicateName(pred) + "/" +
          std::to_string(schema.Arity(pred)) + " (" + std::to_string(shapes) +
          " shapes)");
    }
    facts += shapes;
    max_arity = std::max(max_arity, schema.Arity(pred));
  }
  Database db(&schema);
  db.EnsureAnonymousDomain(max_arity);
  std::vector<uint32_t> tuple;
  for (PredId pred : preds) {
    for (const IdTuple& id : EnumerateIdTuples(schema.Arity(pred))) {
      tuple.assign(id.begin(), id.end());
      for (uint32_t& v : tuple) --v;  // block indices are 1-based
      Status status = db.AddFact(pred, tuple);
      (void)status;  // arity always matches by construction
    }
  }
  return db;
}

StatusOr<bool> IsChaseFiniteUniform(const Schema& schema,
                                    const std::vector<Tgd>& tgds) {
  if (!AllLinear(tgds)) {
    return InvalidArgumentError("uniform check requires linear TGDs");
  }
  if (!AllHaveNonEmptyFrontier(tgds)) {
    return InvalidArgumentError("uniform check requires non-empty frontiers");
  }
  if (AllSimpleLinear(tgds)) {
    return IsWeaklyAcyclic(schema, tgds);
  }
  CHASE_ASSIGN_OR_RETURN(Database critical,
                         CriticalShapeDatabase(schema, tgds));
  return IsChaseFiniteL(critical, tgds);
}

}  // namespace chase
