#include "core/normalize.h"

#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "logic/tgd.h"

namespace chase {

namespace {

// A homomorphism from the (single, linear) body atom to a fact with shape
// `id` exists iff repeated variables land on equal blocks.
bool CompatibleWithShape(const RuleAtom& atom, const IdTuple& id) {
  for (size_t i = 0; i < atom.args.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (atom.args[j] == atom.args[i] && id[j] != id[i]) return false;
    }
  }
  return true;
}

// The shape of `head_atom` when the rule's body atom is matched against a
// fact of shape `body_id`: universal variables take their block value,
// existential variables take per-variable fresh values.
Shape HeadShape(const Tgd& tgd, const RuleAtom& body_atom,
                const IdTuple& body_id, const RuleAtom& head_atom) {
  std::vector<uint32_t> values(head_atom.args.size());
  for (size_t i = 0; i < head_atom.args.size(); ++i) {
    const VarId var = head_atom.args[i];
    if (tgd.IsUniversal(var)) {
      uint32_t block = 0;
      for (size_t j = 0; j < body_atom.args.size(); ++j) {
        if (body_atom.args[j] == var) {
          block = body_id[j];
          break;
        }
      }
      values[i] = block;
    } else {
      // Existential: a fresh value, shared between occurrences of the same
      // variable and distinct from every block (blocks are <= 255).
      values[i] = 256 + var;
    }
  }
  return Shape(head_atom.pred,
               IdOf(std::span<const uint32_t>(values)));
}

}  // namespace

StatusOr<NormalizeResult> NormalizeFrontiers(const Database& database,
                                             const std::vector<Tgd>& tgds) {
  if (!AllLinear(tgds)) {
    return InvalidArgumentError(
        "NormalizeFrontiers requires linear TGDs (shape-based applicability "
        "analysis)");
  }
  const Schema& schema = database.schema();

  NormalizeResult result;
  result.database = std::make_unique<Database>(&schema);
  for (uint32_t id = 0; id < database.NumNamedConstants(); ++id) {
    result.database->InternConstant(database.ConstantName(id));
  }
  result.database->EnsureAnonymousDomain(database.NumConstants());
  for (PredId pred = 0; pred < schema.NumPredicates(); ++pred) {
    const uint32_t arity = schema.Arity(pred);
    const auto tuples = database.Tuples(pred);
    for (size_t row = 0; row * arity < tuples.size(); ++row) {
      CHASE_RETURN_IF_ERROR(result.database->AddFact(
          pred, tuples.subspan(row * arity, arity)));
    }
  }

  std::vector<const Tgd*> pending;
  for (const Tgd& tgd : tgds) {
    if (tgd.HasNonEmptyFrontier()) {
      result.tgds.push_back(tgd);
    } else {
      pending.push_back(&tgd);
    }
  }
  if (pending.empty()) return result;

  // Shape propagation (the Σ(shape(D)) fixpoint of Section 4) over *all*
  // rules: at the shape level an empty-frontier rule firing once already
  // contributes all of its head shapes, so including the pending rules is
  // exact.
  std::vector<std::vector<const Tgd*>> rules_by_pred(schema.NumPredicates());
  for (const Tgd& tgd : tgds) {
    rules_by_pred[tgd.body()[0].pred].push_back(&tgd);
  }
  // The derived set doubles as the worklist: shapes are admitted at
  // ascending indices, so a cursor over them visits each once, FIFO.
  ShapeSet derived;
  for (PredId pred : database.NonEmptyPredicates()) {
    const uint32_t arity = schema.Arity(pred);
    const auto tuples = database.Tuples(pred);
    IdBuffer id;  // only the prefix the tuple fills is read
    for (size_t row = 0; row * arity < tuples.size(); ++row) {
      derived.Insert(
          ShapeViewOfTuple(pred, tuples.subspan(row * arity, arity), id));
    }
  }
  for (uint32_t next = 0; next < derived.size(); ++next) {
    // A copy: inserting below may move the set's items.
    const Shape shape = derived[next];
    for (const Tgd* tgd : rules_by_pred[shape.pred]) {
      const RuleAtom& body = tgd->body()[0];
      if (!CompatibleWithShape(body, shape.id)) continue;
      for (const RuleAtom& head : tgd->head()) {
        derived.Insert(HeadShape(*tgd, body, shape.id, head));
      }
    }
  }

  // Materialize the single firing of each applicable pending rule; the
  // nulls of result(σ, h) are fixed, so fresh constants are an exact stand-
  // in. Inapplicable rules never fire and are dropped.
  for (const Tgd* tgd : pending) {
    const RuleAtom& body = tgd->body()[0];
    bool applicable = false;
    for (const IdTuple& id : EnumerateIdTuples(
             static_cast<uint32_t>(body.args.size()))) {
      if (CompatibleWithShape(body, id) &&
          derived.Contains(ShapeView(body.pred, id))) {
        applicable = true;
        break;
      }
    }
    if (!applicable) {
      ++result.rules_dropped;
      continue;
    }
    ++result.rules_materialized;
    // Empty frontier: every head argument is existential; one fresh
    // constant per existential variable.
    std::unordered_map<VarId, uint32_t> fresh;
    for (const RuleAtom& head : tgd->head()) {
      std::vector<uint32_t> tuple(head.args.size());
      for (size_t i = 0; i < head.args.size(); ++i) {
        auto [it, inserted] = fresh.emplace(
            head.args[i],
            static_cast<uint32_t>(result.database->NumConstants()));
        if (inserted) {
          result.database->EnsureAnonymousDomain(it->second + 1);
        }
        tuple[i] = it->second;
      }
      CHASE_RETURN_IF_ERROR(result.database->AddFact(head.pred, tuple));
    }
  }
  return result;
}

}  // namespace chase
