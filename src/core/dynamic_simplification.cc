#include "core/dynamic_simplification.h"

#include <utility>

#include "base/status.h"
#include "core/simplification.h"
#include "core/specialization.h"
#include "exec/frontier_pool.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "logic/tgd.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

// True iff a homomorphism from the body atom of `tgd` to the shape atom
// R(id) exists, i.e., positions sharing a variable carry equal id values.
// On success, fills `var_id_values[v]` with the id value of each universal
// variable v.
bool BodyHomToShape(const Tgd& tgd, const IdTuple& id,
                    std::vector<uint8_t>& var_id_values) {
  const RuleAtom& body = tgd.body()[0];
  var_id_values.assign(tgd.num_universal(), 0);
  for (size_t i = 0; i < body.args.size(); ++i) {
    uint8_t& value = var_id_values[body.args[i]];
    if (value == 0) {
      value = id[i];
    } else if (value != id[i]) {
      return false;
    }
  }
  return true;
}

// The base-schema shape of `atom` under specialization `f` — exactly the
// shape SimplifyRuleAtom computes, but without touching a ShapeSchema, so
// frontier workers can derive successor shapes in parallel while all
// interning stays on the serial absorb path (deterministic predicate ids).
Shape ShapeUnderSpecialization(const Tgd& tgd, const RuleAtom& atom,
                               const Specialization& f) {
  std::vector<VarId> tuple;
  tuple.reserve(atom.args.size());
  for (VarId var : atom.args) {
    tuple.push_back(tgd.IsUniversal(var) ? f[var] : var);
  }
  return Shape(atom.pred, IdOf(std::span<const VarId>(tuple)));
}

// The (rule, specialization) pairs one shape admits, with the head shapes
// derived under each specialization — the parallel half of an expansion.
// The head shapes are computed exactly once, here on the workers: the same
// vector feeds successor discovery AND the serial SimplifyTgd absorb call,
// which previously re-derived every head shape a second time.
struct ShapeMatch {
  size_t rule;
  Specialization f;
  std::vector<Shape> head_shapes;
};
struct ShapeMatches {
  std::vector<ShapeMatch> rules;
};

}  // namespace

StatusOr<DynamicSimplificationResult> DynamicSimplificationFromShapes(
    const Schema& schema, const std::vector<Tgd>& tgds,
    const std::vector<Shape>& database_shapes, unsigned threads,
    WorkerPool* worker_pool) {
  if (!AllLinear(tgds)) {
    return InvalidArgumentError(
        "dynamic simplification requires linear TGDs");
  }
  for (const Shape& shape : database_shapes) {
    if (shape.pred >= schema.NumPredicates()) {
      return InvalidArgumentError(
          "database shape over a predicate missing from the schema");
    }
  }
  DynamicSimplificationResult result;
  result.shape_schema = std::make_unique<ShapeSchema>(&schema);

  // Index: body predicate -> rules (the "index structure that enables fast
  // access to the TGDs" of Section 5.4), ascending rule index — the
  // canonical per-shape emission order.
  std::vector<std::vector<size_t>> rules_by_body_pred(schema.NumPredicates());
  for (size_t rule = 0; rule < tgds.size(); ++rule) {
    rules_by_body_pred[tgds[rule].body()[0].pred].push_back(rule);
  }

  // S is the engine's seen-set, ΔS its per-depth frontier: each (rule,
  // shape) pair is processed at most once because a shape is admitted into
  // a frontier exactly once. Expansion (homomorphism checks + successor
  // shapes) runs parallel; SimplifyTgd — which interns predicates into the
  // shared shape schema — runs on the serial absorb path in canonical
  // order, so the emitted TGD list and the interning order are independent
  // of the thread count.
  using Pool = FrontierPool<Shape, ShapeMatches, ShapeHash>;
  Pool pool({.threads = std::max(1u, threads), .pool = worker_pool});
  Status status = pool.Run(
      database_shapes,
      [&](unsigned /*worker*/, const Shape& shape, ShapeMatches* out,
          Pool::Discoveries* discovered) -> Status {
        std::vector<uint8_t> var_id_values;
        for (size_t rule : rules_by_body_pred[shape.pred]) {
          const Tgd& tgd = tgds[rule];
          if (!BodyHomToShape(tgd, shape.id, var_id_values)) continue;
          Specialization f = SpecializationFromIdValues(var_id_values);
          std::vector<Shape> head_shapes;
          head_shapes.reserve(tgd.head().size());
          for (const RuleAtom& head_atom : tgd.head()) {
            head_shapes.push_back(
                ShapeUnderSpecialization(tgd, head_atom, f));
            discovered->Discover(head_shapes.back());
          }
          out->rules.push_back(
              {rule, std::move(f), std::move(head_shapes)});
        }
        return OkStatus();
      },
      [&](std::span<const Shape> frontier,
          std::span<ShapeMatches> outs) -> Status {
        for (size_t i = 0; i < frontier.size(); ++i) {
          for (ShapeMatch& match : outs[i].rules) {
            CHASE_ASSIGN_OR_RETURN(
                Tgd simplified,
                SimplifyTgd(tgds[match.rule], match.f, *result.shape_schema,
                            std::span<const Shape>(match.head_shapes)));
            result.tgds.push_back(std::move(simplified));
          }
        }
        return OkStatus();
      },
      &result.frontier);
  CHASE_RETURN_IF_ERROR(status);
  result.num_initial_shapes = result.frontier.seeds_admitted;
  result.num_derived_shapes = result.frontier.items_expanded;
  return result;
}

StatusOr<DynamicSimplificationResult> DynamicSimplification(
    const Database& database, const std::vector<Tgd>& tgds) {
  storage::Catalog catalog(&database);
  storage::MemoryShapeSource source(&catalog);
  CHASE_ASSIGN_OR_RETURN(std::vector<Shape> shapes,
                         storage::FindShapes(source));
  return DynamicSimplificationFromShapes(database.schema(), tgds, shapes);
}

}  // namespace chase
