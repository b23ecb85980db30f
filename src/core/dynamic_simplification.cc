#include "core/dynamic_simplification.h"

#include <algorithm>
#include <span>
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

// The rules one body shape matches, ascending, with each match's
// specialization — the parallel half of an expansion.
struct ShapeMatches {
  std::vector<uint32_t> rules;
  std::vector<Specialization> specializations;  // parallel to `rules`
};

}  // namespace

StatusOr<DynamicSimplificationResult> DynamicSimplificationFromShapes(
    const Schema& schema, const std::vector<Tgd>& tgds,
    const std::vector<Shape>& database_shapes, unsigned threads) {
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
  std::vector<std::vector<uint32_t>> rules_by_body_pred(
      schema.NumPredicates());
  for (uint32_t rule = 0; rule < tgds.size(); ++rule) {
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
  Pool pool({.threads = threads});
  // Per-worker buffers, reused across the worker's expansions.
  struct Scratch {
    std::vector<uint8_t> var_id_values;
    Shape head_shape;
    std::vector<VarId> unique;
  };
  std::vector<Scratch> scratch(std::max(1u, threads));
  CHASE_RETURN_IF_ERROR(pool.Run(
      database_shapes,
      [&](unsigned worker, const Shape& shape, ShapeMatches* out,
          Pool::Discoveries* discovered) -> Status {
        Scratch& local = scratch[worker];
        for (uint32_t rule : rules_by_body_pred[shape.pred]) {
          const Tgd& tgd = tgds[rule];
          if (!BodyHomToShape(tgd, shape.id, local.var_id_values)) continue;
          Specialization f = SpecializationFromIdValues(local.var_id_values);
          for (const RuleAtom& head_atom : tgd.head()) {
            SpecializeAtom(tgd, head_atom, f, local.head_shape, local.unique);
            discovered->Discover(local.head_shape);
          }
          out->rules.push_back(rule);
          out->specializations.push_back(std::move(f));
        }
        return OkStatus();
      },
      [&](std::span<const Shape> /*frontier*/,
          std::span<ShapeMatches> outs) -> Status {
        size_t num_matches = 0;
        for (const ShapeMatches& matches : outs) {
          num_matches += matches.rules.size();
        }
        result.tgds.reserve(result.tgds.size() + num_matches);
        for (const ShapeMatches& matches : outs) {
          for (size_t i = 0; i < matches.rules.size(); ++i) {
            CHASE_ASSIGN_OR_RETURN(
                Tgd simplified,
                SimplifyTgd(tgds[matches.rules[i]],
                            matches.specializations[i],
                            *result.shape_schema, nullptr));
            result.tgds.push_back(std::move(simplified));
          }
        }
        return OkStatus();
      },
      &result.frontier));
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
