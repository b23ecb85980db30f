#include "core/simplification.h"

#include <algorithm>

#include "base/status.h"
#include "core/specialization.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "logic/tgd.h"

namespace chase {

PredId ShapeSchema::Intern(ShapeView shape) {
  const auto [pred, fresh] = shapes_.Insert(shape);
  if (fresh) {
    // Names are unique by construction (one per shape), so this cannot
    // fail, and every predicate of schema_ is added here, in shape order:
    // the new predicate's id is the shape's index.
    const Shape& added = shapes_[pred];
    (void)schema_.AddPredicate(ShapeName(*base_, added), added.NumDistinct())
        .value();
  }
  return pred;
}

namespace {

Status ValidateSimplification(const Tgd& tgd, const Specialization& f) {
  if (!tgd.IsLinear()) {
    return InvalidArgumentError("simplification requires a linear TGD");
  }
  if (f.size() != tgd.num_universal() || !IsValidSpecialization(f)) {
    return InvalidArgumentError("invalid specialization for this TGD");
  }
  return OkStatus();
}

}  // namespace

void SpecializeAtom(const Tgd& tgd, const RuleAtom& atom,
                    const Specialization& f, Shape& shape,
                    std::vector<VarId>& unique) {
  unique.clear();
  unique.reserve(atom.args.size());
  shape.pred = atom.pred;
  shape.id.resize(atom.args.size());
  // id(t̄)[i] is 1 + the index of t̄[i] in unique(t̄).
  for (size_t i = 0; i < atom.args.size(); ++i) {
    const VarId var = atom.args[i];
    const VarId image = tgd.IsUniversal(var) ? f[var] : var;
    auto it = std::find(unique.begin(), unique.end(), image);
    if (it == unique.end()) {
      unique.push_back(image);
      it = unique.end() - 1;
    }
    shape.id[i] = static_cast<uint8_t>(it - unique.begin() + 1);
  }
}

StatusOr<Tgd> SimplifyTgd(const Tgd& tgd, const Specialization& f,
                          ShapeSchema& shape_schema,
                          std::vector<Shape>* head_shapes) {
  CHASE_RETURN_IF_ERROR(ValidateSimplification(tgd, f));
  Shape shape;
  std::vector<VarId> unique;
  auto simplify = [&](const RuleAtom& atom) {
    SpecializeAtom(tgd, atom, f, shape, unique);
    return RuleAtom(shape_schema.Intern(shape), unique);
  };
  std::vector<RuleAtom> body;
  body.push_back(simplify(tgd.body()[0]));
  std::vector<RuleAtom> head;
  head.reserve(tgd.head().size());
  for (const RuleAtom& atom : tgd.head()) {
    head.push_back(simplify(atom));
    if (head_shapes != nullptr) head_shapes->push_back(shape);
  }
  return Tgd::Create(std::move(body), std::move(head));
}

StatusOr<StaticSimplificationResult> StaticSimplification(
    const Schema& schema, const std::vector<Tgd>& tgds, uint64_t max_output) {
  if (!AllLinear(tgds)) {
    return InvalidArgumentError(
        "static simplification requires linear TGDs");
  }
  StaticSimplificationResult result;
  result.shape_schema = std::make_unique<ShapeSchema>(&schema);
  for (const Tgd& tgd : tgds) {
    for (const Specialization& f :
         EnumerateSpecializations(tgd.num_universal())) {
      if (result.tgds.size() >= max_output) {
        return ResourceExhaustedError(
            "static simplification exceeded the output cap of " +
            std::to_string(max_output) + " TGDs");
      }
      CHASE_ASSIGN_OR_RETURN(
          Tgd simplified,
          SimplifyTgd(tgd, f, *result.shape_schema, nullptr));
      result.tgds.push_back(std::move(simplified));
    }
  }
  return result;
}

uint64_t StaticSimplificationSize(const std::vector<Tgd>& tgds) {
  uint64_t total = 0;
  for (const Tgd& tgd : tgds) {
    const uint64_t count = BellNumber(tgd.num_universal());
    total = total > UINT64_MAX - count ? UINT64_MAX : total + count;
  }
  return total;
}

std::unique_ptr<Database> SimplifyDatabase(const Database& database,
                                           ShapeSchema& shape_schema) {
  auto simplified = std::make_unique<Database>(&shape_schema.schema());
  std::vector<uint32_t> buffer;
  for (PredId pred : database.NonEmptyPredicates()) {
    const size_t rows = database.NumTuples(pred);
    for (size_t row = 0; row < rows; ++row) {
      auto tuple = database.Tuple(pred, row);
      IdBuffer id;  // only the prefix the tuple fills is read
      const PredId simplified_pred =
          shape_schema.Intern(ShapeViewOfTuple(pred, tuple, id));
      std::vector<uint32_t> unique =
          UniqueOf(std::span<const uint32_t>(tuple));
      buffer.clear();
      for (uint32_t constant : unique) {
        buffer.push_back(
            simplified->InternConstant(database.ConstantName(constant)));
      }
      // Arity matches NumDistinct by construction, so AddFact cannot fail.
      (void)simplified->AddFact(simplified_pred, buffer);
    }
  }
  return simplified;
}

}  // namespace chase
