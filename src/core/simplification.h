// Simplification of linear TGDs into simple-linear TGDs (Definition 3.5).
//
// The simplification of an atom R(t̄) is R_{id(t̄)}(unique(t̄)): the
// repetition pattern of t̄ moves into the predicate name and the arguments
// become distinct. ShapeSchema interns the shape predicates R_{id(t̄)} into a
// fresh schema; StaticSimplification computes simple(Σ) by enumerating every
// specialization of every rule's body variables (exponential in arity — see
// dynamic_simplification.h for the database-aware alternative), and
// SimplifyDatabase computes simple(D).

#ifndef CHASE_CORE_SIMPLIFICATION_H_
#define CHASE_CORE_SIMPLIFICATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "base/status.h"
#include "core/specialization.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "logic/tgd.h"

namespace chase {

// Interns shapes over a base schema as predicates of a simplified schema.
// The simplified predicate of shape R_{id} has arity |unique(id)|.
class ShapeSchema {
 public:
  explicit ShapeSchema(const Schema* base) : base_(base) {}

  // Not copyable/movable: Database objects hold pointers to schema().
  ShapeSchema(const ShapeSchema&) = delete;
  ShapeSchema& operator=(const ShapeSchema&) = delete;

  const Schema& base() const { return *base_; }
  const Schema& schema() const { return schema_; }

  // Returns the simplified predicate for `shape`, interning it on first use.
  // A Shape converts to its view; a hit copies nothing.
  PredId Intern(ShapeView shape);

  // The shape a simplified predicate came from.
  const Shape& ShapeOf(PredId simplified_pred) const {
    return shapes_[simplified_pred];
  }

  size_t NumShapes() const { return shapes_.size(); }

 private:
  const Schema* base_;
  Schema schema_;
  // The interned shapes; a shape's item index is its simplified PredId.
  ShapeSet shapes_;
};

// The base-schema shape of rule atom `atom` of the linear `tgd` under the
// specialization `f` of its body variables (existentials are untouched),
// written into `shape`. `unique` receives the atom's distinct variables
// after f in first-occurrence order: the simplified atom's arguments. Both
// buffers are overwritten, their storage reused. The one derivation behind
// SimplifyTgd and the successor shapes of dynamic simplification.
void SpecializeAtom(const Tgd& tgd, const RuleAtom& atom,
                    const Specialization& f, Shape& shape,
                    std::vector<VarId>& unique);

// The simplification of one linear TGD induced by a specialization `f` of
// its distinct body variables (Definition 3.5). `head_shapes`, if non-null,
// receives the base-schema shapes of the simplified head atoms, in head
// order. The body shape is interned first, then the head shapes.
[[nodiscard]] StatusOr<Tgd> SimplifyTgd(const Tgd& tgd, const Specialization& f,
                          ShapeSchema& shape_schema,
                          std::vector<Shape>* head_shapes);

struct StaticSimplificationResult {
  std::unique_ptr<ShapeSchema> shape_schema;
  std::vector<Tgd> tgds;  // simple(Σ), over shape_schema->schema()
};

// Computes simple(Σ). Fails if some TGD is not linear, or if the number of
// generated TGDs would exceed `max_output` (static simplification is
// exponential in arity; the cap keeps the ablation benches bounded).
[[nodiscard]] StatusOr<StaticSimplificationResult> StaticSimplification(
    const Schema& schema, const std::vector<Tgd>& tgds,
    uint64_t max_output = UINT64_MAX);

// |simple(Σ)| without materializing it: sum over rules of Bell(#distinct
// body variables). Saturates at uint64 max.
uint64_t StaticSimplificationSize(const std::vector<Tgd>& tgds);

// simple(D): one fact R_{id(c̄)}(unique(c̄)) per fact R(c̄) of D. The result
// references shape_schema->schema(), which must outlive it.
std::unique_ptr<Database> SimplifyDatabase(const Database& database,
                                           ShapeSchema& shape_schema);

}  // namespace chase

#endif  // CHASE_CORE_SIMPLIFICATION_H_
