// TupleRun: the unit every tuple scan hands its visitor — a run of whole
// tuples of one relation, packed back-to-back (stride = arity), in storage
// order. The in-memory row store hands over a whole row range as one run;
// the disk pager hands over one heap page's tuples per run. A visitor that
// sees a run at once pays one indirect call per run rather than per tuple,
// and can dispatch on the arity once.

#ifndef CHASE_STORAGE_TUPLE_RUN_H_
#define CHASE_STORAGE_TUPLE_RUN_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

namespace chase {
namespace storage {

struct TupleRun {
  std::span<const uint32_t> values;  // rows() * arity values
  uint32_t arity = 0;                // > 0

  size_t rows() const { return values.size() / arity; }
  std::span<const uint32_t> row(size_t i) const {
    return values.subspan(i * arity, arity);
  }
};

// Visits one run; return false to stop the scan early. The run's values
// stay valid only for the call.
using RunVisitor = std::function<bool(TupleRun)>;

}  // namespace storage
}  // namespace chase

#endif  // CHASE_STORAGE_TUPLE_RUN_H_
