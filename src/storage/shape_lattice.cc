#include "storage/shape_lattice.h"

#include "logic/shape.h"

#include <vector>

namespace chase {
namespace storage {

IdTuple AllDistinctIdTuple(uint32_t arity) {
  IdTuple all_distinct(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    all_distinct[i] = static_cast<uint8_t>(i + 1);
  }
  return all_distinct;
}

void ForEachChild(const IdTuple& id,
                  const std::function<void(IdTuple)>& child) {
  uint8_t blocks = 0;
  for (uint8_t v : id) blocks = v > blocks ? v : blocks;
  if (blocks <= 1) return;
  std::vector<uint32_t> representative(blocks + 1, UINT32_MAX);
  for (uint32_t i = 0; i < id.size(); ++i) {
    if (representative[id[i]] == UINT32_MAX) representative[id[i]] = i;
  }
  // 32-bit counters: with uint8_t and blocks == 255 (the Schema::kMaxArity
  // ceiling) `b <= blocks` would hold forever and wrap b through 0, reading
  // representative[0] == UINT32_MAX and indexing id out of bounds.
  for (uint32_t a = 1; a <= blocks; ++a) {
    for (uint32_t b = a + 1; b <= blocks; ++b) {
      child(MergeBlocks(id, representative[a], representative[b]));
    }
  }
}

}  // namespace storage
}  // namespace chase
