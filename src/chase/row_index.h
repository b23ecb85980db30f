// Per-(predicate, column) row index: for each indexed column, term → the
// ascending ids of the rows [0, covered) holding that term there. It is what
// lets HomEnumerator look up the candidate rows of a body position by a
// variable already bound on entry instead of trying every row.
//
// Storage is flat, two arrays per indexed column and no heap vector per
// key: the (term, row) entries sorted by (term, row), so a key's rows are a
// contiguous ascending run, and an open-addressing table from each key to
// its run's start. Rows only ever append, so extending the index sorts the
// new entries, merges them with the old ones — the relative order of
// existing entries never changes — and rebuilds the table.
//
// Concurrency: Extend mutates; everything else reads. Callers extend only
// while no enumerator reads (the chase does it on its own thread at round
// start, before any worker starts), so workers see a frozen structure.

#ifndef CHASE_CHASE_ROW_INDEX_H_
#define CHASE_CHASE_ROW_INDEX_H_

#include <cstdint>
#include <vector>

#include "chase/instance.h"
#include "logic/schema.h"
#include "logic/term.h"

namespace chase {

class RowIndex {
 public:
  struct Entry {
    Term term;
    uint32_t row;  // Instance row ids fit (RowSet::kMaxRows)

    bool operator<(const Entry& other) const {
      return term != other.term ? term < other.term : row < other.row;
    }
  };

  // One indexed column: its entries sorted by (term, row), and a flat
  // open-addressing table from each term to the start of its run.
  class Column {
   public:
    const std::vector<Entry>& entries() const { return entries_; }

    // The position of `term`'s first entry, or entries().size() if the
    // column never holds it.
    size_t Lookup(Term term) const;

   private:
    friend class RowIndex;

    void Rebuild();  // the table, from `entries_`

    bool indexed_ = false;
    size_t covered_ = 0;  // rows [0, covered_) are in `entries_`
    std::vector<Entry> entries_;
    // Run start + 1 per slot (0 = empty); a power of two, at most half
    // full, so a probe sequence always ends at an empty slot.
    std::vector<uint32_t> slots_;
  };

  // Indexes column `col` of `pred` from the next Extend on. Must not be
  // called once an enumerator holds the index (IndexProbes in
  // body_partition.h asks for the columns an enumerator will look up).
  void AddColumn(PredId pred, uint32_t col);

  // True iff no column is indexed: enumerators can skip probe planning.
  bool empty() const { return num_columns_ == 0; }

  // Covers every row the instance holds now.
  void Extend(const Instance& instance);

  // Column `col` of `pred` if it is indexed and covers the rows [0, end),
  // else nullptr.
  const Column* Find(PredId pred, uint32_t col, size_t end) const;

  // Bumped by every Extend that adds entries; enumerators paused across it
  // re-seek their cursors (entry positions shift, rows do not).
  uint64_t epoch() const { return epoch_; }

 private:
  std::vector<std::vector<Column>> columns_;  // [pred][col]
  size_t num_columns_ = 0;
  uint64_t epoch_ = 0;
};

}  // namespace chase

#endif  // CHASE_CHASE_ROW_INDEX_H_
