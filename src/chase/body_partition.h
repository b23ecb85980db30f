// The chase's one conjunctive matcher, HomEnumerator, and the round
// windows it matches a rule body against.
//
// A round's triggers are, for each rule and each delta position d, the
// matches of a join over the body atoms in body order: position 0 is the
// outermost loop, each position's candidate rows are a contiguous range
// fixed by the round window (delta rows at d, the previous-rounds prefix
// before d, the full round-start prefix after d). A position with a
// variable already bound on entry does not try every row of its range: it
// looks up, in a per-(predicate, column) RowIndex (chase/row_index.h), just
// the rows whose probe column holds the bound value, in ascending row order
// clipped to the range. The rows it skips are exactly those that would fail
// to bind on that column, so the match stream is the nested-loop join's.
// The trigger order is the lexicographic order of (rule, delta position,
// row at position 0, row at position 1, ...): one HomEnumerator pass per
// (rule, delta position), in that order, is the round's trigger stream.
//
// HomEnumerator is a cursor over any conjunction of atoms with per-atom
// row windows: a round task's body join, or a head-satisfaction probe of
// the restricted chase and Satisfies. It is an iterative backtracking
// search (per-position row cursors + binding trail) that Next() advances
// one match at a time, so the chase fires each trigger as it is matched
// and buffers none.

#ifndef CHASE_CHASE_BODY_PARTITION_H_
#define CHASE_CHASE_BODY_PARTITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "chase/instance.h"
#include "chase/row_index.h"
#include "logic/atom.h"
#include "logic/schema.h"
#include "logic/term.h"
#include "logic/tgd.h"

namespace chase {

// The free slot of a partial assignment. Null ids are allocated
// sequentially from zero, so this value never denotes a real term.
inline constexpr Term kUnboundTerm = ~uint64_t{0};

// Per-round visibility window: body atoms are matched against the instance
// as of the start of the round ("cur"), with semi-naive deltas given by
// "prev" (atoms created in the previous round have index in [prev, cur)).
struct RoundView {
  std::vector<size_t> prev;
  std::vector<size_t> cur;

  size_t PrevOf(PredId pred) const {
    return pred < prev.size() ? prev[pred] : 0;
  }
  size_t CurOf(PredId pred) const { return pred < cur.size() ? cur[pred] : 0; }
};

// A contiguous window [begin, end) of one predicate's instance rows.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;

  bool empty() const { return end == begin; }
};

// Every row of each atom's predicate: the window of an unrestricted match.
std::vector<RowRange> FullRanges(std::span<const RuleAtom> atoms,
                                 const Instance& instance);

// True iff every body position of `tgd` has a candidate row in the
// (rule, delta position) task `delta_pos` of the round `view`: a task
// without one has no match, and the chase skips it.
bool HasCandidates(const Tgd& tgd, const RoundView& view, size_t delta_pos);

// Asks `index` for every column HomEnumerator looks up when it matches
// `atoms` from partial assignment `h` (only which variables `h` binds
// matters): at each position, the first column whose variable is bound on
// entry, by `h` or by an earlier position.
void IndexProbes(std::span<const RuleAtom> atoms, std::span<const Term> h,
                 RowIndex& index);

// The conjunctive-match cursor. Usage:
//
//   HomEnumerator e;
//   e.Reset(tgd, &instance, view, delta_pos, &index);  // or Reset(atoms, ...)
//   while (e.Next()) consume(e.hom());
//
// Next() returns true with hom() extended to every variable of the atoms
// (the next match in lexicographic row order: atom 0's row is the
// outermost loop), false once the matches are exhausted (then stays false).
// The full backtracking state — partial assignment, binding trail,
// per-position row cursors — lives in the enumerator, so the caller may
// act on each match (the chase fires it) before asking for the next.
//
// Lookups: with an `index`, a position whose probe column (IndexProbes) is
// indexed over its whole window walks only the index's rows for the bound
// value; any other position — no variable bound on entry, column not
// indexed, or a window reaching past the index's coverage — scans its
// window. Either way the match stream is the same. Body atoms are never
// reordered: that would change the trigger order.
//
// Appends: Next() only reads instance rows inside the given windows, and
// re-fetches each row on every access, so appends between two Next() calls
// (which may reallocate a predicate's rows) are safe as long as no window
// reaches the appended rows — which the round window guarantees. The index
// must not change between Reset and the last Next(): the chase extends it
// only at the top of a round, before any Reset of that round.
class HomEnumerator {
 public:
  // Matches atom i against rows `ranges[i]`, extending the partial
  // assignment `h` (kUnboundTerm = free; sized to cover every variable of
  // `atoms`). Preconditions: `atoms` is non-empty — Tgd::Create rejects
  // empty bodies and heads — and ranges.size() == atoms.size(). `atoms`,
  // `instance` and `index` (nullptr: scan every position) must outlive the
  // enumeration.
  void Reset(std::span<const RuleAtom> atoms, const Instance* instance,
             std::vector<RowRange> ranges, std::span<const Term> h,
             const RowIndex* index = nullptr);

  // The (rule, delta position) task `delta_pos` of `tgd`'s body join in
  // the round `view`, from the empty assignment.
  void Reset(const Tgd& tgd, const Instance* instance, const RoundView& view,
             size_t delta_pos, const RowIndex* index = nullptr);

  // Advances to the next match. False once exhausted (then stays false).
  bool Next();

  const std::vector<Term>& hom() const { return h_; }

  // Candidate rows tried (bound or rejected) since construction, over
  // every Reset: the join's work, which lookups cut.
  uint64_t rows_probed() const { return rows_probed_; }

 private:
  // One position's loop state.
  struct Level {
    // Scan: nullptr, and `row` walks the window. Lookup: the probe
    // column, and `at` the entry of `row` in the bound value's run. Either
    // way the position is exhausted once `row` reaches the window's end.
    const RowIndex::Column* postings = nullptr;
    VarId key = 0;  // the variable whose value is looked up
    size_t row = 0;
    size_t at = 0;
    size_t mark = 0;  // trail watermark
  };

  void Start(const RowIndex* index);
  void Enter(size_t depth);               // first candidate of a position
  void Seek(size_t depth);                // lookup: first row in window
  void SetRow(size_t depth);              // lookup: `row` from `at`
  void Advance(size_t depth);             // next candidate of a position

  std::span<const RuleAtom> atoms_;
  const Instance* instance_ = nullptr;
  std::vector<RowRange> ranges_;     // per-position candidate rows

  std::vector<Term> h_;        // partial assignment, kUnboundTerm = free
  std::vector<VarId> trail_;   // bound-variable undo log
  std::vector<Level> level_;   // per-position cursor
  std::vector<char> bound_;    // probe-planning scratch
  size_t depth_ = 0;           // position currently being advanced
  bool at_hom_ = false;        // stopped on an emitted match
  bool done_ = true;
  uint64_t rows_probed_ = 0;
};

}  // namespace chase

#endif  // CHASE_CHASE_BODY_PARTITION_H_
