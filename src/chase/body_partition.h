// The chase's one conjunctive matcher (HomEnumerator), and the planner that
// partitions a round's body-homomorphism space into fragments for it (the
// K-Join recipe adapted to the chase's semi-naive rounds).
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
// The trigger order — and with it the bit-identical-result contract at any
// thread count — is the lexicographic order of (rule, delta position, row
// at position 0, row at position 1, …). So instead of hash-partitioning a
// join variable — which deals rows of one loop level round-robin across
// partitions and interleaves their outputs — the planner splits candidate
// *ranges*:
//
//  * every (rule, delta position) task splits on its outermost loop, the
//    position-0 candidate range (for d == 0 that is the delta range; for
//    d > 0 it is the previous-rounds prefix);
//  * when one position-0 row is still heavier than the grain (a hot row
//    whose inner join cross-products against whole relations), the row is
//    pinned and the position-1 candidate range is split under it.
//
// Concatenating the fragments in (rule, delta_pos, begin0, begin1) order —
// the order PlanBodyPartitions emits them — yields the round's trigger
// stream, so the serial round drains the threads = 1 plan inline and the
// parallel round's apply loop needs no merge and no order keys. Fragment
// sizing uses estimated enumeration cost (the product of candidate-range
// sizes, saturating — an upper bound once lookups prune), with the usual
// grain of a few fragments per worker; the per-row split is self-limiting:
// a row only splits when its inner cost exceeds the grain, and at most
// ~4·threads such rows fit in the round's total cost, so fragment counts
// stay O(tasks + threads²).
//
// HomEnumerator is a resumable cursor over any conjunction of atoms with
// per-atom row windows: a round fragment's body join, or a
// head-satisfaction probe of the restricted chase and Satisfies. It is a
// paused iterative backtracking search (per-position row cursors + binding
// trail) that Next() advances one match at a time. The chase's budgeted
// enumerate→pause→apply→resume protocol (WorkerPool::RunBudgetedTasks)
// leans on Next() being stoppable anywhere: a worker fills a bounded
// buffer, parks, and later resumes from the exact backtracking state.

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

  size_t size() const { return end - begin; }
  bool empty() const { return end == begin; }
};

// Every row of each atom's predicate: the window of an unrestricted match.
std::vector<RowRange> FullRanges(std::span<const RuleAtom> atoms,
                                 const Instance& instance);

// One fragment of a (rule, delta position) task's homomorphism space: a
// contiguous sub-range of the position-0 candidate rows, and — for a
// join-split fragment pinning a single hot position-0 row — a contiguous
// sub-range of the position-1 candidate rows. Positions >= 2 (and position
// 1 of non-join-split fragments, where [begin1, end1) just restates the
// full range) always cover their full round-window range.
struct BodyPartition {
  uint32_t rule = 0;
  uint32_t delta_pos = 0;
  size_t begin0 = 0;
  size_t end0 = 0;
  size_t begin1 = 0;  // meaningful only when the body has >= 2 atoms
  size_t end1 = 0;
};

// Plans the round's fragments in canonical (rule, delta_pos, begin0,
// begin1) order — exactly the round's trigger order. Tasks with an empty
// delta produce no fragment. Depends only on `tgds`, the round window, and
// `threads` (never on instance contents or scheduling), so the plan itself
// is deterministic.
std::vector<BodyPartition> PlanBodyPartitions(const std::vector<Tgd>& tgds,
                                              const RoundView& view,
                                              unsigned threads);

// Asks `index` for every column HomEnumerator looks up when it matches
// `atoms` from partial assignment `h` (only which variables `h` binds
// matters): at each position, the first column whose variable is bound on
// entry, by `h` or by an earlier position.
void IndexProbes(std::span<const RuleAtom> atoms, std::span<const Term> h,
                 RowIndex& index);

// The resumable conjunctive-match cursor. Usage:
//
//   HomEnumerator e;
//   e.Reset(tgd, &instance, view, part, &index);  // or Reset(atoms, ...)
//   while (e.Next()) consume(e.hom());     // pausable between any two calls
//
// Next() returns true with hom() extended to every variable of the atoms
// (the next match in lexicographic row order: atom 0's row is the
// outermost loop), false once the matches are exhausted (then stays false).
// The full backtracking state — partial assignment, binding trail,
// per-position row cursors — lives in the enumerator, so a paused search
// resumes with zero re-enumeration.
//
// Lookups: with an `index`, a position whose probe column (IndexProbes) is
// indexed over its whole window walks only the index's rows for the bound
// value; any other position — no variable bound on entry, column not
// indexed, or a window reaching past the index's coverage — scans its
// window. Either way the match stream is the same. Body atoms are never
// reordered: that would change the trigger order.
//
// Concurrency: Next() only reads instance rows inside the given windows,
// and re-fetches each row on every access, so appends between two Next()
// calls (which may reallocate a predicate's rows) are safe as long as no
// window reaches the appended rows — which the round window guarantees,
// and which the worker pool's barrier orders across threads.
// Likewise the index may be extended between two Next() calls (a paused
// cursor re-seeks its lookups), but never during one.
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

  // The round fragment `part` of `tgd`'s body join, from the empty
  // assignment.
  void Reset(const Tgd& tgd, const Instance* instance, const RoundView& view,
             const BodyPartition& part, const RowIndex* index = nullptr);

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
  void Seek(size_t depth, size_t from);   // lookup: first row >= from
  void SetRow(size_t depth);              // lookup: `row` from `at`
  void Advance(size_t depth);             // next candidate of a position

  std::span<const RuleAtom> atoms_;
  const Instance* instance_ = nullptr;
  const RowIndex* index_ = nullptr;  // null when no position looks up
  uint64_t epoch_ = 0;               // index_->epoch() the cursors match
  std::vector<RowRange> ranges_;     // per-position candidate rows

  std::vector<Term> h_;        // partial assignment, kUnboundTerm = free
  std::vector<VarId> trail_;   // bound-variable undo log
  std::vector<Level> level_;   // per-position cursor
  std::vector<char> bound_;    // probe-planning scratch
  size_t depth_ = 0;           // position currently being advanced
  bool at_hom_ = false;        // paused on an emitted match
  bool done_ = true;
  uint64_t rows_probed_ = 0;
};

}  // namespace chase

#endif  // CHASE_CHASE_BODY_PARTITION_H_
