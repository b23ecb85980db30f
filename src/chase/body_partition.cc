#include "chase/body_partition.h"

#include "chase/instance.h"
#include "chase/row_index.h"
#include "logic/atom.h"
#include "logic/schema.h"
#include "logic/term.h"
#include "logic/tgd.h"

#include <algorithm>
#include <span>
#include <utility>
#include <vector>

namespace chase {
namespace {

// The candidate-row range of body position `pos` for the (rule, delta_pos)
// task: the delta rows at the delta position, only previous-rounds rows
// before it (so each trigger is enumerated once, at its first delta
// position), the full round-start prefix after it.
RowRange CandidateRange(const Tgd& tgd, const RoundView& view,
                        size_t delta_pos, size_t pos) {
  const PredId pred = tgd.body()[pos].pred;
  if (pos == delta_pos) return {view.PrevOf(pred), view.CurOf(pred)};
  if (pos < delta_pos) return {0, view.PrevOf(pred)};
  return {0, view.CurOf(pred)};
}

// The per-position row windows of the (rule, delta position) task. Fills
// `ranges` in place, so a reused enumerator allocates nothing.
void TaskRanges(const Tgd& tgd, const RoundView& view, size_t delta_pos,
                std::vector<RowRange>& ranges) {
  ranges.clear();
  for (size_t pos = 0; pos < tgd.body().size(); ++pos) {
    ranges.push_back(CandidateRange(tgd, view, delta_pos, pos));
  }
}

void UndoBindings(std::vector<Term>& h, std::vector<VarId>& trail,
                  size_t mark) {
  while (trail.size() > mark) {
    h[trail.back()] = kUnboundTerm;
    trail.pop_back();
  }
}

// Attempts to extend `h` so that `pattern` maps onto `row`; records newly
// bound variables in `trail` so the caller can undo. On failure `h` and
// `trail` are left as they were.
bool TryBindAtom(const RuleAtom& pattern, std::span<const Term> row,
                 std::vector<Term>& h, std::vector<VarId>& trail) {
  const size_t undo_mark = trail.size();
  for (size_t i = 0; i < pattern.args.size(); ++i) {
    const VarId var = pattern.args[i];
    if (h[var] == kUnboundTerm) {
      h[var] = row[i];
      trail.push_back(var);
    } else if (h[var] != row[i]) {
      UndoBindings(h, trail, undo_mark);
      return false;
    }
  }
  return true;
}

// Calls fn(pos, col) for each position of `atoms` with a variable bound on
// entry — by `h` or by an earlier position — naming the first such column.
// `bound` is scratch.
template <typename Fn>
void ForEachProbe(std::span<const RuleAtom> atoms, std::span<const Term> h,
                  std::vector<char>& bound, Fn&& fn) {
  bound.resize(h.size());
  for (size_t var = 0; var < h.size(); ++var) {
    bound[var] = h[var] != kUnboundTerm;
  }
  for (size_t pos = 0; pos < atoms.size(); ++pos) {
    const std::vector<VarId>& args = atoms[pos].args;
    for (uint32_t col = 0; col < args.size(); ++col) {
      if (bound[args[col]] != 0) {
        fn(pos, col);
        break;
      }
    }
    for (VarId var : args) bound[var] = 1;
  }
}

}  // namespace

std::vector<RowRange> FullRanges(std::span<const RuleAtom> atoms,
                                 const Instance& instance) {
  std::vector<RowRange> ranges;
  ranges.reserve(atoms.size());
  for (const RuleAtom& atom : atoms) {
    ranges.push_back({0, instance.NumRows(atom.pred)});
  }
  return ranges;
}

bool HasCandidates(const Tgd& tgd, const RoundView& view, size_t delta_pos) {
  for (size_t pos = 0; pos < tgd.body().size(); ++pos) {
    if (CandidateRange(tgd, view, delta_pos, pos).empty()) return false;
  }
  return true;
}

void IndexProbes(std::span<const RuleAtom> atoms, std::span<const Term> h,
                 RowIndex& index) {
  std::vector<char> bound;
  ForEachProbe(atoms, h, bound, [&](size_t pos, uint32_t col) {
    index.AddColumn(atoms[pos].pred, col);
  });
}

void HomEnumerator::Reset(std::span<const RuleAtom> atoms,
                          const Instance* instance,
                          std::vector<RowRange> ranges,
                          std::span<const Term> h, const RowIndex* index) {
  atoms_ = atoms;
  instance_ = instance;
  ranges_ = std::move(ranges);
  h_.assign(h.begin(), h.end());
  Start(index);
}

void HomEnumerator::Reset(const Tgd& tgd, const Instance* instance,
                          const RoundView& view, size_t delta_pos,
                          const RowIndex* index) {
  atoms_ = tgd.body();
  instance_ = instance;
  TaskRanges(tgd, view, delta_pos, ranges_);
  h_.assign(tgd.num_vars(), kUnboundTerm);
  Start(index);
}

void HomEnumerator::Start(const RowIndex* index) {
  trail_.clear();
  level_.assign(atoms_.size(), Level{});
  if (index != nullptr && !index->empty()) {
    ForEachProbe(atoms_, h_, bound_, [&](size_t pos, uint32_t col) {
      const RuleAtom& atom = atoms_[pos];
      level_[pos].postings = index->Find(atom.pred, col, ranges_[pos].end);
      level_[pos].key = atom.args[col];
    });
  }
  depth_ = 0;
  Enter(0);
  at_hom_ = false;
  done_ = false;
}

void HomEnumerator::Enter(size_t depth) {
  level_[depth].row = ranges_[depth].begin;
  if (level_[depth].postings != nullptr) Seek(depth);
}

void HomEnumerator::Seek(size_t depth) {
  Level& level = level_[depth];
  const size_t from = ranges_[depth].begin;
  const std::vector<RowIndex::Entry>& entries = level.postings->entries();
  const Term value = h_[level.key];
  level.at = level.postings->Lookup(value);
  if (level.at < entries.size() && entries[level.at].row < from) {
    // A window that starts inside the run: skip its rows below `from`.
    level.at = static_cast<size_t>(
        std::partition_point(entries.begin() + level.at, entries.end(),
                             [&](const RowIndex::Entry& entry) {
                               return entry.term == value && entry.row < from;
                             }) -
        entries.begin());
  }
  SetRow(depth);
}

void HomEnumerator::SetRow(size_t depth) {
  // Past the bound value's run, the position is exhausted; a row past the
  // window ends the caller's loop the same way.
  Level& level = level_[depth];
  const std::vector<RowIndex::Entry>& entries = level.postings->entries();
  level.row = level.at < entries.size() &&
                      entries[level.at].term == h_[level.key]
                  ? entries[level.at].row
                  : ranges_[depth].end;
}

void HomEnumerator::Advance(size_t depth) {
  Level& level = level_[depth];
  if (level.postings == nullptr) {
    ++level.row;
  } else {
    ++level.at;
    SetRow(depth);
  }
}

bool HomEnumerator::Next() {
  if (done_) return false;
  const size_t n = atoms_.size();
  if (at_hom_) {
    // Step off the match emitted last time: unbind the deepest position
    // and advance its cursor.
    at_hom_ = false;
    depth_ = n - 1;
    UndoBindings(h_, trail_, level_[depth_].mark);
    Advance(depth_);
  }
  while (true) {
    const RuleAtom& atom = atoms_[depth_];
    const size_t end = ranges_[depth_].end;
    Level& level = level_[depth_];
    bool descended = false;
    while (level.row < end) {
      level.mark = trail_.size();
      ++rows_probed_;
      // Re-fetch the row on every access: appends between Next() calls
      // may reallocate the relation. Rows inside the windows are stable.
      if (TryBindAtom(atom, instance_->Row(atom.pred, level.row), h_,
                      trail_)) {
        ++depth_;
        if (depth_ == n) {
          at_hom_ = true;
          return true;
        }
        Enter(depth_);
        descended = true;
        break;
      }
      Advance(depth_);
    }
    if (descended) continue;
    // This depth's range is exhausted: backtrack, or finish at the root.
    if (depth_ == 0) {
      done_ = true;
      return false;
    }
    --depth_;
    UndoBindings(h_, trail_, level_[depth_].mark);
    Advance(depth_);
  }
}

}  // namespace chase
