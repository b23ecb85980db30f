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

// Cost estimates saturate: a cross-product of a few large relations
// overflows uint64 long before it overflows the planner's patience, and a
// saturated estimate still splits maximally.
uint64_t SatMul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > UINT64_MAX / b) return UINT64_MAX;
  return a * b;
}

uint64_t SatAdd(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

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

// Estimated enumeration cost of one position-0 row: the product of the
// candidate counts of every inner position. 1 for a linear body.
uint64_t InnerCost(const Tgd& tgd, const RoundView& view, size_t delta_pos) {
  uint64_t cost = 1;
  for (size_t pos = 1; pos < tgd.body().size(); ++pos) {
    cost = SatMul(cost, CandidateRange(tgd, view, delta_pos, pos).size());
  }
  return cost;
}

// The per-position row windows of one fragment: its position-0 (and
// position-1) sub-ranges, the task's candidate ranges everywhere else.
// Fills `ranges` in place, so a reused enumerator allocates nothing.
void FragmentRanges(const Tgd& tgd, const RoundView& view,
                    const BodyPartition& part, std::vector<RowRange>& ranges) {
  ranges.clear();
  for (size_t pos = 0; pos < tgd.body().size(); ++pos) {
    ranges.push_back(CandidateRange(tgd, view, part.delta_pos, pos));
  }
  ranges[0] = {part.begin0, part.end0};
  if (ranges.size() > 1) ranges[1] = {part.begin1, part.end1};
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

std::vector<BodyPartition> PlanBodyPartitions(const std::vector<Tgd>& tgds,
                                              const RoundView& view,
                                              unsigned threads) {
  const uint64_t num_threads = std::max(1u, threads);
  // Pass 1: the round's total estimated cost, to size the grain — the same
  // few-fragments-per-worker discipline as FrontierChunkSize, but weighted
  // by estimated join cost instead of row count.
  uint64_t total = 0;
  for (const Tgd& tgd : tgds) {
    for (size_t delta_pos = 0; delta_pos < tgd.body().size(); ++delta_pos) {
      uint64_t cost = 1;
      for (size_t pos = 0; pos < tgd.body().size(); ++pos) {
        cost = SatMul(cost, CandidateRange(tgd, view, delta_pos, pos).size());
      }
      total = SatAdd(total, cost);
    }
  }
  const uint64_t grain = std::max<uint64_t>(1, total / (4 * num_threads));

  std::vector<BodyPartition> parts;
  for (size_t rule = 0; rule < tgds.size(); ++rule) {
    const Tgd& tgd = tgds[rule];
    const size_t body_size = tgd.body().size();
    for (size_t delta_pos = 0; delta_pos < body_size; ++delta_pos) {
      bool empty = false;
      for (size_t pos = 0; pos < body_size; ++pos) {
        if (CandidateRange(tgd, view, delta_pos, pos).empty()) {
          empty = true;
          break;
        }
      }
      if (empty) continue;  // some position has no candidates: no triggers

      const RowRange r0 = CandidateRange(tgd, view, delta_pos, 0);
      const RowRange r1 = body_size > 1
                              ? CandidateRange(tgd, view, delta_pos, 1)
                              : RowRange{};
      const uint64_t inner = InnerCost(tgd, view, delta_pos);

      // A single position-0 row heavier than the grain: pin each row and
      // split the position-1 range under it. Self-limiting — at most
      // ~4·threads such rows fit in `total`, and the per-row fragment
      // count is capped at 4·threads besides.
      uint64_t sub = 0;
      if (inner > grain && body_size > 1 && r1.size() > 1) {
        sub = inner / grain + (inner % grain != 0 ? 1 : 0);
        sub = std::min<uint64_t>({sub, r1.size(), 4 * num_threads});
      }
      if (sub > 1) {
        const size_t step = (r1.size() + sub - 1) / sub;
        for (size_t row0 = r0.begin; row0 < r0.end; ++row0) {
          for (size_t b1 = r1.begin; b1 < r1.end; b1 += step) {
            parts.push_back({static_cast<uint32_t>(rule),
                             static_cast<uint32_t>(delta_pos), row0, row0 + 1,
                             b1, std::min(r1.end, b1 + step)});
          }
        }
      } else {
        const size_t rows_per = static_cast<size_t>(
            std::max<uint64_t>(1, grain / std::max<uint64_t>(1, inner)));
        for (size_t b0 = r0.begin; b0 < r0.end; b0 += rows_per) {
          parts.push_back({static_cast<uint32_t>(rule),
                           static_cast<uint32_t>(delta_pos), b0,
                           std::min(r0.end, b0 + rows_per), r1.begin, r1.end});
        }
      }
    }
  }
  return parts;
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
                          const RoundView& view, const BodyPartition& part,
                          const RowIndex* index) {
  atoms_ = tgd.body();
  instance_ = instance;
  FragmentRanges(tgd, view, part, ranges_);
  h_.assign(tgd.num_vars(), kUnboundTerm);
  Start(index);
}

void HomEnumerator::Start(const RowIndex* index) {
  trail_.clear();
  level_.assign(atoms_.size(), Level{});
  index_ = nullptr;
  if (index != nullptr && !index->empty()) {
    ForEachProbe(atoms_, h_, bound_, [&](size_t pos, uint32_t col) {
      const RuleAtom& atom = atoms_[pos];
      level_[pos].postings = index->Find(atom.pred, col, ranges_[pos].end);
      level_[pos].key = atom.args[col];
      if (level_[pos].postings != nullptr) index_ = index;
    });
    if (index_ != nullptr) epoch_ = index_->epoch();
  }
  depth_ = 0;
  Enter(0);
  at_hom_ = false;
  done_ = false;
}

void HomEnumerator::Enter(size_t depth) {
  level_[depth].row = ranges_[depth].begin;
  if (level_[depth].postings != nullptr) Seek(depth, ranges_[depth].begin);
}

void HomEnumerator::Seek(size_t depth, size_t from) {
  Level& level = level_[depth];
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
  if (index_ != nullptr && index_->epoch() != epoch_) {
    // The index grew while paused: entry positions moved, rows did not.
    // Re-seek every entered lookup position at the row it stands on.
    epoch_ = index_->epoch();
    for (size_t d = 0; d <= std::min(depth_, n - 1); ++d) {
      if (level_[d].postings != nullptr) Seek(d, level_[d].row);
    }
  }
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
