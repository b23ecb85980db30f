// HomEnumerator against an independent reference: a recursive nested-loop
// join with its own binding trail, kept here as a test-only oracle.
//
// The chase's bit-identical-result contract rests on the matcher's output
// ORDER, not just its output set: a round's triggers are the fragments of
// PlanBodyPartitions(…, threads) concatenated in plan order, and that
// concatenation must be the oracle's lexicographic (rule, delta position,
// row at position 0, row at position 1, …) stream at every thread count.
// The whole-chase differential sweeps only see that order through its
// effects; these tests compare the streams themselves — over every
// non-linear join family, random round windows, a run that pauses after
// every Next() while other enumerators are reset in between, and
// head-window matches from a partial assignment — each also with RowIndex
// lookups, which must skip only rows the scan would have rejected: the
// index built to the round-start watermark, windows reaching past it
// (which scan), repeated variables, probes on a non-first column, keys the
// index lacks, and an index extended while enumerators are paused.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "chase/body_partition.h"
#include "chase/instance.h"
#include "chase/row_index.h"
#include "gen/tgd_generator.h"
#include "logic/atom.h"
#include "logic/schema.h"
#include "logic/term.h"
#include "logic/tgd.h"

namespace chase {
namespace {

constexpr unsigned kThreadSweep[] = {1, 2, 4, 8};

// A (rule, assignment) stream; for non-round matches the rule is 0.
using Stream = std::vector<std::pair<uint32_t, std::vector<Term>>>;

// ---------------------------------------------------------------------------
// The oracle: a recursive nested-loop join with its own binding trail.

bool OracleBind(const RuleAtom& pattern, std::span<const Term> row,
                std::vector<Term>& h, std::vector<VarId>& trail) {
  for (size_t i = 0; i < pattern.args.size(); ++i) {
    const VarId var = pattern.args[i];
    if (h[var] == kUnboundTerm) {
      h[var] = row[i];
      trail.push_back(var);
    } else if (h[var] != row[i]) {
      return false;
    }
  }
  return true;
}

void OracleUndo(std::vector<Term>& h, std::vector<VarId>& trail,
                size_t mark) {
  while (trail.size() > mark) {
    h[trail.back()] = kUnboundTerm;
    trail.pop_back();
  }
}

// Extends `h` over atoms[index..], atom i drawn from rows `ranges[i]`, in
// lexicographic row order (atom 0 outermost).
void OracleMatch(const std::vector<RuleAtom>& atoms, const Instance& instance,
                 const std::vector<RowRange>& ranges, size_t index,
                 std::vector<Term>& h, std::vector<VarId>& trail,
                 const std::function<void(const std::vector<Term>&)>& emit) {
  if (index == atoms.size()) {
    emit(h);
    return;
  }
  for (size_t row = ranges[index].begin; row < ranges[index].end; ++row) {
    const size_t mark = trail.size();
    if (OracleBind(atoms[index], instance.Row(atoms[index].pred, row), h,
                   trail)) {
      OracleMatch(atoms, instance, ranges, index + 1, h, trail, emit);
    }
    OracleUndo(h, trail, mark);
  }
}

// The round's trigger stream, spelled out: for each rule and each delta
// position d, the delta rows at d, only previous-rounds rows before d, the
// full round-start prefix after it.
Stream OracleRound(const std::vector<Tgd>& tgds, const Instance& instance,
                   const RoundView& view) {
  Stream out;
  for (uint32_t rule = 0; rule < tgds.size(); ++rule) {
    const Tgd& tgd = tgds[rule];
    for (size_t delta_pos = 0; delta_pos < tgd.body().size(); ++delta_pos) {
      std::vector<RowRange> ranges;
      for (size_t pos = 0; pos < tgd.body().size(); ++pos) {
        const PredId pred = tgd.body()[pos].pred;
        if (pos == delta_pos) {
          ranges.push_back({view.PrevOf(pred), view.CurOf(pred)});
        } else if (pos < delta_pos) {
          ranges.push_back({0, view.PrevOf(pred)});
        } else {
          ranges.push_back({0, view.CurOf(pred)});
        }
      }
      std::vector<Term> h(tgd.num_vars(), kUnboundTerm);
      std::vector<VarId> trail;
      OracleMatch(tgd.body(), instance, ranges, 0, h, trail,
                  [&](const std::vector<Term>& hom) {
                    out.emplace_back(rule, hom);
                  });
    }
  }
  return out;
}

Stream OracleStream(const std::vector<RuleAtom>& atoms,
                    const Instance& instance,
                    const std::vector<RowRange>& ranges,
                    std::vector<Term> h) {
  Stream out;
  std::vector<VarId> trail;
  OracleMatch(atoms, instance, ranges, 0, h, trail,
              [&](const std::vector<Term>& hom) { out.emplace_back(0, hom); });
  return out;
}

// ---------------------------------------------------------------------------
// The matcher's streams.

Stream MatcherRound(const std::vector<Tgd>& tgds, const Instance& instance,
                    const RoundView& view, unsigned threads,
                    const RowIndex* index = nullptr) {
  Stream out;
  HomEnumerator e;
  for (const BodyPartition& part : PlanBodyPartitions(tgds, view, threads)) {
    e.Reset(tgds[part.rule], &instance, view, part, index);
    while (e.Next()) out.emplace_back(part.rule, e.hom());
  }
  return out;
}

// Every fragment gets its own enumerator, all reset up front; they advance
// round-robin one Next() at a time, and between any two calls a scratch
// enumerator is reset onto another fragment and advanced once — so every
// resume continues from a parked backtracking state. `between`, when set,
// runs after every Next() as well (a simulated round boundary).
Stream MatcherRoundInterleaved(
    const std::vector<Tgd>& tgds, const Instance& instance,
    const RoundView& view, unsigned threads, const RowIndex* index = nullptr,
    const std::function<void()>& between = nullptr) {
  const std::vector<BodyPartition> parts =
      PlanBodyPartitions(tgds, view, threads);
  std::vector<HomEnumerator> enums(parts.size());
  for (size_t t = 0; t < parts.size(); ++t) {
    enums[t].Reset(tgds[parts[t].rule], &instance, view, parts[t], index);
  }
  std::vector<Stream> streams(parts.size());
  std::vector<char> live(parts.size(), 1);
  HomEnumerator scratch;
  size_t remaining = parts.size();
  for (size_t step = 0; remaining > 0; ++step) {
    for (size_t t = 0; t < parts.size(); ++t) {
      if (live[t] == 0) continue;
      if (enums[t].Next()) {
        streams[t].emplace_back(parts[t].rule, enums[t].hom());
      } else {
        live[t] = 0;
        --remaining;
      }
      if (between) between();
      const size_t other = (t + 1 + step) % parts.size();
      scratch.Reset(tgds[parts[other].rule], &instance, view, parts[other],
                    index);
      (void)scratch.Next();
    }
  }
  Stream out;
  for (Stream& stream : streams) {
    out.insert(out.end(), stream.begin(), stream.end());
  }
  return out;
}

Stream MatcherStream(const std::vector<RuleAtom>& atoms,
                     const Instance& instance, std::vector<RowRange> ranges,
                     const std::vector<Term>& h,
                     const RowIndex* index = nullptr) {
  Stream out;
  HomEnumerator e;
  e.Reset(atoms, &instance, std::move(ranges), h, index);
  while (e.Next()) out.emplace_back(0, e.hom());
  return out;
}

// ---------------------------------------------------------------------------
// Fixtures: a schema of arity-2/3 predicates, a dense random instance over
// a tiny domain (so joins actually match), random round windows.

struct Fixture {
  Schema schema;
  std::vector<PredId> preds;
};

void DeclareSchema(Fixture* fixture, Rng* rng) {
  for (int i = 0; i < 4; ++i) {
    auto pred = fixture->schema.GetOrAddPredicate(
        "p" + std::to_string(i), 2 + static_cast<uint32_t>(rng->Below(2)));
    ASSERT_TRUE(pred.ok()) << pred.status();
    fixture->preds.push_back(*pred);
  }
}

Instance MakeInstance(const Fixture& fixture, Rng* rng, uint32_t rows) {
  Instance instance(&fixture.schema);
  for (PredId pred : fixture.preds) {
    for (uint32_t added = 0, tries = 0; added < rows && tries < 10 * rows;
         ++tries) {
      std::vector<Term> args(fixture.schema.Arity(pred));
      for (Term& arg : args) {
        arg = MakeConstant(static_cast<uint32_t>(rng->Below(4)));
      }
      if (instance.AddAtom(pred, args)) ++added;
    }
  }
  return instance;
}

// Random prev <= cur <= |pred| per predicate, plus the edge windows a
// chase actually produces: the first round (prev = 0, cur = all) and an
// empty delta everywhere.
std::vector<RoundView> MakeViews(const Fixture& fixture,
                                 const Instance& instance, Rng* rng) {
  const size_t n = fixture.schema.NumPredicates();
  std::vector<RoundView> views(5);
  for (size_t v = 0; v < views.size(); ++v) {
    views[v].prev.assign(n, 0);
    views[v].cur.assign(n, 0);
    for (PredId pred = 0; pred < n; ++pred) {
      const size_t size = instance.NumRows(pred);
      size_t cur = size;
      size_t prev = 0;
      if (v == 1) prev = size;  // empty delta
      if (v >= 2) {
        cur = static_cast<size_t>(rng->Below(size + 1));
        prev = static_cast<size_t>(rng->Below(cur + 1));
      }
      views[v].prev[pred] = prev;
      views[v].cur[pred] = cur;
    }
  }
  return views;
}

std::vector<Tgd> MakeTgds(const Fixture& fixture, NonLinearFamily family,
                          uint32_t body_atoms, uint64_t seed) {
  NonLinearGenParams params;
  params.ssize = static_cast<uint32_t>(fixture.preds.size());
  params.min_arity = 2;
  params.max_arity = 3;
  params.tsize = 5;
  params.family = family;
  params.body_atoms = body_atoms;
  params.existential_percent = 25;
  params.seed = seed;
  auto tgds = GenerateNonLinearTgds(fixture.schema, params);
  EXPECT_TRUE(tgds.ok()) << tgds.status();
  return tgds.ok() ? std::move(tgds).value() : std::vector<Tgd>{};
}

// `source` re-added in two phases, `index` extended in between: the index
// covers exactly the rows [0, view.cur) of every predicate — the chase's
// state at round start — while `instance` holds every row of `source`, in
// the same order. `index` must already name its columns.
void AddAtWatermark(const Instance& source, const RoundView& view,
                    Instance* instance, RowIndex* index) {
  const size_t num_preds = source.schema().NumPredicates();
  for (int phase = 0; phase < 2; ++phase) {
    for (PredId pred = 0; pred < num_preds; ++pred) {
      const size_t rows = source.NumRows(pred);
      const size_t cut = std::min(view.CurOf(pred), rows);
      const size_t begin = phase == 0 ? 0 : cut;
      const size_t end = phase == 0 ? cut : rows;
      for (size_t row = begin; row < end; ++row) {
        ASSERT_TRUE(instance->AddAtom(pred, source.Row(pred, row)));
      }
    }
    if (phase == 0) index->Extend(*instance);
  }
}

// Every column the round's body joins look up.
void IndexBodies(const std::vector<Tgd>& tgds, RowIndex* index) {
  for (const Tgd& tgd : tgds) {
    IndexProbes(tgd.body(), std::vector<Term>(tgd.num_vars(), kUnboundTerm),
                *index);
  }
}

constexpr NonLinearFamily kFamilies[] = {
    NonLinearFamily::kTriangle, NonLinearFamily::kStar,
    NonLinearFamily::kChain, NonLinearFamily::kCross};

// ---------------------------------------------------------------------------

TEST(HomEnumeratorTest, FragmentStreamsConcatenateToTheOracleRound) {
  // Each view runs twice: scanning, and with lookups in an index built to
  // the view's round-start watermark as the chase builds it — every window
  // of the round lies inside it, so every position with a bound variable
  // looks its rows up.
  Rng rng(20261017);
  size_t total_homs = 0;
  uint64_t probed_by_scan = 0;
  uint64_t probed_by_lookup = 0;
  for (NonLinearFamily family : kFamilies) {
    for (uint32_t body_atoms : {2u, 3u}) {
      Fixture fixture;
      DeclareSchema(&fixture, &rng);
      const Instance instance = MakeInstance(fixture, &rng, /*rows=*/12);
      const std::vector<Tgd> tgds =
          MakeTgds(fixture, family, body_atoms, rng.Next());
      ASSERT_FALSE(tgds.empty());
      const std::vector<RoundView> views = MakeViews(fixture, instance, &rng);
      for (size_t v = 0; v < views.size(); ++v) {
        Instance indexed(&fixture.schema);
        RowIndex index;
        IndexBodies(tgds, &index);
        AddAtWatermark(instance, views[v], &indexed, &index);
        const Stream oracle = OracleRound(tgds, instance, views[v]);
        total_homs += oracle.size();
        for (unsigned threads : kThreadSweep) {
          const std::string label =
              std::string("family ") + NonLinearFamilyName(family) +
              ", body " + std::to_string(body_atoms) + ", view " +
              std::to_string(v) + ", threads " + std::to_string(threads);
          EXPECT_EQ(MatcherRound(tgds, instance, views[v], threads), oracle)
              << label;
          EXPECT_EQ(
              MatcherRoundInterleaved(tgds, instance, views[v], threads),
              oracle)
              << label << " (interleaved)";
          EXPECT_EQ(MatcherRound(tgds, indexed, views[v], threads, &index),
                    oracle)
              << label << " (lookups)";
          EXPECT_EQ(MatcherRoundInterleaved(tgds, indexed, views[v],
                                            threads, &index),
                    oracle)
              << label << " (lookups, interleaved)";
        }
        HomEnumerator scan;
        HomEnumerator lookup;
        for (const BodyPartition& part :
             PlanBodyPartitions(tgds, views[v], 1)) {
          scan.Reset(tgds[part.rule], &instance, views[v], part);
          while (scan.Next()) {
          }
          lookup.Reset(tgds[part.rule], &indexed, views[v], part, &index);
          while (lookup.Next()) {
          }
        }
        EXPECT_LE(lookup.rows_probed(), scan.rows_probed());
        probed_by_scan += scan.rows_probed();
        probed_by_lookup += lookup.rows_probed();
      }
    }
  }
  EXPECT_GT(total_homs, 1000u);  // the sweep exercised real joins
  EXPECT_LT(probed_by_lookup, probed_by_scan);  // and real lookups
}

TEST(HomEnumeratorTest, PausedLookupsResumeAcrossIndexExtension) {
  // Enumerators paused after every Next() while, in between, rows land past
  // every window and the index is extended over them — a simulated round
  // boundary. Extension moves entry positions (new rows merge into their
  // keys' runs), so a parked lookup must re-seek by row; the new rows draw
  // from the same domain, so they would join if it did not.
  Rng rng(23);
  size_t total_homs = 0;
  size_t extended = 0;  // views whose index grew under paused enumerators
  for (NonLinearFamily family : kFamilies) {
    Fixture fixture;
    DeclareSchema(&fixture, &rng);
    const Instance source = MakeInstance(fixture, &rng, /*rows=*/12);
    const std::vector<Tgd> tgds = MakeTgds(fixture, family, 3, rng.Next());
    for (const RoundView& view : MakeViews(fixture, source, &rng)) {
      Instance instance(&fixture.schema);
      RowIndex index;
      IndexBodies(tgds, &index);
      AddAtWatermark(source, view, &instance, &index);
      const Stream oracle = OracleRound(tgds, instance, view);
      total_homs += oracle.size();
      const uint64_t epoch = index.epoch();
      auto round_boundary = [&] {
        for (PredId pred : fixture.preds) {
          std::vector<Term> args(fixture.schema.Arity(pred));
          for (Term& arg : args) {
            arg = MakeConstant(static_cast<uint32_t>(rng.Below(6)));
          }
          (void)instance.AddAtom(pred, args);
        }
        index.Extend(instance);
      };
      for (unsigned threads : {1u, 4u}) {
        EXPECT_EQ(MatcherRoundInterleaved(tgds, instance, view, threads,
                                          &index, round_boundary),
                  oracle)
            << NonLinearFamilyName(family) << ", threads " << threads;
      }
      if (index.epoch() > epoch) ++extended;
    }
  }
  EXPECT_GT(total_homs, 100u);
  EXPECT_GT(extended, 8u);
}

TEST(HomEnumeratorTest, LookupsMatchTheScanOnEveryProbeShape) {
  // Hand-picked probe shapes over p/2, q/2, r/3. p's values range over 0..7
  // but q's and r's only over 0..3, so about half of p's bindings look up a
  // key the index lacks.
  Schema schema;
  const PredId p = schema.AddPredicate("p", 2).value();
  const PredId q = schema.AddPredicate("q", 2).value();
  const PredId r = schema.AddPredicate("r", 3).value();
  Rng rng(29);
  Instance instance(&schema);
  auto fill = [&](PredId pred, uint32_t domain) {
    for (int i = 0; i < 40; ++i) {
      std::vector<Term> args(schema.Arity(pred));
      for (Term& arg : args) {
        arg = MakeConstant(static_cast<uint32_t>(rng.Below(domain)));
      }
      (void)instance.AddAtom(pred, args);
    }
  };
  fill(p, 8);
  fill(q, 4);
  fill(r, 4);
  struct Case {
    const char* name;
    std::vector<RuleAtom> atoms;
    uint32_t num_vars;
  };
  const std::vector<Case> cases = {
      {"repeated variable, bound: p(X,Y), q(Y,Y)",
       {RuleAtom(p, {0, 1}), RuleAtom(q, {1, 1})}, 2},
      {"repeated variable, free: q(X,X), p(X,Y)",
       {RuleAtom(q, {0, 0}), RuleAtom(p, {0, 1})}, 2},
      {"second column: p(X,Y), q(Z,Y)",
       {RuleAtom(p, {0, 1}), RuleAtom(q, {2, 1})}, 3},
      {"third column: p(X,Y), r(Z,W,X)",
       {RuleAtom(p, {0, 1}), RuleAtom(r, {2, 3, 0})}, 4},
      {"missing keys: p(X,Y), q(Y,Z)",
       {RuleAtom(p, {0, 1}), RuleAtom(q, {1, 2})}, 3},
      {"chained lookups: p(X,Y), q(Y,Z), r(Z,X,W)",
       {RuleAtom(p, {0, 1}), RuleAtom(q, {1, 2}), RuleAtom(r, {2, 0, 3})},
       4},
  };
  for (const Case& c : cases) {
    const std::vector<Term> unbound(c.num_vars, kUnboundTerm);
    RowIndex index;
    IndexProbes(c.atoms, unbound, index);
    ASSERT_FALSE(index.empty()) << c.name;
    Instance grown = instance;
    index.Extend(grown);
    // The whole-relation match, with or without the index; its stream, and
    // the rows it tried.
    auto match = [&](const RowIndex* with) {
      HomEnumerator e;
      Stream out;
      e.Reset(c.atoms, &grown, FullRanges(c.atoms, grown), unbound, with);
      while (e.Next()) out.emplace_back(0, e.hom());
      return std::make_pair(out, e.rows_probed());
    };
    const Stream oracle = OracleStream(c.atoms, grown,
                                       FullRanges(c.atoms, grown), unbound);
    EXPECT_FALSE(oracle.empty()) << c.name;
    const auto [scanned, scan_rows] = match(nullptr);
    const auto [looked_up, lookup_rows] = match(&index);
    EXPECT_EQ(scanned, oracle) << c.name;
    EXPECT_EQ(looked_up, oracle) << c.name;
    EXPECT_LT(lookup_rows, scan_rows) << c.name;

    // Rows past the index's coverage: windows reaching them scan.
    for (PredId pred : {p, q, r}) {
      std::vector<Term> args(schema.Arity(pred),
                             MakeNull(grown.NewNullId()));
      ASSERT_TRUE(grown.AddAtom(pred, args));
    }
    const Stream past = OracleStream(c.atoms, grown,
                                     FullRanges(c.atoms, grown), unbound);
    const auto [rescanned, rescan_rows] = match(nullptr);
    const auto [fell_back, fallback_rows] = match(&index);
    EXPECT_EQ(rescanned, past) << c.name;
    EXPECT_EQ(fell_back, past) << c.name;
    EXPECT_EQ(fallback_rows, rescan_rows) << c.name;
  }
}

TEST(HomEnumeratorTest, HeadWindowMatchesFollowTheOracle) {
  // Head checks extend the frontier binding of a body homomorphism
  // (existentials free) under the three windows the restricted chase uses:
  // every row, the round-start prefix, and a suffix at one position. The
  // generated heads are single atoms, so each rule's head is followed by
  // its body atoms: a multi-atom conjunction with free existential and
  // free non-frontier variables, where the suffix position matters.
  Rng rng(7);
  size_t checked = 0;
  size_t matches = 0;
  for (NonLinearFamily family : kFamilies) {
    Fixture fixture;
    DeclareSchema(&fixture, &rng);
    const Instance instance = MakeInstance(fixture, &rng, /*rows=*/10);
    const std::vector<Tgd> tgds = MakeTgds(fixture, family, 2, rng.Next());
    const RoundView view = MakeViews(fixture, instance, &rng)[2];
    auto conjunction = [](const Tgd& tgd) {
      std::vector<RuleAtom> atoms = tgd.head();
      atoms.insert(atoms.end(), tgd.body().begin(), tgd.body().end());
      return atoms;
    };
    // The lookup side: an index of every column the conjunctions look up
    // from a frontier binding, built to the view's round-start watermark —
    // the prefix window lies inside it, the full and suffix windows reach
    // past it wherever a predicate has rows beyond the watermark.
    Instance indexed(&fixture.schema);
    RowIndex index;
    for (const Tgd& tgd : tgds) {
      std::vector<Term> frontier(tgd.num_vars(), kUnboundTerm);
      for (VarId v : tgd.frontier()) frontier[v] = MakeConstant(0);
      IndexProbes(conjunction(tgd), frontier, index);
    }
    AddAtWatermark(instance, view, &indexed, &index);
    for (uint32_t rule = 0; rule < tgds.size(); ++rule) {
      const Tgd& tgd = tgds[rule];
      const std::vector<RuleAtom> atoms = conjunction(tgd);
      std::vector<std::vector<RowRange>> windows;
      windows.push_back(FullRanges(atoms, instance));
      std::vector<RowRange> prefix;
      for (const RuleAtom& atom : atoms) {
        prefix.push_back({0, view.CurOf(atom.pred)});
      }
      windows.push_back(prefix);
      for (size_t d = 0; d < atoms.size(); ++d) {
        std::vector<RowRange> suffix = FullRanges(atoms, instance);
        suffix[d].begin = view.CurOf(atoms[d].pred);
        windows.push_back(suffix);
      }
      std::vector<Term> h(tgd.num_vars(), kUnboundTerm);
      std::vector<VarId> trail;
      OracleMatch(tgd.body(), instance, FullRanges(tgd.body(), instance), 0,
                  h, trail, [&](const std::vector<Term>& body_hom) {
                    std::vector<Term> frontier(tgd.num_vars(), kUnboundTerm);
                    for (VarId v : tgd.frontier()) frontier[v] = body_hom[v];
                    for (const std::vector<RowRange>& window : windows) {
                      const Stream oracle =
                          OracleStream(atoms, instance, window, frontier);
                      EXPECT_EQ(
                          MatcherStream(atoms, instance, window, frontier),
                          oracle)
                          << NonLinearFamilyName(family) << " rule " << rule;
                      EXPECT_EQ(MatcherStream(atoms, indexed, window,
                                              frontier, &index),
                                oracle)
                          << NonLinearFamilyName(family) << " rule " << rule
                          << " (lookups)";
                      ++checked;
                      matches += oracle.size();
                    }
                  });
    }
  }
  EXPECT_GT(checked, 100u);
  EXPECT_GT(matches, 100u);
}

TEST(HomEnumeratorTest, AppendsBetweenNextCallsStayOutsideTheWindows) {
  // Atoms appended while a matcher is parked — after Reset, reallocating
  // the per-predicate vectors — must neither be matched nor disturb the
  // rows inside the windows.
  Rng rng(11);
  Fixture fixture;
  DeclareSchema(&fixture, &rng);
  Instance instance = MakeInstance(fixture, &rng, /*rows=*/10);
  const std::vector<Tgd> tgds =
      MakeTgds(fixture, NonLinearFamily::kChain, 3, rng.Next());
  for (const Tgd& tgd : tgds) {
    const std::vector<RowRange> ranges = FullRanges(tgd.body(), instance);
    const std::vector<Term> unbound(tgd.num_vars(), kUnboundTerm);
    const Stream oracle = OracleStream(tgd.body(), instance, ranges, unbound);
    Stream seen;
    HomEnumerator e;
    e.Reset(tgd.body(), &instance, ranges, unbound);
    while (e.Next()) {
      seen.emplace_back(0, e.hom());
      for (PredId pred : fixture.preds) {
        std::vector<Term> args(fixture.schema.Arity(pred));
        for (Term& arg : args) arg = MakeNull(instance.NewNullId());
        ASSERT_TRUE(instance.AddAtom(pred, args));
      }
    }
    EXPECT_EQ(seen, oracle);
  }
}

}  // namespace
}  // namespace chase
