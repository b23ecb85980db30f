#include "chase/chase_engine.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/signal_flag.h"
#include "base/status.h"
#include "chase/body_partition.h"
#include "chase/instance.h"
#include "chase/row_index.h"
#include "io/binary_io.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/term.h"
#include "logic/tgd.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chase {
namespace {

// The fired-trigger tables, one per rule, keyed on the values a trigger
// binds: the full body assignment (the universal variables) for the
// oblivious chase, the frontier restriction h|fr(σ) for the semi-oblivious
// chase. The restricted chase keeps none.
std::vector<RowSet> FiredTables(const std::vector<Tgd>& tgds,
                                ChaseVariant variant) {
  std::vector<RowSet> fired;
  if (variant == ChaseVariant::kRestricted) return fired;
  fired.reserve(tgds.size());
  for (const Tgd& tgd : tgds) {
    fired.emplace_back(variant == ChaseVariant::kSemiOblivious
                           ? static_cast<uint32_t>(tgd.frontier().size())
                           : tgd.num_universal());
  }
  return fired;
}

// The row index of every column the body joins look up (from the empty
// assignment) and, with `heads`, the head checks (from a body
// homomorphism, which binds every universal variable). Empty when no
// position has a bound variable on entry, as for single-atom bodies.
RowIndex IndexFor(const std::vector<Tgd>& tgds, bool heads) {
  RowIndex index;
  std::vector<Term> h;
  for (const Tgd& tgd : tgds) {
    h.assign(tgd.num_vars(), kUnboundTerm);
    IndexProbes(tgd.body(), h, index);
    if (heads) {
      // Only which variables are bound matters, not their values.
      std::fill_n(h.begin(), tgd.num_universal(), Term{0});
      IndexProbes(tgd.head(), h, index);
    }
  }
  return index;
}

// True iff some extension of the frontier assignment `hom` maps every head
// atom of `tgd` into `instance` — the restricted chase's satisfaction test.
// `hom` leaves the existential variables unbound; `matcher` is scratch.
bool HeadSatisfied(const Tgd& tgd, const Instance& instance,
                   const RowIndex& index, std::span<const Term> hom,
                   HomEnumerator& matcher) {
  matcher.Reset(tgd.head(), &instance, FullRanges(tgd.head(), instance), hom,
                &index);
  return matcher.Next();
}

}  // namespace

const char* ChaseVariantName(ChaseVariant variant) {
  switch (variant) {
    case ChaseVariant::kOblivious:
      return "oblivious";
    case ChaseVariant::kSemiOblivious:
      return "semi-oblivious";
    case ChaseVariant::kRestricted:
      return "restricted";
  }
  return "?";
}

const char* ChaseOutcomeName(ChaseOutcome outcome) {
  switch (outcome) {
    case ChaseOutcome::kFixpoint:
      return "fixpoint";
    case ChaseOutcome::kAtomLimit:
      return "atom-limit";
    case ChaseOutcome::kRoundLimit:
      return "round-limit";
    case ChaseOutcome::kInterrupted:
      return "interrupted";
  }
  return "?";
}

StatusOr<ChaseResult> RunChase(const Database& database,
                               const std::vector<Tgd>& tgds,
                               const ChaseOptions& options) {
  const Schema& schema = database.schema();
  // The instance stores each predicate's atoms as rows of its schema arity.
  for (const Tgd& tgd : tgds) {
    for (const auto* atoms : {&tgd.body(), &tgd.head()}) {
      for (const RuleAtom& atom : *atoms) {
        if (atom.pred >= schema.NumPredicates()) {
          return InvalidArgumentError(
              "TGD uses a predicate not in the schema");
        }
        if (atom.args.size() != schema.Arity(atom.pred)) {
          return InvalidArgumentError(
              "TGD atom arity does not match the schema");
        }
      }
    }
  }

  if (options.checkpoint_path.empty() &&
      (options.checkpoint_every_rounds != 0 || options.checkpoint_on_signal)) {
    return InvalidArgumentError(
        "checkpoint_every_rounds/checkpoint_on_signal require a "
        "checkpoint_path");
  }
  // The program identity stamped into checkpoints and validated on resume;
  // only computed when either end of the protocol is in play (it
  // serializes the whole input).
  const uint64_t input_fingerprint =
      (!options.checkpoint_path.empty() || options.resume != nullptr)
          ? io::ProgramFingerprint(schema, database, tgds)
          : 0;

  ChaseResult result(Instance::FromDatabase(database));
  Instance& instance = result.instance;
  result.outcome = ChaseOutcome::kFixpoint;

  std::vector<RowSet> fired = FiredTables(tgds, options.variant);
  RoundView view;
  const size_t num_preds = schema.NumPredicates();
  view.prev.assign(num_preds, 0);
  view.cur.assign(num_preds, 0);
  for (PredId pred = 0; pred < num_preds; ++pred) {
    view.cur[pred] = instance.NumRows(pred);
  }

  if (options.resume != nullptr) {
    const io::ChaseCheckpoint& ckpt = *options.resume;
    if (ckpt.input_fingerprint != input_fingerprint) {
      return InvalidArgumentError(
          "checkpoint was taken against a different program (input "
          "fingerprint mismatch) — resuming would silently diverge");
    }
    if (ckpt.variant != static_cast<uint32_t>(options.variant)) {
      return InvalidArgumentError(
          std::string("checkpoint was taken by a ") +
          ChaseVariantName(static_cast<ChaseVariant>(ckpt.variant)) +
          " chase, not " + ChaseVariantName(options.variant));
    }
    if (ckpt.relations.size() != num_preds) {
      return InvalidArgumentError(
          "checkpoint relation count does not match the schema");
    }
    // Rebuild the instance from the checkpoint alone: the fingerprint pins
    // the seed database (its facts are the prefix of the stored relations),
    // and replaying the stored insertion order reproduces the by-predicate
    // layout — and with it every downstream enumeration — bit-identically.
    Instance restored(&schema);
    for (PredId pred = 0; pred < num_preds; ++pred) {
      const io::ChaseCheckpoint::Relation& relation = ckpt.relations[pred];
      const uint32_t arity = schema.Arity(pred);
      if (relation.arity != arity) {
        return InvalidArgumentError(
            "checkpoint relation arity does not match the schema");
      }
      // Checkpoints are written after the round-window advance, so `cur`
      // always covers the whole relation.
      if (relation.cur * arity != relation.atoms.size()) {
        return InvalidArgumentError(
            "checkpoint round window does not cover the instance");
      }
      const std::span<const Term> terms = relation.atoms;
      for (size_t row = 0; row * arity < terms.size(); ++row) {
        if (!restored.AddAtom(pred, terms.subspan(row * arity, arity))) {
          return InvalidArgumentError(
              "checkpoint instance holds duplicate atoms");
        }
      }
      view.prev[pred] = relation.prev;
      view.cur[pred] = relation.cur;
    }
    restored.SetNextNull(ckpt.next_null);
    instance = std::move(restored);
    // Each key is [rule, values...] with exactly that rule's key width;
    // the loader already rejects empty, duplicate and unsorted keys.
    for (const std::vector<uint64_t>& key : ckpt.fired_keys) {
      if (key.empty() || key[0] >= fired.size()) {
        return InvalidArgumentError(
            "checkpoint fired key names no rule of this chase");
      }
      RowSet& table = fired[key[0]];
      if (key.size() - 1 != table.width()) {
        return InvalidArgumentError(
            "checkpoint fired key width does not match its rule");
      }
      table.Insert(std::span<const Term>(key).subspan(1));
    }
    result.rounds = ckpt.rounds;
    result.triggers_fired = ckpt.triggers_fired;
  }

  // Every round runs on this thread: one matcher pass per (rule, delta
  // position), firing each trigger as it is matched. The firing decision —
  // the restricted variant's head check included — sees every atom fired
  // earlier in the round.
  const bool restricted = options.variant == ChaseVariant::kRestricted;
  HomEnumerator body_matcher;
  HomEnumerator head_matcher;
  // fire()'s scratch, reused by every trigger: the key it probes, then
  // each head row it adds, and the null it mints per existential variable.
  std::vector<Term> scratch;
  std::vector<Term> null_of;
  // The lookups' row index: extended to the round-start prefix at the top
  // of every round, before any matcher of the round is reset onto it.
  // Never checkpointed (a resumed run rebuilds it from the restored
  // instance) and freed on return.
  RowIndex index = IndexFor(tgds, restricted);

  // Observability (all off by default, every site behind one relaxed
  // load): a whole-run span, a span and log2 duration histogram per round,
  // and — when the caller hands in a sink — live progress published at
  // round boundaries plus every few thousand firings inside a round.
  obs::TraceSpan run_span("chase", "run", "rules",
                          static_cast<int64_t>(tgds.size()));
  obs::Histogram* round_hist =
      obs::MetricsRegistry::enabled()
          ? obs::MetricsRegistry::Get().GetHistogram("chase.round_us")
          : nullptr;
  constexpr uint64_t kProgressStride = 4096;  // firings between updates

  // Signal-triggered checkpoints: the handlers (base/signal_flag.h, the
  // repo's one sanctioned signal shim) only set lock-free atomic flags;
  // the loop polls them at round boundaries below and does the real work
  // — serialization, file I/O, metrics — on this thread.
  std::optional<ScopedSignalFlags> signal_flags;
  if (options.checkpoint_on_signal) signal_flags.emplace();
  obs::Counter* checkpoints_written =
      !options.checkpoint_path.empty() && obs::MetricsRegistry::enabled()
          ? obs::MetricsRegistry::Get().GetCounter(
                "chase.checkpoints_written")
          : nullptr;
  auto write_checkpoint = [&]() -> Status {
    obs::TraceSpan checkpoint_span("chase", "checkpoint", "round",
                                   static_cast<int64_t>(result.rounds));
    io::ChaseCheckpoint ckpt;
    ckpt.variant = static_cast<uint32_t>(options.variant);
    ckpt.input_fingerprint = input_fingerprint;
    ckpt.rounds = result.rounds;
    ckpt.triggers_fired = result.triggers_fired;
    ckpt.next_null = instance.NumNulls();
    ckpt.relations.resize(num_preds);
    for (PredId pred = 0; pred < num_preds; ++pred) {
      io::ChaseCheckpoint::Relation& relation = ckpt.relations[pred];
      relation.arity = schema.Arity(pred);
      relation.prev = view.prev[pred];
      relation.cur = view.cur[pred];
      const std::span<const Term> terms = instance.Terms(pred);
      relation.atoms.assign(terms.begin(), terms.end());
    }
    // Keys are stored in firing order per rule; sorting makes checkpoint
    // bytes canonical for a given state (and satisfies the loader's
    // ordering check).
    for (uint64_t rule = 0; rule < fired.size(); ++rule) {
      for (size_t row = 0; row < fired[rule].size(); ++row) {
        const std::span<const Term> values = fired[rule][row];
        std::vector<uint64_t>& key = ckpt.fired_keys.emplace_back();
        key.reserve(1 + values.size());
        key.push_back(rule);
        key.insert(key.end(), values.begin(), values.end());
      }
    }
    std::sort(ckpt.fired_keys.begin(), ckpt.fired_keys.end());
    CHASE_RETURN_IF_ERROR(
        io::SaveChaseCheckpoint(ckpt, options.checkpoint_path));
    if (checkpoints_written != nullptr) checkpoints_written->Add(1);
    return OkStatus();
  };

  while (true) {
    // Limit precedence: the atom budget outranks the round budget (see
    // chase_engine.h). Checking atoms first makes a seed database already
    // past max_atoms report kAtomLimit even at max_rounds = 0; mid-run
    // trips break at the bottom of their round, before the next top-of-
    // loop round check, so both orderings agree there too.
    if (instance.NumAtoms() > options.max_atoms) {
      result.outcome = ChaseOutcome::kAtomLimit;
      break;
    }
    if (result.rounds >= options.max_rounds) {
      result.outcome = ChaseOutcome::kRoundLimit;
      break;
    }
    obs::TraceSpan round_span("chase", "round", "round",
                              static_cast<int64_t>(result.rounds));
    index.Extend(instance);
    const auto round_begin = round_hist != nullptr
                                 ? std::chrono::steady_clock::now()
                                 : std::chrono::steady_clock::time_point{};
    bool grew = false;
    bool hit_atom_limit = false;
    uint64_t atoms_now = instance.NumAtoms();

    // Applies one trigger: the firing decision, null allocation, and atom
    // insertion, in enumeration order.
    auto fire = [&](size_t rule, std::span<const Term> hom) {
      const Tgd& tgd = tgds[rule];
      // Decide whether this trigger fires.
      if (restricted) {
        // Only the frontier restriction matters for satisfaction;
        // existentials are unbound here by construction.
        if (HeadSatisfied(tgd, instance, index, hom, head_matcher)) return;
      } else {
        scratch.clear();
        if (options.variant == ChaseVariant::kSemiOblivious) {
          for (VarId var : tgd.frontier()) scratch.push_back(hom[var]);
        } else {
          scratch.assign(hom.begin(), hom.begin() + tgd.num_universal());
        }
        if (!fired[rule].Insert(scratch)) return;
      }
      ++result.triggers_fired;
      // result(σ, h): frontier variables keep their image, each
      // existential variable gets a fresh labelled null (unique per
      // trigger and variable, per Definition 3.1). Atoms apply eagerly
      // so the restricted variant's satisfaction check sees atoms added
      // earlier in this round (a sequential order).
      null_of.assign(tgd.num_vars(), kUnboundTerm);
      for (const RuleAtom& head_atom : tgd.head()) {
        scratch.clear();
        for (VarId var : head_atom.args) {
          if (tgd.IsUniversal(var)) {
            scratch.push_back(hom[var]);
          } else {
            if (null_of[var] == kUnboundTerm) {
              null_of[var] = MakeNull(instance.NewNullId());
            }
            scratch.push_back(null_of[var]);
          }
        }
        if (instance.AddAtom(head_atom.pred, scratch)) {
          grew = true;
          ++atoms_now;
        }
      }
      if (atoms_now > options.max_atoms) hit_atom_limit = true;
      if (options.progress != nullptr &&
          result.triggers_fired % kProgressStride == 0) {
        options.progress->Update(result.rounds + 1, atoms_now,
                                 instance.NumNulls(), result.triggers_fired);
      }
    };

    for (uint32_t rule = 0; rule < tgds.size() && !hit_atom_limit; ++rule) {
      const Tgd& tgd = tgds[rule];
      for (uint32_t delta_pos = 0;
           delta_pos < tgd.body().size() && !hit_atom_limit; ++delta_pos) {
        if (!HasCandidates(tgd, view, delta_pos)) continue;
        obs::TraceSpan task_span("chase", "hom_task", "rule",
                                 static_cast<int64_t>(rule), "delta_pos",
                                 static_cast<int64_t>(delta_pos));
        body_matcher.Reset(tgd, &instance, view, delta_pos, &index);
        while (!hit_atom_limit && body_matcher.Next()) {
          fire(rule, body_matcher.hom());
        }
      }
    }

    ++result.rounds;
    if (round_hist != nullptr && obs::MetricsRegistry::enabled()) {
      round_hist->Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - round_begin)
              .count()));
    }
    if (options.progress != nullptr) {
      options.progress->Update(result.rounds, instance.NumAtoms(),
                               instance.NumNulls(), result.triggers_fired);
    }
    if (hit_atom_limit) {
      result.outcome = ChaseOutcome::kAtomLimit;
      break;
    }
    if (!grew) {
      result.outcome = ChaseOutcome::kFixpoint;
      break;
    }
    // Advance the round window.
    for (PredId pred = 0; pred < num_preds; ++pred) {
      view.prev[pred] = view.cur[pred];
      view.cur[pred] = instance.NumRows(pred);
    }
    // Round-boundary checkpoint protocol: a periodic tick, a SIGUSR1
    // (write and continue), or a SIGTERM (write, then stop). Consuming the
    // flags clears them, so one posted request is served exactly once.
    if (!options.checkpoint_path.empty()) {
      const bool stop = options.checkpoint_on_signal &&
                        ScopedSignalFlags::ConsumeStopRequest();
      const bool asked = options.checkpoint_on_signal &&
                         ScopedSignalFlags::ConsumeCheckpointRequest();
      const bool tick =
          options.checkpoint_every_rounds != 0 &&
          result.rounds % options.checkpoint_every_rounds == 0;
      if (stop || asked || tick) {
        CHASE_RETURN_IF_ERROR(write_checkpoint());
      }
      if (stop) {
        result.outcome = ChaseOutcome::kInterrupted;
        break;
      }
    }
  }
  result.rows_probed += body_matcher.rows_probed();
  result.rows_probed += head_matcher.rows_probed();
  // Mirror the run's result counters into the registry so `--metrics`
  // surfaces them without the caller plumbing ChaseResult around.
  obs::SetGauge("chase.rounds", static_cast<double>(result.rounds));
  obs::SetGauge("chase.triggers_fired",
                static_cast<double>(result.triggers_fired));
  obs::SetGauge("chase.rows_probed", static_cast<double>(result.rows_probed));
  obs::SetGauge("chase.atoms", static_cast<double>(instance.NumAtoms()));
  obs::SetGauge("chase.nulls", static_cast<double>(instance.NumNulls()));
  return result;
}

bool Satisfies(const Instance& instance, const std::vector<Tgd>& tgds) {
  // One round whose window is the whole instance: every body homomorphism
  // is a delta-position-0 trigger.
  RoundView view;
  const size_t num_preds = instance.schema().NumPredicates();
  view.cur.assign(num_preds, 0);
  for (PredId pred = 0; pred < num_preds; ++pred) {
    view.cur[pred] = instance.NumRows(pred);
  }
  RowIndex index = IndexFor(tgds, /*heads=*/true);
  index.Extend(instance);
  HomEnumerator body_matcher;
  HomEnumerator head_matcher;
  for (const Tgd& tgd : tgds) {
    body_matcher.Reset(tgd, &instance, view, /*delta_pos=*/0, &index);
    while (body_matcher.Next()) {
      if (!HeadSatisfied(tgd, instance, index, body_matcher.hom(),
                         head_matcher)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace chase
