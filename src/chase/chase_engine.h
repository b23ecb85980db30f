// The three chase variants of Section 1.1.
//
// A trigger for Σ on I is a pair (σ, h) where h maps body(σ) into I
// (Definition 3.1). The variants differ only in when a trigger is applied:
//
//  * Oblivious: once per distinct h (full body homomorphism).
//  * Semi-oblivious: once per distinct h|fr(σ) (frontier restriction) — the
//    variant whose termination the paper studies. Nulls are named by
//    (σ, h|fr(σ), z), so the result of a trigger is uniquely determined.
//  * Restricted (standard): only when no extension of h|fr(σ) maps head(σ)
//    into I; fresh nulls per application.
//
// The engine runs round-based (chase_i = chase_{i-1} ∪ applied triggers,
// Section 3) with semi-naive trigger enumeration: in round i only triggers
// using at least one atom created in round i-1 are considered. Bodies may
// have multiple atoms (the checkers only need linear TGDs, but the engine is
// a general TGD chase used by tests and the materialization-based checker).
//
// For non-terminating inputs the engine stops at a configurable atom or
// round limit and reports which limit was hit.

#ifndef CHASE_CHASE_CHASE_ENGINE_H_
#define CHASE_CHASE_CHASE_ENGINE_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "chase/instance.h"
#include "logic/database.h"
#include "logic/tgd.h"
#include "obs/progress.h"

namespace chase {

namespace io {
struct ChaseCheckpoint;
}  // namespace io

enum class ChaseVariant {
  kOblivious,
  kSemiOblivious,
  kRestricted,
};

const char* ChaseVariantName(ChaseVariant variant);

// The largest ChaseOptions::frontier_threads RunChase accepts (chasectl's
// --threads ceiling).
inline constexpr unsigned kMaxFrontierThreads = 1024;

struct ChaseOptions {
  ChaseVariant variant = ChaseVariant::kSemiOblivious;
  // Stop once the instance holds more than this many atoms. The cut trips
  // at the same trigger for every frontier_threads value (triggers apply
  // in serial order on every path), and never rolls back a partially
  // applied trigger, so one multi-head trigger may overshoot by at most
  // its head size: after the run, NumAtoms() <= max_atoms + the largest
  // head atom count over the rules.
  //
  // Limit precedence: the atom budget outranks the round budget. When both
  // exhaust in the same round — or the seed database already exceeds
  // max_atoms — the outcome is kAtomLimit, never kRoundLimit: the atom
  // limit reflects real resource pressure, the round limit is a cadence.
  uint64_t max_atoms = 1'000'000;
  // Stop after this many rounds.
  uint64_t max_rounds = UINT64_MAX;
  // Worker threads for per-round trigger enumeration (<= 1 enumerates
  // inline; above kMaxFrontierThreads RunChase returns kInvalidArgument
  // before it allocates anything). A round is a frontier: bodies only match
  // against atoms from earlier rounds, so a chase over multi-atom bodies
  // enumerates triggers on a chase::WorkerPool (spawned on the first
  // parallel round, reused across rounds through its barrier) and applies
  // them serially in the exact serial order: the resulting instance, null
  // numbering, rounds, and trigger count are bit-identical to a
  // single-threaded run. A linear chase, of any variant, enumerates inline
  // at any value and never starts a thread: a one-atom body has no join to
  // split, so workers would only copy delta rows into buffers that the
  // apply loop replays in the same order (ChaseResult::enum_threads reports
  // which path ran). Each parallel round's homomorphism space is split into
  // range fragments (chase/body_partition.h) whose canonical concatenation
  // is the serial trigger order; multi-atom bodies, whose fragments can
  // produce unboundedly many homomorphisms, run under the budgeted
  // enumerate→pause→apply→resume protocol (WorkerPool::RunBudgetedTasks)
  // with at most `hom_budget` buffered homomorphisms per in-flight
  // fragment. The firing decision — the restricted variant's head check
  // included — runs only on the serial apply path, whatever the value.
  unsigned frontier_threads = 1;
  // Parallel enumeration only: the per-fragment homomorphism buffer bound.
  // A worker that fills its fragment's buffer parks at the pool barrier
  // and resumes from its saved backtracking cursor after the serial apply
  // drains it, so peak buffered homomorphisms are bounded by
  // frontier_threads × hom_budget whatever the rule set does (a cross-
  // producting multi-atom body included). 0 behaves as 1. Never affects
  // results — only peak memory and barrier cadence.
  uint64_t hom_budget = 4096;
  // Optional live-progress sink (obs/progress.h): when set, the engine
  // publishes rounds / atom count / null count / triggers fired into it at
  // every round boundary and every few thousand trigger firings within a
  // round, so a reporter thread can print status for chases that run long
  // or never terminate. Pure observer — never affects results.
  obs::ChaseProgressSink* progress = nullptr;
  // Checkpoint/restart (the CHCK envelope, io/binary_io.h). When
  // `checkpoint_path` is non-empty the engine serializes its complete
  // state there — instance atoms in insertion order, the null counter,
  // the semi-naive round window, the fired-trigger dedup keys, result
  // counters, and the input fingerprint — atomically (write-temp-then-
  // rename), at round boundaries only:
  //   * every `checkpoint_every_rounds` completed rounds (0 = no periodic
  //     tick), and
  //   * with `checkpoint_on_signal`, when a SIGUSR1 (write and continue)
  //     or SIGTERM (write, then stop with kInterrupted) arrived since the
  //     last boundary. The handlers are the src/base/signal_flag.h shim:
  //     a single lock-free atomic store each, polled here — no allocation,
  //     locking, or I/O ever runs in signal context.
  // Setting either knob without checkpoint_path is kInvalidArgument.
  std::string checkpoint_path;
  uint64_t checkpoint_every_rounds = 0;
  bool checkpoint_on_signal = false;
  // Continue a previous run from its checkpoint instead of starting at
  // the seed database. The checkpoint must come from a chase of the same
  // program (TGDs + seed database, pinned by the input fingerprint) and
  // the same variant; any mismatch is kInvalidArgument — never a silently
  // divergent chase. The continued run is bit-identical to the
  // uninterrupted one — same instance bytes, null ids, rounds, and
  // trigger counts — at any frontier_threads (max_rounds/max_atoms count
  // totals across both legs). Must outlive the call.
  const io::ChaseCheckpoint* resume = nullptr;
};

enum class ChaseOutcome {
  kFixpoint,     // no applicable trigger remains: the chase terminated
  kAtomLimit,    // atom budget exhausted (outranks kRoundLimit, see above)
  kRoundLimit,   // round budget exhausted
  kInterrupted,  // SIGTERM: checkpoint written, run stopped at the boundary
};

const char* ChaseOutcomeName(ChaseOutcome outcome);

struct ChaseResult {
  Instance instance;
  ChaseOutcome outcome;
  uint64_t rounds = 0;
  uint64_t triggers_fired = 0;
  // Parallel enumeration only: the largest number of homomorphisms ever
  // buffered at once across the run, measured at each epoch barrier of the
  // budgeted protocol. By construction at most frontier_threads ×
  // hom_budget (tests/frontier_equivalence_test.cc asserts the bound).
  // Deterministic for a given (input, threads, budget), but 0 for a run
  // that enumerated inline (enum_threads == 1, at any frontier_threads).
  // Counts this run only: a resumed run reports the peak of its resumed
  // leg, since checkpoints do not carry it — diagnostics only, never part
  // of the bit-identical-result contract.
  uint64_t peak_buffered_homs = 0;
  // The threads this run enumerated triggers on: frontier_threads (at least
  // 1) where rounds go parallel, 1 where they run inline — a linear chase,
  // or frontier_threads <= 1.
  unsigned enum_threads = 1;
  // Candidate rows every matcher of the run tried — body joins and head
  // checks (HomEnumerator::rows_probed) — the join work that row-index
  // lookups cut; divided by triggers_fired, the work per trigger. Counts
  // this run only (a resumed leg starts from 0: checkpoints do not carry
  // it), and an atom-limit cut makes it vary with frontier_threads —
  // diagnostics only, like peak_buffered_homs.
  uint64_t rows_probed = 0;

  explicit ChaseResult(Instance i) : instance(std::move(i)) {}
};

// Runs the chase of `database` with `tgds`. The schema of `database` must
// contain every predicate of `tgds`.
[[nodiscard]] StatusOr<ChaseResult> RunChase(const Database& database,
                               const std::vector<Tgd>& tgds,
                               const ChaseOptions& options = {});

// I |= Σ: every trigger's head is satisfied (Section 2). Used by tests to
// validate that a terminated chase result is a model.
bool Satisfies(const Instance& instance, const std::vector<Tgd>& tgds);

}  // namespace chase

#endif  // CHASE_CHASE_CHASE_ENGINE_H_
