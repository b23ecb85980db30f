// Ablation: parallel homomorphism search for non-linear (multi-atom-body)
// rules in the chase engine.
//
// Until this engine landed, frontier_threads silently fell back to serial
// enumeration the moment any rule had two body atoms: the round-level split
// only dealt delta ranges of a single body atom, and buffering a multi-atom
// join's full output would have been unbounded. The engine now partitions
// each (rule, delta-position) task's homomorphism space into range
// fragments (chase/body_partition.h) and runs them on the persistent
// worker pool under the budgeted enumerate→pause→apply→resume protocol, so
// non-linear rounds parallelize with peak buffered homomorphisms capped at
// threads × hom_budget.
//
// The sweep crosses the three knobs that matter:
//  * join family — star (one hot hub row whose fan-out forces the
//    join-split path), chain (role composition), triangle (cyclic join),
//    cross (disconnected body, the pure cross-product whose unbudgeted
//    buffering would explode);
//  * threads 1..8 (1 = the serial oracle, which fires each homomorphism
//    as it is matched);
//  * hom_budget, from the 4096 default down to 1 (an epoch per
//    homomorphism per fragment — maximal pause/resume traffic).
//
// Columns: peak-buf is the measured ChaseResult::peak_buffered_homs (its
// bound, threads × budget, is in the bud-bound column beside it), and
// prefiltered counts restricted-variant triggers the workers proved
// satisfied against the frozen prefix. Every configuration is checked
// bit-identical against the serial oracle — outcome, rounds, trigger
// counts, and the instance's insertion order — before its row is emitted.
//
// NOTE: wall-clock parallel gains need as many cores as threads and
// enough work per round (same caveat as ablation_frontier_parallel); the
// equivalence checks, the peak-buffer accounting, and the pause/resume
// overhead trend across budgets are the signal. Also emits BENCH_nonlinear_chase.json
// (see WriteBenchJson) for CI to archive.

#include <iostream>
#include <string>
#include <vector>

#include "chase/chase_engine.h"
#include "common.h"

using namespace chase;
using namespace chase::bench;

namespace {

struct AtomList {
  std::vector<GroundAtom> atoms;
};

AtomList CollectAtoms(const Instance& instance) {
  AtomList list;
  instance.ForEachAtom(
      [&](const GroundAtom& atom) { list.atoms.push_back(atom); });
  return list;
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  const uint32_t reps = flags.reps != 0 ? flags.reps : 3;
  Rng rng(flags.seed);

  TablePrinter table({"family", "variant", "threads", "budget", "t-ms",
                      "speedup", "rounds", "triggers", "prefiltered",
                      "peak-buf", "bud-bound", "atoms"});

  const NonLinearFamily families[] = {
      NonLinearFamily::kStar, NonLinearFamily::kChain,
      NonLinearFamily::kTriangle, NonLinearFamily::kCross};
  for (NonLinearFamily family : families) {
    DataGenParams data_params;
    data_params.preds = 6;
    data_params.min_arity = 2;
    data_params.max_arity = 3;
    data_params.dsize = 64;
    data_params.rsize = std::max<uint64_t>(
        4, static_cast<uint64_t>(60 * flags.scale));
    data_params.seed = rng.Next();
    auto data = GenerateData(data_params);
    if (!data.ok()) {
      std::cerr << data.status() << "\n";
      return 1;
    }

    NonLinearGenParams tgd_params;
    tgd_params.ssize = data->schema->NumPredicates();
    tgd_params.min_arity = 2;
    tgd_params.max_arity = 3;
    tgd_params.tsize = 6;
    tgd_params.family = family;
    tgd_params.body_atoms = family == NonLinearFamily::kTriangle ? 3 : 2;
    tgd_params.existential_percent = 20;
    tgd_params.seed = rng.Next();
    auto tgds = GenerateNonLinearTgds(*data->schema, tgd_params);
    if (!tgds.ok()) {
      std::cerr << tgds.status() << "\n";
      return 1;
    }

    for (ChaseVariant variant :
         {ChaseVariant::kSemiOblivious, ChaseVariant::kRestricted}) {
      ChaseOptions serial_options;
      serial_options.variant = variant;
      serial_options.max_atoms = std::max<uint64_t>(
          500, static_cast<uint64_t>(20'000 * flags.scale));
      auto serial = RunChase(*data->database, *tgds, serial_options);
      if (!serial.ok()) {
        std::cerr << serial.status() << "\n";
        return 1;
      }
      const AtomList serial_atoms = CollectAtoms(serial->instance);

      double base_ms = 0;
      for (unsigned threads : {1u, 2u, 4u, 8u}) {
        for (uint64_t budget : {uint64_t{1}, uint64_t{64}, uint64_t{4096}}) {
          // threads=1 ignores the budget (nothing is buffered): one row.
          if (threads == 1 && budget != 4096) continue;
          double best_ms = 0;
          uint64_t rounds = 0, triggers = 0, prefiltered = 0, peak = 0,
                   atoms = 0;
          for (uint32_t rep = 0; rep < reps; ++rep) {
            ChaseOptions options = serial_options;
            options.frontier_threads = threads;
            options.hom_budget = budget;
            Timer timer;
            auto result = RunChase(*data->database, *tgds, options);
            const double ms = timer.ElapsedMillis();
            if (!result.ok() || result->outcome != serial->outcome ||
                result->rounds != serial->rounds ||
                result->triggers_fired != serial->triggers_fired ||
                CollectAtoms(result->instance).atoms != serial_atoms.atoms) {
              std::cerr << "non-linear chase mismatch (family="
                        << NonLinearFamilyName(family)
                        << ", variant=" << ChaseVariantName(variant)
                        << ", threads=" << threads << ", budget=" << budget
                        << ")\n";
              return 1;
            }
            if (result->peak_buffered_homs > threads * budget) {
              std::cerr << "peak-buffer bound violated\n";
              return 1;
            }
            best_ms = rep == 0 ? ms : std::min(best_ms, ms);
            rounds = result->rounds;
            triggers = result->triggers_fired;
            prefiltered = result->triggers_prefiltered;
            peak = result->peak_buffered_homs;
            atoms = result->instance.NumAtoms();
          }
          if (threads == 1) base_ms = best_ms;
          table.AddRow({NonLinearFamilyName(family),
                        ChaseVariantName(variant), std::to_string(threads),
                        threads == 1 ? "-" : std::to_string(budget),
                        FmtMs(best_ms),
                        Fmt(base_ms / std::max(best_ms, 1e-6), 1) + "x",
                        std::to_string(rounds), std::to_string(triggers),
                        std::to_string(prefiltered), std::to_string(peak),
                        threads == 1
                            ? "-"
                            : std::to_string(uint64_t{threads} * budget),
                        std::to_string(atoms)});
        }
      }
    }
  }

  Emit(flags,
       "Ablation: parallel homomorphism search for non-linear rules "
       "(partitioned body joins, budgeted enumerate/pause/apply/resume)",
       table);
  if (!WriteBenchJson(flags, "nonlinear_chase", table)) return 1;
  return 0;
}
