// Ablation: depth-synchronous frontier parallelism for the EXISTS plan and
// the dynamic-simplification worklist.
//
// PR 1 parallelized the exists plan per predicate — one worker per whole
// lattice — so a single high-arity predicate pinned one worker no matter
// the pool size, and dynamic simplification expanded its ΔS worklist
// strictly serially. Both now run through chase::FrontierPool, which deals
// the frontier items themselves (candidate shapes) to workers in chunks
// and barriers per depth. This ablation sweeps thread counts against
// exactly the adversarial case the old dealing could not split: ONE
// predicate of growing arity, one lattice. The per-worker expansion
// columns (busy-workers, w-min/w-max: how many candidates each worker
// expanded) prove the lattice frontier itself is being divided — under
// per-predicate dealing every row would show busy-workers=1.
//
// Stage 3 profiles the opposite adversary: thousands of two-item depths,
// where the engine does almost no work per depth and the inter-depth
// machinery dominates. The workers are now spawned once per run and
// synchronized by a reusable generation barrier, so the `us-depth` column
// (per-depth overhead) measures a condvar cycle instead of the thread
// spawn+join every depth used to pay.
//
// NOTE: wall-clock speedup needs at least as many cores as threads (the
// 8-thread rows oversubscribe a 4-core machine) and enough work per depth
// to amortize the barrier; at these sizes parallel runs can lose to
// serial. The expansion
// counters show the frontier being split across workers regardless, and
// the us-depth column is counter-based per-depth overhead, not a
// parallelism measurement. Every configuration
// is checked bit-identical against the serial oracle before its row is
// emitted.

#include <algorithm>
#include <iostream>

#include "exec/frontier_pool.h"
#include "common.h"
#include "core/dynamic_simplification.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

using namespace chase;
using namespace chase::bench;

namespace {

void WorkerColumns(const FrontierStats& stats, double best_ms,
                   std::vector<std::string>* row) {
  uint64_t busy = 0;
  uint64_t w_min = UINT64_MAX;
  uint64_t w_max = 0;
  for (uint64_t expanded : stats.worker_expanded) {
    if (expanded > 0) ++busy;
    w_min = std::min(w_min, expanded);
    w_max = std::max(w_max, expanded);
  }
  row->push_back(std::to_string(stats.depths));
  // Per-depth overhead in microseconds: on the shallow profile this is
  // almost pure barrier cost (one condvar cycle per depth).
  row->push_back(
      Fmt(best_ms * 1000.0 / std::max<uint64_t>(1, stats.depths), 2));
  row->push_back(std::to_string(stats.items_expanded));
  row->push_back(std::to_string(busy));
  row->push_back(std::to_string(w_min == UINT64_MAX ? 0 : w_min));
  row->push_back(std::to_string(w_max));
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  const uint32_t reps = flags.reps != 0 ? flags.reps : 3;
  Rng rng(flags.seed);

  std::vector<std::string> columns = {"stage",   "arity", "threads",
                                      "t-ms",    "speedup", "depths",
                                      "us-depth", "expanded",
                                      "busy-workers", "w-min", "w-max"};
  for (const std::string& name : AccessColumnNames()) {
    columns.push_back(name);
  }
  TablePrinter table(columns);

  // -------------------------------------------------------------------
  // Stage 1: the EXISTS plan on one giant predicate per arity.
  for (uint32_t arity : {5u, 6u, 7u}) {
    DataGenParams params;
    params.preds = 1;
    params.min_arity = arity;
    params.max_arity = arity;
    params.dsize = 64;  // a small repeated domain, so coarse shapes occur
    params.rsize = std::max<uint64_t>(
        1, static_cast<uint64_t>(20'000 * flags.scale));
    params.seed = rng.Next();
    auto data = GenerateData(params);
    if (!data.ok()) {
      std::cerr << data.status() << "\n";
      return 1;
    }
    storage::Catalog catalog(data->database.get());
    storage::MemoryShapeSource source(&catalog);
    auto oracle =
        storage::FindShapes(source, {storage::ShapeFinderMode::kExists, 1});
    if (!oracle.ok()) {
      std::cerr << oracle.status() << "\n";
      return 1;
    }

    double base_ms = 0;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      double best_ms = 0;
      FrontierStats stats;
      storage::AccessStats access;
      for (uint32_t rep = 0; rep < reps; ++rep) {
        source.stats().Reset();
        storage::FindShapesOptions options{storage::ShapeFinderMode::kExists,
                                           threads};
        options.frontier_stats = &stats;
        Timer timer;
        auto shapes = storage::FindShapes(source, options);
        const double ms = timer.ElapsedMillis();
        if (!shapes.ok() || *shapes != *oracle) {
          std::cerr << "frontier exists mismatch (arity=" << arity
                    << ", threads=" << threads << ")\n";
          return 1;
        }
        best_ms = rep == 0 ? ms : std::min(best_ms, ms);
        access = source.stats();
      }
      if (threads == 1) base_ms = best_ms;
      std::vector<std::string> row = {"exists", std::to_string(arity),
                                      std::to_string(threads),
                                      FmtMs(best_ms),
                                      Fmt(base_ms / std::max(best_ms, 1e-6), 1) +
                                          "x"};
      WorkerColumns(stats, best_ms, &row);
      for (const std::string& value :
           AccessColumnValues(access, source.Io())) {
        row.push_back(value);
      }
      table.AddRow(row);
    }
  }

  // -------------------------------------------------------------------
  // Stage 2: the dynamic-simplification worklist over linear TGDs.
  {
    DataGenParams params;
    params.preds = 50;
    params.min_arity = 1;
    params.max_arity = 5;
    params.dsize = 200;
    params.rsize = std::max<uint64_t>(
        1, static_cast<uint64_t>(10'000 * flags.scale) / params.preds);
    params.seed = rng.Next();
    auto data = GenerateData(params);
    if (!data.ok()) {
      std::cerr << data.status() << "\n";
      return 1;
    }
    TgdGenParams tgd_params;
    tgd_params.ssize = params.preds;
    tgd_params.min_arity = 1;
    tgd_params.max_arity = 5;
    tgd_params.tsize = static_cast<uint64_t>(2'000 * flags.scale);
    tgd_params.tclass = TgdClass::kLinear;
    tgd_params.seed = rng.Next();
    auto tgds = GenerateTgds(*data->schema, tgd_params);
    if (!tgds.ok()) {
      std::cerr << tgds.status() << "\n";
      return 1;
    }
    storage::Catalog catalog(data->database.get());
    storage::MemoryShapeSource source(&catalog);
    auto shapes =
        storage::FindShapes(source, {storage::ShapeFinderMode::kScan, 1});
    if (!shapes.ok()) {
      std::cerr << shapes.status() << "\n";
      return 1;
    }
    auto oracle = DynamicSimplificationFromShapes(*data->schema, *tgds,
                                                  *shapes, 1);
    if (!oracle.ok()) {
      std::cerr << oracle.status() << "\n";
      return 1;
    }

    double base_ms = 0;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      double best_ms = 0;
      FrontierStats stats;
      for (uint32_t rep = 0; rep < reps; ++rep) {
        Timer timer;
        auto result = DynamicSimplificationFromShapes(*data->schema, *tgds,
                                                      *shapes, threads);
        const double ms = timer.ElapsedMillis();
        if (!result.ok() || result->tgds != oracle->tgds) {
          std::cerr << "frontier simplify mismatch (threads=" << threads
                    << ")\n";
          return 1;
        }
        best_ms = rep == 0 ? ms : std::min(best_ms, ms);
        stats = result->frontier;
      }
      if (threads == 1) base_ms = best_ms;
      std::vector<std::string> row = {"simplify", "-",
                                      std::to_string(threads),
                                      FmtMs(best_ms),
                                      Fmt(base_ms / std::max(best_ms, 1e-6), 1) +
                                          "x"};
      WorkerColumns(stats, best_ms, &row);
      // The worklist reads shapes, not the database: uniform metering
      // columns are zero by construction here.
      for (const std::string& value :
           AccessColumnValues(storage::AccessStats(), storage::IoCounters())) {
        row.push_back(value);
      }
      table.AddRow(row);
    }
  }

  // -------------------------------------------------------------------
  // Stage 3: many shallow depths — a synthetic chain lattice of TWO items
  // per depth (a one-item frontier would take ParallelFor's inline fast
  // path and never touch the barrier), so each depth's expansion is two
  // trivial callbacks and the t-ms column is almost entirely inter-depth
  // machinery. With the persistent pool this is one thread spawn per run
  // plus a barrier cycle per depth; under the old per-depth respawn it was
  // `threads` spawns and joins per depth, dominating exactly this profile.
  {
    const uint64_t depths = std::max<uint64_t>(
        16, static_cast<uint64_t>(4'000 * flags.scale));
    double base_ms = 0;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      double best_ms = 0;
      FrontierStats stats;
      for (uint32_t rep = 0; rep < reps; ++rep) {
        using Pool = FrontierPool<uint64_t, uint64_t>;
        Pool pool({.threads = threads});
        uint64_t absorbed = 0;
        Timer timer;
        Status status = pool.Run(
            {0, 1},
            [&](unsigned, const uint64_t& item, uint64_t* out,
                Pool::Discoveries* discovered) -> Status {
              *out = item + 2;
              const uint64_t depth = item / 2;
              if (depth + 1 < depths) {
                discovered->Discover(2 * (depth + 1));
                discovered->Discover(2 * (depth + 1) + 1);
              }
              return OkStatus();
            },
            [&](std::span<const uint64_t> frontier,
                std::span<uint64_t>) -> Status {
              absorbed += frontier.size();
              return OkStatus();
            },
            &stats);
        const double ms = timer.ElapsedMillis();
        if (!status.ok() || absorbed != 2 * depths) {
          std::cerr << "shallow-depth chain mismatch (threads=" << threads
                    << ")\n";
          return 1;
        }
        best_ms = rep == 0 ? ms : std::min(best_ms, ms);
      }
      if (threads == 1) base_ms = best_ms;
      std::vector<std::string> row = {"shallow", "-",
                                      std::to_string(threads),
                                      FmtMs(best_ms),
                                      Fmt(base_ms / std::max(best_ms, 1e-6), 1) +
                                          "x"};
      WorkerColumns(stats, best_ms, &row);
      // Synthetic chain: no database access, metering columns are zero.
      for (const std::string& value :
           AccessColumnValues(storage::AccessStats(), storage::IoCounters())) {
        row.push_back(value);
      }
      table.AddRow(row);
    }
  }

  Emit(flags,
       "Ablation: frontier parallelism (EXISTS lattice walk on one giant "
       "predicate; dynamic-simplification worklist; shallow-depth barrier "
       "overhead)",
       table);
  if (!WriteBenchJson(flags, "frontier_parallel", table)) return 1;
  return 0;
}
