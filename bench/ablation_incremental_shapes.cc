// Ablation: incrementally maintained shapes vs recomputation (§10).
//
// The paper's conclusion proposes materializing and incrementally updating
// shape(D) to remove the dominant db-dependent cost (t-shapes) from every
// termination check. This bench quantifies that proposal: starting from a
// database of n-tuples facts, it applies a batch of updates and compares
//
//   * recompute: in-memory FindShapes after the batch (what
//     IsChaseFinite[L] pays today per check), and
//   * incremental: per-update ShapeIndex maintenance (amortized cost paid
//     at write time; the check itself then reads the index for free).
//
// Expected shape of the result: recompute grows linearly with the database
// size while the incremental path depends only on the batch size, so the
// speedup grows without bound as the database grows.

#include <iostream>

#include "common.h"
#include "index/shape_index.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

using namespace chase;
using namespace chase::bench;

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  const uint32_t reps = flags.reps != 0 ? flags.reps : 3;
  const std::vector<uint64_t> sizes_base = {1'000, 10'000, 50'000, 100'000,
                                            250'000};
  const uint64_t updates = static_cast<uint64_t>(1'000 * flags.scale);

  Rng rng(flags.seed);
  TablePrinter table({"n-tuples", "n-updates", "n-shapes", "t-recompute-ms",
                      "t-incremental-ms", "speedup"});
  for (uint64_t base : sizes_base) {
    const uint64_t rsize =
        std::max<uint64_t>(1, static_cast<uint64_t>(base * flags.scale) / 20);
    double recompute_ms = 0, incremental_ms = 0;
    size_t n_shapes = 0;
    uint64_t n_tuples = 0;
    for (uint32_t rep = 0; rep < reps; ++rep) {
      DataGenParams params;
      params.preds = 20;
      params.min_arity = 1;
      params.max_arity = 5;
      params.dsize = 100'000;
      params.rsize = rsize;
      params.seed = rng.Next();
      auto data = GenerateData(params);
      if (!data.ok()) {
        std::cerr << data.status() << "\n";
        return 1;
      }
      Database& db = *data->database;
      n_tuples = db.TotalFacts();

      // Build the index once (write-time cost, amortized over the
      // database's lifetime, not charged to either side below).
      storage::Catalog catalog(&db);
      storage::MemoryShapeSource source(&catalog);
      index::ShapeIndex index = index::ShapeIndex::Build(source).value();

      // Apply the update batch to both the database and the index, timing
      // only the index maintenance.
      Timer timer;
      double batch_ms = 0;
      std::vector<uint32_t> tuple;
      for (uint64_t u = 0; u < updates; ++u) {
        const PredId pred =
            static_cast<PredId>(rng.Below(db.schema().NumPredicates()));
        GenerateShapedTuple(db.schema().Arity(pred), params.dsize, &rng,
                            &tuple);
        timer.Restart();
        index.Insert(pred, tuple);
        batch_ms += timer.ElapsedMillis();
        if (!db.AddFact(pred, tuple).ok()) return 1;
      }
      incremental_ms += batch_ms;

      // The recomputation path scans the (now larger) database.
      timer.Restart();
      std::vector<Shape> recomputed =
          std::move(storage::FindShapes(source, {})).value();
      recompute_ms += timer.ElapsedMillis();

      if (recomputed != index.CurrentShapes()) {
        std::cerr << "index/recompute mismatch\n";
        return 1;
      }
      n_shapes = recomputed.size();
    }
    recompute_ms /= reps;
    incremental_ms /= reps;
    table.AddRow({std::to_string(n_tuples), std::to_string(updates),
                  std::to_string(n_shapes), FmtMs(recompute_ms),
                  FmtMs(incremental_ms),
                  Fmt(recompute_ms / std::max(incremental_ms, 1e-6), 1) +
                      "x"});
  }
  Emit(flags, "Ablation (Section 10): incremental shape maintenance vs "
              "FindShapes recomputation",
       table);
  return 0;
}
