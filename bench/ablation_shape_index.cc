// Ablation: the shape index (src/index/) — build scaling and
// maintain-vs-rebuild.
//
// Two tables, with the uniform access/I-O metering columns of the other
// FindShapes benches:
//
//  * build scaling: ShapeIndex::Build over the in-memory source, sweeping
//    threads; speedup is against the 1-thread build. Workers fold
//    thread-local counters into the index once each, so this shows the
//    range-partitioned scan scaling carried over to index construction.
//
//  * maintain vs rebuild: after a batch of updates, compare per-update
//    write-through maintenance (timed across `threads` concurrent writers
//    sharing the index's one latch) against recomputing shape(D) with a
//    parallel scan. The incremental path depends only on the batch size,
//    the rebuild on the database size, so the speedup grows with the data.

#include <iostream>
#include <thread>

#include "common.h"
#include "index/shape_index.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

using namespace chase;
using namespace chase::bench;

namespace {

StatusOr<GeneratedData> MakeDatabase(uint64_t rsize, uint64_t seed) {
  DataGenParams params;
  params.preds = 40;
  params.min_arity = 1;
  params.max_arity = 5;
  params.dsize = 1'000'000;
  params.rsize = rsize;
  params.seed = seed;
  return GenerateData(params);
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  const uint32_t reps = flags.reps != 0 ? flags.reps : 3;
  Rng rng(flags.seed);

  // -------------------------------------------------------------------------
  // Build scaling.
  auto data = MakeDatabase(static_cast<uint64_t>(25'000 * flags.scale),
                           rng.Next());
  if (!data.ok()) {
    std::cerr << data.status() << "\n";
    return 1;
  }
  storage::Catalog catalog(data->database.get());
  storage::MemoryShapeSource source(&catalog);

  std::vector<std::string> build_columns = {"threads", "n-tuples",
                                            "n-shapes", "t-build-ms",
                                            "speedup"};
  for (const std::string& name : AccessColumnNames()) {
    build_columns.push_back(name);
  }
  TablePrinter build_table(build_columns);
  double serial_ms = 0;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    double best_ms = 0;
    size_t n_shapes = 0;
    for (uint32_t rep = 0; rep < reps; ++rep) {
      catalog.stats().Reset();
      Timer timer;
      auto built = index::ShapeIndex::Build(source, threads);
      const double ms = timer.ElapsedMillis();
      if (!built.ok()) {
        std::cerr << built.status() << "\n";
        return 1;
      }
      n_shapes = built->NumShapes();
      best_ms = rep == 0 ? ms : std::min(best_ms, ms);
    }
    if (threads == 1) serial_ms = best_ms;
    std::vector<std::string> row = {
        std::to_string(threads), std::to_string(data->database->TotalFacts()),
        std::to_string(n_shapes), FmtMs(best_ms),
        Fmt(serial_ms / std::max(best_ms, 1e-6), 1) + "x"};
    for (const std::string& value :
         AccessColumnValues(catalog.stats(), source.Io())) {
      row.push_back(value);
    }
    build_table.AddRow(row);
  }
  Emit(flags, "Ablation: shape index build (thread sweep)", build_table);

  // -------------------------------------------------------------------------
  // Maintain vs rebuild.
  const uint64_t updates = static_cast<uint64_t>(4'000 * flags.scale);
  std::vector<std::string> maint_columns = {"n-tuples", "n-updates",
                                            "threads", "t-maintain-ms",
                                            "t-rebuild-ms", "speedup"};
  TablePrinter maint_table(maint_columns);
  for (uint64_t base : {10'000, 50'000, 250'000}) {
    const uint64_t rsize =
        std::max<uint64_t>(1, static_cast<uint64_t>(base * flags.scale) / 40);
    const uint64_t base_seed = rng.Next();
    uint64_t n_tuples = 0;

    for (unsigned threads : {1u, 4u}) {
      double maintain_ms = 0, rebuild_ms = 0;
      for (uint32_t rep = 0; rep < reps; ++rep) {
        // Fresh database per rep (same seed, so identical data): the batch
        // below mutates it, and rebuild cost must be measured at a fixed
        // size for rows to be comparable.
        auto grown = MakeDatabase(rsize, base_seed);
        if (!grown.ok()) {
          std::cerr << grown.status() << "\n";
          return 1;
        }
        Database& db = *grown->database;
        const Schema& schema = db.schema();
        n_tuples = db.TotalFacts();
        storage::Catalog catalog(&db);
        index::ShapeIndex index =
            index::ShapeIndex::Build(storage::MemoryShapeSource(&catalog))
                .value();

        // Pre-generate the update batch, dealt round-robin to writers.
        std::vector<std::pair<PredId, std::vector<uint32_t>>> batch;
        batch.reserve(updates);
        std::vector<uint32_t> tuple;
        for (uint64_t u = 0; u < updates; ++u) {
          const PredId pred =
              static_cast<PredId>(rng.Below(schema.NumPredicates()));
          GenerateShapedTuple(schema.Arity(pred), 1'000'000, &rng, &tuple);
          batch.emplace_back(pred, tuple);
        }

        Timer timer;
        if (threads <= 1) {
          for (const auto& [pred, t] : batch) index.Insert(pred, t);
        } else {
          std::vector<std::thread> workers;
          workers.reserve(threads);
          for (unsigned w = 0; w < threads; ++w) {
            workers.emplace_back([&, w] {
              for (size_t i = w; i < batch.size(); i += threads) {
                index.Insert(batch[i].first, batch[i].second);
              }
            });
          }
          for (std::thread& worker : workers) worker.join();
        }
        maintain_ms += timer.ElapsedMillis();

        // The rebuild path pays a full parallel scan of the grown database.
        for (const auto& [pred, t] : batch) {
          if (!db.AddFact(pred, t).ok()) return 1;
        }
        storage::Catalog grown_catalog(&db);
        storage::MemoryShapeSource grown_source(&grown_catalog);
        timer.Restart();
        auto rebuilt = index::ShapeIndex::Build(grown_source, threads);
        rebuild_ms += timer.ElapsedMillis();
        if (!rebuilt.ok()) {
          std::cerr << rebuilt.status() << "\n";
          return 1;
        }
        if (rebuilt->CurrentShapes() != index.CurrentShapes()) {
          std::cerr << "maintain/rebuild mismatch\n";
          return 1;
        }
      }
      maintain_ms /= reps;
      rebuild_ms /= reps;
      maint_table.AddRow(
          {std::to_string(n_tuples), std::to_string(updates),
           std::to_string(threads), FmtMs(maintain_ms), FmtMs(rebuild_ms),
           Fmt(rebuild_ms / std::max(maintain_ms, 1e-6), 1) + "x"});
    }
  }
  Emit(flags,
       "Ablation: write-through maintenance vs parallel index rebuild",
       maint_table);
  // Two tables, one artifact: {"build": [...], "maintain": [...]} — two
  // plain WriteBenchJson calls would fight over a single --json-out path.
  if (!WriteBenchJsonSections(flags, "shape_index",
                              {{"build", &build_table},
                               {"maintain", &maint_table}})) {
    return 1;
  }
  return 0;
}
