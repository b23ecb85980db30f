// Persisting a database on disk and keeping its shapes incrementally
// maintained — the workflow the paper's conclusion (Section 10) sketches for
// production deployments: the expensive db-dependent component (FindShapes)
// is paid once at load time and then amortized across updates, so every
// subsequent termination check is effectively database-independent.
//
//   $ ./persistent_store [path.db]

#include <cstdio>
#include <iostream>

#include "core/is_chase_finite.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "index/shape_index.h"
#include "pager/disk_database.h"
#include "pager/disk_shape_source.h"
#include "storage/shape_finder.h"

int main(int argc, char** argv) {
  using namespace chase;
  const std::string path = argc > 1 ? argv[1] : "/tmp/chase_example_store.db";

  // 1. Generate a shape-rich database and persist it.
  DataGenParams params;
  params.preds = 12;
  params.min_arity = 1;
  params.max_arity = 4;
  params.dsize = 5'000;
  params.rsize = 2'000;
  params.seed = 20230322;
  StatusOr<GeneratedData> data = GenerateData(params);
  if (!data.ok()) {
    std::cerr << data.status() << "\n";
    return 1;
  }
  auto created = pager::DiskDatabase::Create(path, *data->database);
  if (!created.ok()) {
    std::cerr << created.status() << "\n";
    return 1;
  }
  std::cout << "Persisted " << (*created)->TotalTuples() << " tuples over "
            << (*created)->schema().NumPredicates() << " relations to "
            << path << " (" << (*created)->disk().num_pages()
            << " pages).\n";
  created = StatusOr<std::unique_ptr<pager::DiskDatabase>>(
      InternalError("released"));  // close the writer before reopening

  // 2. Reopen and find the shapes straight off the disk, reporting I/O.
  auto store = pager::DiskDatabase::Open(path, /*num_frames=*/128);
  if (!store.ok()) {
    std::cerr << store.status() << "\n";
    return 1;
  }
  auto shapes = storage::FindShapes(pager::DiskShapeSource(store->get()));
  if (!shapes.ok()) {
    std::cerr << shapes.status() << "\n";
    return 1;
  }
  const auto& io = (*store)->disk().stats();
  const auto& pool = (*store)->buffer_pool().stats();
  std::cout << "FindShapes over the pager: " << shapes->size()
            << " shapes; " << io.pages_read << " pages read, "
            << pool.hits << " buffer hits / " << pool.misses
            << " misses.\n";

  // 3. Build the incremental shape index once off the pager, then stream
  // updates through it; the shape set stays current without rescanning.
  StatusOr<Database> loaded = (*store)->ToDatabase();
  if (!loaded.ok()) {
    std::cerr << loaded.status() << "\n";
    return 1;
  }
  auto built = index::ShapeIndex::Build(pager::DiskShapeSource(store->get()));
  if (!built.ok()) {
    std::cerr << built.status() << "\n";
    return 1;
  }
  index::ShapeIndex index = std::move(built).value();
  Rng rng(7);
  std::vector<uint32_t> tuple;
  size_t new_shapes = 0;
  for (int update = 0; update < 10'000; ++update) {
    const PredId pred =
        static_cast<PredId>(rng.Below(loaded->schema().NumPredicates()));
    GenerateShapedTuple(loaded->schema().Arity(pred), params.dsize, &rng,
                        &tuple);
    const Shape shape = ShapeOfTuple(pred, tuple);
    new_shapes += !index.Contains(shape);
    index.Insert(pred, tuple);
    if (Status status = (*store)->Append(pred, tuple); !status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
  }
  if (Status status = (*store)->SaveCatalog(); !status.ok()) {
    std::cerr << status << "\n";
    return 1;
  }
  std::cout << "Applied 10000 updates; the index tracked " << new_shapes
            << " first-seen shapes without any rescan; store now holds "
            << (*store)->TotalTuples() << " tuples.\n";

  // 4. Termination checks that read shape(D) from the index instead of
  // scanning: the db-dependent component costs nothing per check.
  TgdGenParams tgd_params;
  tgd_params.ssize = loaded->schema().NumPredicates();
  tgd_params.min_arity = 1;
  tgd_params.max_arity = 4;
  tgd_params.tsize = 200;
  tgd_params.tclass = TgdClass::kLinear;
  tgd_params.seed = 99;
  StatusOr<std::vector<Tgd>> tgds = GenerateTgds(loaded->schema(), tgd_params);
  if (!tgds.ok()) {
    std::cerr << tgds.status() << "\n";
    return 1;
  }
  const std::vector<Shape> shapes_snapshot = index.CurrentShapes();
  LCheckOptions check_options;
  check_options.precomputed_shapes = &shapes_snapshot;
  LCheckStats check_stats;
  StatusOr<bool> finite =
      IsChaseFiniteL(*loaded, *tgds, check_options, &check_stats);
  if (!finite.ok()) {
    std::cerr << finite.status() << "\n";
    return 1;
  }
  std::cout << "IsChaseFinite[L] with the materialized shape index ("
            << index.NumShapes() << " shapes, t-shapes = 0ms): chase "
            << (finite.value() ? "terminates" : "does not terminate")
            << "; db-independent components took "
            << check_stats.graph_ms + check_stats.comp_ms << " ms.\n";

  std::remove(path.c_str());
  return 0;
}
