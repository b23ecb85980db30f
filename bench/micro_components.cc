// Google-benchmark microbenchmarks of the individual components: parser
// throughput, dependency-graph construction, Tarjan, shape hashing,
// FindShapes, dynamic simplification, and chase step rate.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>

#include "base/rng.h"
#include "chase/chase_engine.h"
#include "core/dynamic_simplification.h"
#include "core/is_chase_finite.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "graph/dependency_graph.h"
#include "graph/tarjan.h"
#include "index/shape_index.h"
#include "io/binary_io.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "pager/buffer_pool.h"
#include "pager/heap_file.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"
#include "storage/tuple_run.h"

namespace chase {
namespace {

struct Fixture {
  std::unique_ptr<Schema> schema;
  std::vector<Tgd> sl_tgds;
  std::vector<Tgd> l_tgds;
  std::unique_ptr<Database> database;
  std::string sl_text;

  static const Fixture& Get(size_t n_rules) {
    static auto* cache = new std::map<size_t, Fixture>();
    auto it = cache->find(n_rules);
    if (it != cache->end()) return it->second;
    Fixture f;
    Rng rng(7);
    f.schema = std::make_unique<Schema>();
    auto preds = DeclarePredicates(f.schema.get(), "p", 300, 1, 5, &rng);
    TgdGenParams params;
    params.ssize = 200;
    params.tsize = n_rules;
    params.tclass = TgdClass::kSimpleLinear;
    params.seed = 11;
    f.sl_tgds = GenerateTgds(*f.schema, params).value();
    params.tclass = TgdClass::kLinear;
    params.seed = 12;
    f.l_tgds = GenerateTgds(*f.schema, params).value();
    f.database = std::make_unique<Database>(f.schema.get());
    (void)PopulateRelations(f.database.get(), preds.value(), /*dsize=*/10000,
                            /*rsize=*/100, &rng);
    f.sl_text = TgdsToString(*f.schema, f.sl_tgds);
    return cache->emplace(n_rules, std::move(f)).first->second;
  }
};

void BM_ParseRules(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  for (auto _ : state) {
    auto program = ParseProgram(f.sl_text);
    benchmark::DoNotOptimize(program);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParseRules)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BuildDependencyGraph(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  for (auto _ : state) {
    DependencyGraph graph = BuildDependencyGraph(*f.schema, f.sl_tgds);
    benchmark::DoNotOptimize(graph.num_edges());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BuildDependencyGraph)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_TarjanSpecialSccs(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  DependencyGraph graph = BuildDependencyGraph(*f.schema, f.sl_tgds);
  for (auto _ : state) {
    auto special = FindSpecialSccs(graph.graph());
    benchmark::DoNotOptimize(special.components.size());
  }
}
BENCHMARK(BM_TarjanSpecialSccs)->Arg(10000)->Arg(100000);

void BM_ShapeOfTuple(benchmark::State& state) {
  Rng rng(5);
  std::vector<uint32_t> tuple;
  GenerateShapedTuple(5, 1000, &rng, &tuple);
  for (auto _ : state) {
    Shape shape = ShapeOfTuple(0, tuple);
    benchmark::DoNotOptimize(shape);
  }
}
BENCHMARK(BM_ShapeOfTuple);

void BM_FindShapesScan(benchmark::State& state) {
  const Fixture& f = Fixture::Get(10000);
  storage::Catalog catalog(f.database.get());
  storage::MemoryShapeSource source(&catalog);
  for (auto _ : state) {
    auto shapes =
        storage::FindShapes(source, {storage::ShapeFinderMode::kScan, 1});
    benchmark::DoNotOptimize(shapes->size());
  }
  state.SetItemsProcessed(state.iterations() * f.database->TotalFacts());
}
BENCHMARK(BM_FindShapesScan);

void BM_FindShapesExists(benchmark::State& state) {
  const Fixture& f = Fixture::Get(10000);
  storage::Catalog catalog(f.database.get());
  storage::MemoryShapeSource source(&catalog);
  for (auto _ : state) {
    auto shapes =
        storage::FindShapes(source, {storage::ShapeFinderMode::kExists, 1});
    benchmark::DoNotOptimize(shapes->size());
  }
}
BENCHMARK(BM_FindShapesExists);

void BM_DynamicSimplification(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  storage::Catalog catalog(f.database.get());
  storage::MemoryShapeSource source(&catalog);
  auto shapes = std::move(storage::FindShapes(source, {})).value();
  for (auto _ : state) {
    auto result =
        DynamicSimplificationFromShapes(*f.schema, f.l_tgds, shapes);
    benchmark::DoNotOptimize(result->tgds.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DynamicSimplification)->Arg(1000)->Arg(10000);

void BM_IsChaseFiniteSL(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  for (auto _ : state) {
    auto finite = IsChaseFiniteSL(*f.database, f.sl_tgds);
    benchmark::DoNotOptimize(finite);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_IsChaseFiniteSL)->Arg(10000)->Arg(100000);

void BM_ChaseStepRate(benchmark::State& state) {
  auto program = ParseProgram("e(a,b).\ne(X,Y) -> e(Y,Z).").value();
  ChaseOptions options;
  options.max_atoms = 10000;
  for (auto _ : state) {
    auto result = RunChase(*program.database, program.tgds, options);
    benchmark::DoNotOptimize(result->instance.NumAtoms());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_ChaseStepRate);

void BM_ShapeIndexInsert(benchmark::State& state) {
  const Fixture& f = Fixture::Get(1000);
  storage::Catalog catalog(f.database.get());
  index::ShapeIndex index =
      index::ShapeIndex::Build(storage::MemoryShapeSource(&catalog)).value();
  Rng rng(3);
  std::vector<uint32_t> tuple;
  const uint32_t num_preds =
      static_cast<uint32_t>(f.schema->NumPredicates());
  for (auto _ : state) {
    const PredId pred = static_cast<PredId>(rng.Below(num_preds));
    GenerateShapedTuple(f.schema->Arity(pred), 10000, &rng, &tuple);
    index.Insert(pred, tuple);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShapeIndexInsert);

void BM_SerializeProgram(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  for (auto _ : state) {
    auto bytes = io::SerializeProgram(*f.schema, *f.database, f.l_tgds);
    benchmark::DoNotOptimize(bytes.data());
    state.SetBytesProcessed(state.bytes_processed() +
                            static_cast<int64_t>(bytes.size()));
  }
}
BENCHMARK(BM_SerializeProgram)->Arg(1000)->Arg(10000);

void BM_DeserializeProgram(benchmark::State& state) {
  const Fixture& f = Fixture::Get(state.range(0));
  const auto bytes = io::SerializeProgram(*f.schema, *f.database, f.l_tgds);
  for (auto _ : state) {
    auto program = io::DeserializeProgram(bytes);
    benchmark::DoNotOptimize(program.ok());
    state.SetBytesProcessed(state.bytes_processed() +
                            static_cast<int64_t>(bytes.size()));
  }
}
BENCHMARK(BM_DeserializeProgram)->Arg(1000)->Arg(10000);

void BM_BufferPoolFetchHit(benchmark::State& state) {
  const std::string path = "/tmp/chase_micro_pool.db";
  auto manager = pager::DiskManager::Create(path).value();
  pager::BufferPool pool(&manager, 16);
  auto seed = pool.Allocate().value().page_id();
  for (auto _ : state) {
    auto guard = pool.Fetch(seed);
    benchmark::DoNotOptimize(guard->page());
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_BufferPoolFetchHit);

void BM_HeapFileScan(benchmark::State& state) {
  const std::string path = "/tmp/chase_micro_heap.db";
  auto manager = pager::DiskManager::Create(path).value();
  pager::BufferPool pool(&manager, 256);
  auto heap = pager::HeapFile::Create(&pool, 3).value();
  std::vector<uint32_t> tuple = {1, 2, 3};
  for (int i = 0; i < 100'000; ++i) {
    (void)heap.Append(tuple);
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    (void)heap.Scan([&](storage::TupleRun run) {
      for (size_t i = 0; i < run.rows(); ++i) sum += run.row(i)[0];
      return true;
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 100'000);
  std::remove(path.c_str());
}
BENCHMARK(BM_HeapFileScan);

}  // namespace
}  // namespace chase

BENCHMARK_MAIN();
