// Differential harness for the frontier-parallel engines: "parallel must
// equal serial" is the whole correctness contract of the depth-synchronous
// FrontierPool, so every consumer is swept against its serial oracle on
// seeded random workloads —
//
//  * the EXISTS shape plan: {1, 2, 4, 8} threads x {memory, disk, index}
//    backends must return the bit-identical sorted shape(D) the serial
//    per-predicate lattice walk returns;
//  * dynamic simplification: every thread count must emit the bit-identical
//    canonical simplified-TGD list (same TGDs, same order, same interned
//    shape-schema predicates) and the same initial/derived shape counts;
//  * the chase engine's frontier-parallel trigger enumeration: instance,
//    null numbering, rounds, and trigger counts must match the serial run —
//    for linear rules and for every non-linear join family (triangle, star,
//    chain, cross-product), across the thread sweep and homomorphism
//    budgets down to 1, with the budgeted protocol's peak-buffer bound
//    (threads × hom_budget) asserted on every run.
//
// Plus the EXISTS-probe edge cases the frontier split exposes: empty
// relations, arity-1 predicates (trivial lattices), duplicate database
// shapes in the seed frontier, and more threads than frontier items.
//
// The checkpoint/restart protocol rides the same contract: a chase
// checkpointed at ANY round boundary and resumed must replay the
// uninterrupted run bit-for-bit — instance bytes, null ids, rounds,
// trigger counts, and the checkpoint file bytes themselves — at any
// thread count, for all three variants, with and without index
// write-through. The sweep at the bottom cuts at every round.
//
// Runs in both the normal and the ThreadSanitizer CI jobs, and standalone
// via `ctest -L frontier` (the resume sweep also under `-L checkpoint`).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "base/rng.h"
#include "chase/chase_engine.h"
#include "core/dynamic_simplification.h"
#include "exec/frontier_pool.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "index/find_shapes.h"
#include "index/sharded_shape_index.h"
#include "io/binary_io.h"
#include "logic/parser.h"
#include "pager/disk_database.h"
#include "pager/disk_shape_source.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

using storage::ShapeFinderMode;

constexpr unsigned kThreadSweep[] = {1, 2, 4, 8};

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

GeneratedData MakeRandomData(Rng* rng) {
  DataGenParams params;
  params.preds = 1 + static_cast<uint32_t>(rng->Below(6));
  params.min_arity = 1;
  params.max_arity = 1 + static_cast<uint32_t>(rng->Below(6));
  // Small domains force repeated constants, so coarse shapes actually occur
  // (64 is the generator's minimum).
  params.dsize = 64 + rng->Below(150);
  params.rsize = rng->Below(600);
  params.seed = rng->Next();
  auto data = GenerateData(params);
  EXPECT_TRUE(data.ok()) << data.status();
  return std::move(data).value();
}

std::vector<Tgd> MakeLinearTgds(const Schema& schema, uint64_t seed,
                                uint64_t count) {
  TgdGenParams params;
  params.ssize = schema.NumPredicates();
  params.min_arity = 1;
  params.max_arity = 8;
  params.tsize = count;
  params.tclass = TgdClass::kLinear;
  params.seed = seed;
  auto tgds = GenerateTgds(schema, params);
  EXPECT_TRUE(tgds.ok()) << tgds.status();
  return std::move(tgds).value();
}

// Bit-identical simplification results: same TGD list (contents and order),
// same interning sequence in the shape schema, same counters.
void ExpectIdenticalSimplification(const DynamicSimplificationResult& a,
                                   const DynamicSimplificationResult& b,
                                   const std::string& label) {
  EXPECT_EQ(a.tgds, b.tgds) << label;
  EXPECT_EQ(a.num_initial_shapes, b.num_initial_shapes) << label;
  EXPECT_EQ(a.num_derived_shapes, b.num_derived_shapes) << label;
  ASSERT_EQ(a.shape_schema->NumShapes(), b.shape_schema->NumShapes())
      << label;
  for (PredId pred = 0; pred < a.shape_schema->NumShapes(); ++pred) {
    EXPECT_EQ(a.shape_schema->ShapeOf(pred), b.shape_schema->ShapeOf(pred))
        << label << ", interned pred " << pred;
  }
}

TEST(FrontierEquivalenceTest, ExistsPlanMatchesSerialOracle) {
  Rng rng(20260729);
  for (int trial = 0; trial < 8; ++trial) {
    GeneratedData data = MakeRandomData(&rng);
    storage::Catalog catalog(data.database.get());
    storage::MemoryShapeSource memory(&catalog);
    // The serial oracle: the reference per-predicate lattice walk.
    auto oracle = index::FindShapes(memory, {ShapeFinderMode::kExists, 1});
    ASSERT_TRUE(oracle.ok()) << oracle.status();

    const std::string path =
        TempPath("chase_frontier_equiv_" + std::to_string(trial) + ".db");
    auto disk_db = pager::DiskDatabase::Create(path, *data.database,
                                               /*num_frames=*/16);
    ASSERT_TRUE(disk_db.ok()) << disk_db.status();
    pager::DiskShapeSource disk(disk_db->get());

    for (const storage::ShapeSource* source :
         {static_cast<const storage::ShapeSource*>(&memory),
          static_cast<const storage::ShapeSource*>(&disk)}) {
      for (ShapeFinderMode mode :
           {ShapeFinderMode::kExists, ShapeFinderMode::kIndex}) {
        for (unsigned threads : kThreadSweep) {
          FrontierStats stats;
          storage::FindShapesOptions options{mode, threads};
          options.frontier_stats = &stats;
          auto shapes = index::FindShapes(*source, options);
          ASSERT_TRUE(shapes.ok()) << shapes.status();
          EXPECT_EQ(*shapes, *oracle)
              << "trial " << trial << ", backend " << source->Name()
              << ", mode " << storage::ShapeFinderModeName(mode)
              << ", threads " << threads;
          if (mode == ShapeFinderMode::kExists && threads > 1) {
            // The frontier engine ran: its counters must reconcile.
            EXPECT_EQ(stats.worker_expanded.size(), threads);
            EXPECT_EQ(std::accumulate(stats.worker_expanded.begin(),
                                      stats.worker_expanded.end(),
                                      uint64_t{0}),
                      stats.items_expanded);
            EXPECT_EQ(stats.items_expanded,
                      stats.seeds_admitted + stats.items_discovered);
          }
        }
      }
    }
    std::remove(path.c_str());
  }
}

TEST(FrontierEquivalenceTest, DynamicSimplificationMatchesSerialOracle) {
  Rng rng(424243);
  for (int trial = 0; trial < 6; ++trial) {
    GeneratedData data = MakeRandomData(&rng);
    std::vector<Tgd> tgds =
        MakeLinearTgds(*data.schema, rng.Next(), 20 + rng.Below(40));
    storage::Catalog catalog(data.database.get());
    storage::MemoryShapeSource memory(&catalog);

    const std::string path = TempPath("chase_frontier_equiv_simp_" +
                                      std::to_string(trial) + ".db");
    auto disk_db = pager::DiskDatabase::Create(path, *data.database,
                                               /*num_frames=*/16);
    ASSERT_TRUE(disk_db.ok()) << disk_db.status();
    pager::DiskShapeSource disk(disk_db->get());

    // The serial oracle: serial shape finding + inline worklist.
    auto oracle_shapes = index::FindShapes(memory, {ShapeFinderMode::kExists, 1});
    ASSERT_TRUE(oracle_shapes.ok()) << oracle_shapes.status();
    auto oracle = DynamicSimplificationFromShapes(*data.schema, tgds,
                                                  *oracle_shapes, 1);
    ASSERT_TRUE(oracle.ok()) << oracle.status();

    for (const storage::ShapeSource* source :
         {static_cast<const storage::ShapeSource*>(&memory),
          static_cast<const storage::ShapeSource*>(&disk)}) {
      for (ShapeFinderMode mode :
           {ShapeFinderMode::kExists, ShapeFinderMode::kIndex}) {
        for (unsigned threads : kThreadSweep) {
          auto shapes = index::FindShapes(*source, {mode, threads});
          ASSERT_TRUE(shapes.ok()) << shapes.status();
          auto parallel = DynamicSimplificationFromShapes(*data.schema, tgds,
                                                          *shapes, threads);
          ASSERT_TRUE(parallel.ok()) << parallel.status();
          ExpectIdenticalSimplification(
              *oracle, *parallel,
              "trial " + std::to_string(trial) + ", backend " +
                  source->Name() + ", mode " +
                  storage::ShapeFinderModeName(mode) + ", threads " +
                  std::to_string(threads));
        }
      }
    }
    std::remove(path.c_str());
  }
}

TEST(FrontierEquivalenceTest, ParallelChaseEnumerationMatchesSerial) {
  Rng rng(777);
  for (int trial = 0; trial < 4; ++trial) {
    DataGenParams data_params;
    data_params.preds = 5;
    data_params.min_arity = 1;
    data_params.max_arity = 3;
    data_params.dsize = 64;
    data_params.rsize = 20;
    data_params.seed = rng.Next();
    auto data = GenerateData(data_params);
    ASSERT_TRUE(data.ok()) << data.status();
    std::vector<Tgd> tgds = MakeLinearTgds(*data->schema, rng.Next(), 12);

    for (ChaseVariant variant :
         {ChaseVariant::kSemiOblivious, ChaseVariant::kOblivious,
          ChaseVariant::kRestricted}) {
      ChaseOptions serial_options;
      serial_options.variant = variant;
      serial_options.max_atoms = 20'000;
      auto serial = RunChase(*data->database, tgds, serial_options);
      ASSERT_TRUE(serial.ok()) << serial.status();

      // The serial run never pre-filters (it checks and skips on the
      // serial path itself).
      EXPECT_EQ(serial->triggers_prefiltered, 0u);

      for (unsigned threads : kThreadSweep) {
        ChaseOptions parallel_options = serial_options;
        parallel_options.frontier_threads = threads;
        auto parallel = RunChase(*data->database, tgds, parallel_options);
        ASSERT_TRUE(parallel.ok()) << parallel.status();
        const std::string label =
            "trial " + std::to_string(trial) + ", variant " +
            ChaseVariantName(variant) + ", threads " +
            std::to_string(threads);
        EXPECT_EQ(parallel->outcome, serial->outcome) << label;
        EXPECT_EQ(parallel->rounds, serial->rounds) << label;
        EXPECT_EQ(parallel->triggers_fired, serial->triggers_fired) << label;
        // Bit-identical instances, null names included: collect in
        // insertion order.
        std::vector<GroundAtom> serial_atoms, parallel_atoms;
        serial->instance.ForEachAtom(
            [&](const GroundAtom& atom) { serial_atoms.push_back(atom); });
        parallel->instance.ForEachAtom(
            [&](const GroundAtom& atom) { parallel_atoms.push_back(atom); });
        EXPECT_EQ(parallel_atoms, serial_atoms) << label;
      }
    }
  }
}

TEST(FrontierEquivalenceTest, ParallelNonLinearChaseMatchesSerial) {
  // The non-linear sweep: every join family the body partitioner has to
  // split differently — triangle (cyclic join), star (one hot hub row
  // fanning out, the join-split case), chain (role composition), cross
  // (disconnected body, the pure cross-product that makes unbudgeted
  // buffering explode) — under all three variants, the full thread sweep,
  // and budgets down to 1 (every epoch moves each fragment by one
  // homomorphism, the maximal pause/resume stress). The contract is the
  // serial one bit-for-bit: outcome, rounds, trigger counts, null ids, and
  // the instance's insertion order. existential_percent > 0 puts
  // existential variables in multi-atom heads, so the restricted variant's
  // suffix re-check runs against real joins.
  Rng rng(20260808);
  const NonLinearFamily kFamilies[] = {
      NonLinearFamily::kTriangle, NonLinearFamily::kStar,
      NonLinearFamily::kChain, NonLinearFamily::kCross};
  for (NonLinearFamily family : kFamilies) {
    DataGenParams data_params;
    data_params.preds = 4;
    data_params.min_arity = 2;
    data_params.max_arity = 3;
    data_params.dsize = 64;
    data_params.rsize = 12;
    data_params.seed = rng.Next();
    auto data = GenerateData(data_params);
    ASSERT_TRUE(data.ok()) << data.status();

    NonLinearGenParams tgd_params;
    tgd_params.ssize = data->schema->NumPredicates();
    tgd_params.min_arity = 2;
    tgd_params.max_arity = 3;
    tgd_params.tsize = 5;
    tgd_params.family = family;
    tgd_params.body_atoms = family == NonLinearFamily::kTriangle ? 3 : 2;
    tgd_params.existential_percent = 25;
    tgd_params.seed = rng.Next();
    auto tgds = GenerateNonLinearTgds(*data->schema, tgd_params);
    ASSERT_TRUE(tgds.ok()) << tgds.status();

    for (ChaseVariant variant :
         {ChaseVariant::kSemiOblivious, ChaseVariant::kOblivious,
          ChaseVariant::kRestricted}) {
      ChaseOptions serial_options;
      serial_options.variant = variant;
      // Low enough that the oblivious variants hit the atom limit on the
      // fan-out families: the limit cut itself must land identically.
      serial_options.max_atoms = 1'500;
      auto serial = RunChase(*data->database, *tgds, serial_options);
      ASSERT_TRUE(serial.ok()) << serial.status();
      EXPECT_EQ(serial->peak_buffered_homs, 0u);  // serial never buffers

      std::vector<GroundAtom> serial_atoms;
      serial->instance.ForEachAtom(
          [&](const GroundAtom& atom) { serial_atoms.push_back(atom); });

      for (unsigned threads : kThreadSweep) {
        for (uint64_t budget : {uint64_t{1}, uint64_t{7}, uint64_t{4096}}) {
          ChaseOptions parallel_options = serial_options;
          parallel_options.frontier_threads = threads;
          parallel_options.hom_budget = budget;
          auto parallel = RunChase(*data->database, *tgds, parallel_options);
          ASSERT_TRUE(parallel.ok()) << parallel.status();
          const std::string label =
              std::string("family ") + NonLinearFamilyName(family) +
              ", variant " + ChaseVariantName(variant) + ", threads " +
              std::to_string(threads) + ", budget " + std::to_string(budget);
          EXPECT_EQ(parallel->outcome, serial->outcome) << label;
          EXPECT_EQ(parallel->rounds, serial->rounds) << label;
          EXPECT_EQ(parallel->triggers_fired, serial->triggers_fired)
              << label;
          // The protocol's memory bound, measured at the epoch barriers.
          EXPECT_LE(parallel->peak_buffered_homs,
                    uint64_t{threads} * budget)
              << label;
          if (threads > 1 && serial->triggers_fired > 0) {
            EXPECT_GT(parallel->peak_buffered_homs, 0u) << label;
          }
          std::vector<GroundAtom> parallel_atoms;
          parallel->instance.ForEachAtom([&](const GroundAtom& atom) {
            parallel_atoms.push_back(atom);
          });
          EXPECT_EQ(parallel_atoms, serial_atoms) << label;
        }
      }
    }
  }
}

TEST(FrontierEquivalenceTest, RestrictedPrefilterSkipsSatisfiedTriggers) {
  // A workload built so the restricted chase's satisfaction check matters:
  // the e-cycle rule is satisfied for every trigger (e(Y,Z) always has a
  // witness on a cycle), the f rule only for X=a. The parallel pre-filter
  // must skip exactly the triggers whose witness existed at round start —
  // here all four satisfied ones, a deterministic count because the
  // pre-filter reads only the frozen round-start prefix — while firing
  // decisions, null ids, and the instance stay bit-identical to serial.
  auto program = ParseProgram(R"(
    e(a,b). e(b,c). e(c,a). f(a).
    e(X,Y) -> e(Y,Z).
    e(X,Y) -> f(X).
  )");
  ASSERT_TRUE(program.ok()) << program.status();

  ChaseOptions serial_options;
  serial_options.variant = ChaseVariant::kRestricted;
  auto serial = RunChase(*program->database, program->tgds, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status();
  EXPECT_EQ(serial->outcome, ChaseOutcome::kFixpoint);
  EXPECT_EQ(serial->triggers_fired, 2u);  // f(b), f(c)
  EXPECT_EQ(serial->triggers_prefiltered, 0u);

  for (unsigned threads : {2u, 4u, 8u}) {
    ChaseOptions options = serial_options;
    options.frontier_threads = threads;
    auto parallel = RunChase(*program->database, program->tgds, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(parallel->outcome, serial->outcome) << threads;
    EXPECT_EQ(parallel->rounds, serial->rounds) << threads;
    EXPECT_EQ(parallel->triggers_fired, 2u) << threads;
    // 3 satisfied e-cycle triggers + the f(a) trigger, decided on the pool.
    EXPECT_EQ(parallel->triggers_prefiltered, 4u) << threads;
    std::vector<GroundAtom> serial_atoms, parallel_atoms;
    serial->instance.ForEachAtom(
        [&](const GroundAtom& atom) { serial_atoms.push_back(atom); });
    parallel->instance.ForEachAtom(
        [&](const GroundAtom& atom) { parallel_atoms.push_back(atom); });
    EXPECT_EQ(parallel_atoms, serial_atoms) << threads;
  }
}

TEST(FrontierEquivalenceTest, ExistsPlanThreadSweepMatchesSerialWalk) {
  // The frontier-parallel exists plan absorbs each depth per-chunk into
  // worker-private sets; that must never change shape(D). Sweep thread
  // counts, on a transient pool and on a caller-owned pool, against the
  // threads == 1 serial lattice walk.
  Rng rng(515151);
  for (int trial = 0; trial < 4; ++trial) {
    GeneratedData data = MakeRandomData(&rng);
    storage::Catalog catalog(data.database.get());
    storage::MemoryShapeSource memory(&catalog);
    auto oracle = index::FindShapes(memory, {ShapeFinderMode::kExists, 1});
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    for (unsigned threads : kThreadSweep) {
      WorkerPool shared(threads);
      for (WorkerPool* pool : {static_cast<WorkerPool*>(nullptr), &shared}) {
        storage::FindShapesOptions options{ShapeFinderMode::kExists,
                                           threads};
        options.pool = pool;
        auto shapes = index::FindShapes(memory, options);
        ASSERT_TRUE(shapes.ok()) << shapes.status();
        EXPECT_EQ(*shapes, *oracle)
            << "trial " << trial << ", threads " << threads
            << (pool != nullptr ? ", shared pool" : "");
      }
    }
  }
}

// --------------------------------------------------------------------------
// EXISTS-probe edge cases the frontier split exposes.

TEST(FrontierEquivalenceTest, EmptyRelationsNeverEnterTheFrontier) {
  // Two populated relations, one empty: the seed frontier must only hold
  // the non-empty ones (the catalog query filters), and the parallel plans
  // must agree with the serial oracle.
  auto program = ParseProgram("r(a,b). r(c,c). s(a). t(X,Y) -> r(X,Y).");
  ASSERT_TRUE(program.ok()) << program.status();
  storage::Catalog catalog(program->database.get());
  storage::MemoryShapeSource memory(&catalog);
  auto oracle = index::FindShapes(memory, {ShapeFinderMode::kExists, 1});
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  for (unsigned threads : kThreadSweep) {
    FrontierStats stats;
    storage::FindShapesOptions options{ShapeFinderMode::kExists, threads};
    options.frontier_stats = &stats;
    auto shapes = index::FindShapes(memory, options);
    ASSERT_TRUE(shapes.ok()) << shapes.status();
    EXPECT_EQ(*shapes, *oracle) << "threads " << threads;
    if (threads > 1) {
      EXPECT_EQ(stats.seeds_admitted, 2u);  // r and s; t is empty
    }
  }
}

TEST(FrontierEquivalenceTest, ArityOnePredicatesHaveTrivialLattices) {
  // An arity-1 lattice is a single node: one relaxed + one full probe, no
  // children, and the walk must terminate at depth 1.
  auto program = ParseProgram("p(a). p(b). q(c).");
  ASSERT_TRUE(program.ok()) << program.status();
  storage::Catalog catalog(program->database.get());
  storage::MemoryShapeSource memory(&catalog);
  auto oracle = index::FindShapes(memory, {ShapeFinderMode::kExists, 1});
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_EQ(oracle->size(), 2u);
  for (unsigned threads : {2u, 8u}) {
    FrontierStats stats;
    storage::FindShapesOptions options{ShapeFinderMode::kExists, threads};
    options.frontier_stats = &stats;
    auto shapes = index::FindShapes(memory, options);
    ASSERT_TRUE(shapes.ok()) << shapes.status();
    EXPECT_EQ(*shapes, *oracle);
    EXPECT_EQ(stats.depths, 1u);
    EXPECT_EQ(stats.items_expanded, 2u);
    EXPECT_EQ(stats.items_discovered, 0u);
  }
}

TEST(FrontierEquivalenceTest, DuplicateSeedShapesAreDeduplicated) {
  auto program = ParseProgram(R"(
    r(a,b). r(c,c).
    r(X,Y) -> s(X,Y).
    s(X,Y) -> r(Y,X).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  storage::Catalog catalog(program->database.get());
  storage::MemoryShapeSource memory(&catalog);
  auto shapes = index::FindShapes(memory, {ShapeFinderMode::kScan, 1});
  ASSERT_TRUE(shapes.ok()) << shapes.status();

  // Seed the worklist with every database shape three times over: the seen
  // filter must admit each exactly once, for any thread count.
  std::vector<Shape> duplicated;
  for (int copy = 0; copy < 3; ++copy) {
    duplicated.insert(duplicated.end(), shapes->begin(), shapes->end());
  }
  auto oracle = DynamicSimplificationFromShapes(
      *program->schema, program->tgds, *shapes, 1);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  for (unsigned threads : kThreadSweep) {
    auto result = DynamicSimplificationFromShapes(
        *program->schema, program->tgds, duplicated, threads);
    ASSERT_TRUE(result.ok()) << result.status();
    ExpectIdenticalSimplification(
        *oracle, *result, "duplicated seeds, threads " +
                              std::to_string(threads));
    EXPECT_EQ(result->num_initial_shapes, shapes->size());
  }
}

TEST(FrontierEquivalenceTest, MoreThreadsThanFrontierItems) {
  // One arity-2 predicate: the seed frontier is a single item, far fewer
  // than the workers. The pool must neither deadlock nor miss work, and
  // every thread count must agree.
  auto program = ParseProgram("r(a,b). r(a,a).");
  ASSERT_TRUE(program.ok()) << program.status();
  storage::Catalog catalog(program->database.get());
  storage::MemoryShapeSource memory(&catalog);
  auto oracle = index::FindShapes(memory, {ShapeFinderMode::kExists, 1});
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_EQ(oracle->size(), 2u);  // r_[1,2] and r_[1,1]
  FrontierStats stats;
  storage::FindShapesOptions options{ShapeFinderMode::kExists, 16};
  options.frontier_stats = &stats;
  auto shapes = index::FindShapes(memory, options);
  ASSERT_TRUE(shapes.ok()) << shapes.status();
  EXPECT_EQ(*shapes, *oracle);
  EXPECT_EQ(stats.worker_expanded.size(), 16u);
  EXPECT_EQ(stats.seeds_admitted, 1u);
  EXPECT_EQ(stats.items_expanded, 2u);  // [1,2] then its child [1,1]
  EXPECT_EQ(stats.depths, 2u);
}

// --------------------------------------------------------------------------
// Checkpoint/resume differential sweep: cut at every round boundary, resume,
// and demand the uninterrupted run bit-for-bit — across the thread sweep,
// all three variants, and both maintenance modes (plain memory instance,
// index write-through).

TEST(FrontierEquivalenceTest, CheckpointResumeSweepMatchesUninterruptedRun) {
  // Non-terminating under every variant: the successor rule always finds a
  // fresh null to extend (restricted included), and the transitive-closure
  // join keeps the multi-atom-body machinery engaged.
  auto program = ParseProgram(R"(
    e(a, b). e(b, c). f(a).
    e(X, Y) -> e(Y, Z).
    e(X, Y), e(Y, Z) -> e(X, Z).
    e(X, Y) -> f(X).
  )");
  ASSERT_TRUE(program.ok()) << program.status();
  constexpr uint64_t kRounds = 6;
  const std::string ck_path = TempPath("chase_frontier_equiv_resume.chck");

  for (ChaseVariant variant :
       {ChaseVariant::kOblivious, ChaseVariant::kSemiOblivious,
        ChaseVariant::kRestricted}) {
    // The uninterrupted oracle: serial, no index.
    ChaseOptions oracle_options;
    oracle_options.variant = variant;
    oracle_options.max_rounds = kRounds;
    auto oracle = RunChase(*program->database, program->tgds, oracle_options);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    ASSERT_EQ(oracle->outcome, ChaseOutcome::kRoundLimit);
    std::vector<GroundAtom> oracle_atoms;
    oracle->instance.ForEachAtom(
        [&](const GroundAtom& atom) { oracle_atoms.push_back(atom); });

    // The index write-through oracle: the shapes a straight run leaves.
    index::ShardedShapeIndex oracle_index =
        index::ShardedShapeIndex::Build(*program->database, /*shards=*/4);
    ChaseOptions oracle_index_options = oracle_options;
    oracle_index_options.shape_index = &oracle_index;
    ASSERT_TRUE(
        RunChase(*program->database, program->tgds, oracle_index_options)
            .ok());
    const std::vector<Shape> oracle_shapes = oracle_index.CurrentShapes();

    for (uint64_t cut = 1; cut < kRounds; ++cut) {
      // Canonical checkpoints: at a fixed thread count the file bytes are
      // identical whatever the backend; across thread counts every state
      // field matches and only the two per-thread-count diagnostic
      // counters may differ.
      std::optional<io::ChaseCheckpoint> canonical_state;
      std::vector<uint8_t> canonical_bytes;
      for (unsigned threads : {1u, 2u, 4u}) {
        canonical_bytes.clear();
        for (bool write_through : {false, true}) {
          const std::string label =
              std::string("variant ") + ChaseVariantName(variant) +
              ", cut " + std::to_string(cut) + ", threads " +
              std::to_string(threads) +
              (write_through ? ", index" : ", memory");

          ChaseOptions leg1_options;
          leg1_options.variant = variant;
          leg1_options.max_rounds = cut;
          leg1_options.frontier_threads = threads;
          leg1_options.checkpoint_path = ck_path;
          leg1_options.checkpoint_every_rounds = cut;
          index::ShardedShapeIndex leg1_index(4);
          if (write_through) {
            leg1_index = index::ShardedShapeIndex::Build(*program->database,
                                                         /*shards=*/4);
            leg1_options.shape_index = &leg1_index;
          }
          auto leg1 =
              RunChase(*program->database, program->tgds, leg1_options);
          ASSERT_TRUE(leg1.ok()) << label << ": " << leg1.status();
          ASSERT_EQ(leg1->outcome, ChaseOutcome::kRoundLimit) << label;

          std::ifstream in(ck_path, std::ios::binary);
          ASSERT_TRUE(in.good()) << label;
          std::vector<uint8_t> bytes(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>{});
          in.close();
          if (canonical_bytes.empty()) {
            canonical_bytes = bytes;
          } else {
            EXPECT_EQ(bytes, canonical_bytes) << label;
          }
          auto ckpt = io::DeserializeChaseCheckpoint(bytes);
          ASSERT_TRUE(ckpt.ok()) << label << ": " << ckpt.status();
          EXPECT_EQ(ckpt->rounds, cut) << label;
          if (!canonical_state.has_value()) {
            canonical_state = *ckpt;
          } else {
            EXPECT_EQ(ckpt->triggers_fired, canonical_state->triggers_fired)
                << label;
            EXPECT_EQ(ckpt->next_null, canonical_state->next_null) << label;
            EXPECT_EQ(ckpt->fired_keys, canonical_state->fired_keys)
                << label;
            ASSERT_EQ(ckpt->relations.size(),
                      canonical_state->relations.size())
                << label;
            for (size_t i = 0; i < ckpt->relations.size(); ++i) {
              EXPECT_EQ(ckpt->relations[i].atoms,
                        canonical_state->relations[i].atoms)
                  << label << ", relation " << i;
            }
          }

          ChaseOptions leg2_options;
          leg2_options.variant = variant;
          leg2_options.max_rounds = kRounds;
          leg2_options.frontier_threads = threads;
          leg2_options.resume = &*ckpt;
          index::ShardedShapeIndex leg2_index(4);
          if (write_through) {
            // The resume contract: the caller hands in an index reflecting
            // the checkpoint's instance, here replayed from leg 1's result.
            leg1->instance.ForEachAtom([&](const GroundAtom& atom) {
              leg2_index.Insert(atom.pred, atom.args);
            });
            leg2_options.shape_index = &leg2_index;
          }
          auto leg2 =
              RunChase(*program->database, program->tgds, leg2_options);
          ASSERT_TRUE(leg2.ok()) << label << ": " << leg2.status();
          EXPECT_EQ(leg2->outcome, oracle->outcome) << label;
          EXPECT_EQ(leg2->rounds, oracle->rounds) << label;
          EXPECT_EQ(leg2->triggers_fired, oracle->triggers_fired) << label;
          EXPECT_EQ(leg2->instance.NumNulls(), oracle->instance.NumNulls())
              << label;
          std::vector<GroundAtom> leg2_atoms;
          leg2->instance.ForEachAtom(
              [&](const GroundAtom& atom) { leg2_atoms.push_back(atom); });
          EXPECT_EQ(leg2_atoms, oracle_atoms) << label;
          if (write_through) {
            EXPECT_EQ(leg2_index.CurrentShapes(), oracle_shapes) << label;
          }
        }
      }
    }
  }
  std::remove(ck_path.c_str());
}

TEST(FrontierEquivalenceTest, MeteringTotalsAreThreadCountIndependent) {
  // The frontier split changes which worker issues which probe, never the
  // probe set: logical access totals must match the serial walk exactly.
  Rng rng(991);
  GeneratedData data = MakeRandomData(&rng);
  storage::Catalog catalog(data.database.get());
  storage::MemoryShapeSource memory(&catalog);
  ASSERT_TRUE(index::FindShapes(memory, {ShapeFinderMode::kExists, 1}).ok());
  const storage::AccessStats serial = memory.stats();
  for (unsigned threads : {2u, 8u}) {
    memory.stats().Reset();
    ASSERT_TRUE(index::FindShapes(memory, {ShapeFinderMode::kExists, threads}).ok());
    EXPECT_EQ(memory.stats().exists_queries, serial.exists_queries)
        << "threads " << threads;
    EXPECT_EQ(memory.stats().tuples_scanned, serial.tuples_scanned)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace chase
