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
//  * the chase engine, which enumerates every round inline: at
//    frontier_threads 4 (an inert knob) it starts no worker pool and its
//    instance, null numbering, rounds, and trigger counts equal the
//    threads = 1 run's — for linear rules and for every non-linear join
//    family (triangle, star, chain, cross-product), under all three
//    variants.
//
// Plus the EXISTS-probe edge cases the frontier split exposes: empty
// relations, arity-1 predicates (trivial lattices), duplicate database
// shapes in the seed frontier, and more threads than frontier items.
//
// The checkpoint/restart protocol rides the same contract: a chase
// checkpointed at ANY round boundary and resumed must replay the
// uninterrupted run bit-for-bit — instance bytes, null ids, rounds, and
// trigger counts — for all three variants. The sweep at the bottom cuts
// at every round.
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
#include <sstream>
#include <string>
#include <vector>

#include "base/rng.h"
#include "chase/chase_engine.h"
#include "core/dynamic_simplification.h"
#include "exec/frontier_pool.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "io/binary_io.h"
#include "logic/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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
    auto oracle = storage::FindShapes(memory, {ShapeFinderMode::kExists, 1});
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
      for (unsigned threads : kThreadSweep) {
        FrontierStats stats;
        storage::FindShapesOptions options{ShapeFinderMode::kExists, threads};
        options.frontier_stats = &stats;
        auto shapes = storage::FindShapes(*source, options);
        ASSERT_TRUE(shapes.ok()) << shapes.status();
        EXPECT_EQ(*shapes, *oracle)
            << "trial " << trial << ", backend " << source->Name()
            << ", threads " << threads;
        if (threads > 1) {
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
    auto oracle_shapes = storage::FindShapes(memory, {ShapeFinderMode::kExists, 1});
    ASSERT_TRUE(oracle_shapes.ok()) << oracle_shapes.status();
    auto oracle = DynamicSimplificationFromShapes(*data.schema, tgds,
                                                  *oracle_shapes, 1);
    ASSERT_TRUE(oracle.ok()) << oracle.status();

    for (const storage::ShapeSource* source :
         {static_cast<const storage::ShapeSource*>(&memory),
          static_cast<const storage::ShapeSource*>(&disk)}) {
      for (ShapeFinderMode mode :
           {ShapeFinderMode::kScan, ShapeFinderMode::kExists}) {
        for (unsigned threads : kThreadSweep) {
          auto shapes = storage::FindShapes(*source, {mode, threads});
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

// The threads = 1 run of `tgds` over `database` under `variant`, against
// which a frontier_threads = 4 run is compared: with tracing and metrics
// on, it must emit no pool span and leave the pool.epochs counter as it
// was, and its outcome, rounds, trigger count, null count and atoms (in
// insertion order, null names included) must be the threads = 1 run's.
// Returns the threads = 1 result.
ChaseResult ExpectInlineAtFourThreads(const Database& database,
                                      const std::vector<Tgd>& tgds,
                                      ChaseOptions options,
                                      const std::string& label) {
  auto serial = RunChase(database, tgds, options);
  EXPECT_TRUE(serial.ok()) << label << ": " << serial.status();
  if (!serial.ok()) return ChaseResult(Instance(&database.schema()));
  EXPECT_EQ(serial->peak_buffered_homs, 0u) << label;

  obs::MetricsRegistry::Get().Reset();
  obs::MetricsRegistry::SetEnabled(true);
  obs::Counter* epochs = obs::MetricsRegistry::Get().GetCounter("pool.epochs");
  const uint64_t epochs_before = epochs->Value();
  obs::TraceRecorder::Get().Start(4096);
  options.frontier_threads = 4;
  auto four = RunChase(database, tgds, options);
  obs::TraceRecorder::Get().Stop();
  obs::MetricsRegistry::SetEnabled(false);
  EXPECT_TRUE(four.ok()) << label << ": " << four.status();
  if (!four.ok()) return std::move(serial).value();

  EXPECT_EQ(epochs->Value(), epochs_before) << label;
  EXPECT_EQ(obs::TraceRecorder::Get().dropped(), 0u) << label;
  std::ostringstream trace;
  obs::TraceRecorder::Get().WriteJson(trace);
  EXPECT_NE(trace.str().find("\"cat\": \"chase\""), std::string::npos)
      << label;
  EXPECT_EQ(trace.str().find("\"cat\": \"pool\""), std::string::npos)
      << label;
  EXPECT_EQ(four->peak_buffered_homs, 0u) << label;
  EXPECT_EQ(four->outcome, serial->outcome) << label;
  EXPECT_EQ(four->rounds, serial->rounds) << label;
  EXPECT_EQ(four->triggers_fired, serial->triggers_fired) << label;
  EXPECT_EQ(four->instance.NumNulls(), serial->instance.NumNulls()) << label;
  std::vector<GroundAtom> serial_atoms, four_atoms;
  serial->instance.ForEachAtom(
      [&](const GroundAtom& atom) { serial_atoms.push_back(atom); });
  four->instance.ForEachAtom(
      [&](const GroundAtom& atom) { four_atoms.push_back(atom); });
  EXPECT_EQ(four_atoms, serial_atoms) << label;
  return std::move(serial).value();
}

constexpr ChaseVariant kVariants[] = {ChaseVariant::kSemiOblivious,
                                      ChaseVariant::kOblivious,
                                      ChaseVariant::kRestricted};

TEST(FrontierEquivalenceTest, EveryChaseEnumeratesInline) {
  // One-, two- and three-atom bodies, under every variant: frontier_threads
  // is inert, so a run asking for 4 threads is the threads = 1 run.
  const std::string linear = R"(
    e(a,b). e(b,c). e(c,d). e(d,a). p(a,b,c).
    e(X,Y) -> e(Y,Z).
    e(X,Y) -> p(X,Y,Z).
    p(X,Y,Z) -> q(Z,X).
    q(X,Y) -> e(X,Y).
  )";
  const std::string joined = linear + "e(X,Y), e(Y,Z) -> f(X,Z).\n";
  const std::string triangle =
      joined + "e(X,Y), e(Y,Z), e(Z,X) -> t(X,W).\n";
  for (const std::string* text : {&linear, &joined, &triangle}) {
    auto program = ParseProgram(*text);
    ASSERT_TRUE(program.ok()) << program.status();
    for (ChaseVariant variant : kVariants) {
      ChaseOptions options;
      options.variant = variant;
      options.max_rounds = 6;
      options.max_atoms = 5'000;
      const std::string label =
          std::string(text == &linear    ? "linear"
                      : text == &joined ? "two-atom body"
                                        : "three-atom body") +
          ", variant " + ChaseVariantName(variant);
      const ChaseResult serial = ExpectInlineAtFourThreads(
          *program->database, program->tgds, options, label);
      EXPECT_GT(serial.triggers_fired, 0u) << label;
    }
  }
}

TEST(FrontierEquivalenceTest, GeneratedChasesEnumerateInline) {
  // Generated linear rules, and every non-linear join family — triangle
  // (cyclic join), star (one hub row fanning out), chain (role
  // composition), cross (disconnected body, a pure cross-product) — with
  // existential variables in multi-atom heads, so the restricted variant's
  // head check runs against real joins. A chase that reaches its fixpoint
  // must be a model of its rules.
  Rng rng(20260808);
  // Runs whose joins look rows up across several rounds, so the row index
  // is extended at the top of more than one round.
  size_t multi_round_lookups = 0;
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
    const std::vector<Tgd> tgds =
        MakeLinearTgds(*data->schema, rng.Next(), 12);
    for (ChaseVariant variant : kVariants) {
      ChaseOptions options;
      options.variant = variant;
      options.max_atoms = 20'000;
      const std::string label = "linear trial " + std::to_string(trial) +
                                ", variant " + ChaseVariantName(variant);
      const ChaseResult serial =
          ExpectInlineAtFourThreads(*data->database, tgds, options, label);
      if (serial.outcome == ChaseOutcome::kFixpoint) {
        EXPECT_TRUE(Satisfies(serial.instance, tgds)) << label;
      }
    }
  }
  for (NonLinearFamily family :
       {NonLinearFamily::kTriangle, NonLinearFamily::kStar,
        NonLinearFamily::kChain, NonLinearFamily::kCross}) {
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
    for (ChaseVariant variant : kVariants) {
      ChaseOptions options;
      options.variant = variant;
      // Low enough that the oblivious variants hit the atom limit on the
      // fan-out families.
      options.max_atoms = 1'500;
      const std::string label = std::string("family ") +
                                NonLinearFamilyName(family) + ", variant " +
                                ChaseVariantName(variant);
      const ChaseResult serial =
          ExpectInlineAtFourThreads(*data->database, *tgds, options, label);
      if (serial.outcome == ChaseOutcome::kFixpoint) {
        EXPECT_TRUE(Satisfies(serial.instance, *tgds)) << label;
      }
      if (family != NonLinearFamily::kCross && serial.rounds > 2) {
        ++multi_round_lookups;
      }
    }
  }
  EXPECT_GT(multi_round_lookups, 0u);
}

TEST(FrontierEquivalenceTest, RestrictedChaseSeesASameRoundWitness) {
  // The restricted chase fires each trigger as it is matched, so a head
  // satisfied only by an atom fired earlier in the same round is seen. In
  // round 1 the t rule has two triggers with frontier Y=b: the first fires
  // t(b,_), the second's head is satisfied by that same-round atom alone,
  // so it does not fire. Its Y=c trigger is satisfied by the seed fact
  // t(c,d), and in round 2 the v rule's X=a trigger by v(a,_) from round 1.
  auto program = ParseProgram(R"(
    r(a,b). r(c,b). r(a,c). s(b). s(c). t(c,d).
    r(X,Y), s(Y) -> t(Y,Z).
    t(Y,Z), r(X,Y) -> v(X,W).
  )");
  ASSERT_TRUE(program.ok()) << program.status();

  ChaseOptions options;
  options.variant = ChaseVariant::kRestricted;
  auto result = RunChase(*program->database, program->tgds, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->outcome, ChaseOutcome::kFixpoint);
  // t(b,_), then v(a,_) in round 1; v(c,_) in round 2.
  EXPECT_EQ(result->triggers_fired, 3u);
  EXPECT_EQ(result->instance.NumNulls(), 3u);
  EXPECT_TRUE(Satisfies(result->instance, program->tgds));
}

TEST(FrontierEquivalenceTest, ExistsPlanThreadSweepMatchesSerialWalk) {
  // The frontier-parallel exists plan absorbs each depth per-chunk into
  // worker-private sets; that must never change shape(D). Sweep thread
  // counts against the threads == 1 serial lattice walk.
  Rng rng(515151);
  for (int trial = 0; trial < 4; ++trial) {
    GeneratedData data = MakeRandomData(&rng);
    storage::Catalog catalog(data.database.get());
    storage::MemoryShapeSource memory(&catalog);
    auto oracle = storage::FindShapes(memory, {ShapeFinderMode::kExists, 1});
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    for (unsigned threads : kThreadSweep) {
      auto shapes =
          storage::FindShapes(memory, {ShapeFinderMode::kExists, threads});
      ASSERT_TRUE(shapes.ok()) << shapes.status();
      EXPECT_EQ(*shapes, *oracle)
          << "trial " << trial << ", threads " << threads;
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
  auto oracle = storage::FindShapes(memory, {ShapeFinderMode::kExists, 1});
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  for (unsigned threads : kThreadSweep) {
    FrontierStats stats;
    storage::FindShapesOptions options{ShapeFinderMode::kExists, threads};
    options.frontier_stats = &stats;
    auto shapes = storage::FindShapes(memory, options);
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
  auto oracle = storage::FindShapes(memory, {ShapeFinderMode::kExists, 1});
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_EQ(oracle->size(), 2u);
  for (unsigned threads : {2u, 8u}) {
    FrontierStats stats;
    storage::FindShapesOptions options{ShapeFinderMode::kExists, threads};
    options.frontier_stats = &stats;
    auto shapes = storage::FindShapes(memory, options);
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
  auto shapes = storage::FindShapes(memory, {ShapeFinderMode::kScan, 1});
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
  auto oracle = storage::FindShapes(memory, {ShapeFinderMode::kExists, 1});
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_EQ(oracle->size(), 2u);  // r_[1,2] and r_[1,1]
  FrontierStats stats;
  storage::FindShapesOptions options{ShapeFinderMode::kExists, 16};
  options.frontier_stats = &stats;
  auto shapes = storage::FindShapes(memory, options);
  ASSERT_TRUE(shapes.ok()) << shapes.status();
  EXPECT_EQ(*shapes, *oracle);
  EXPECT_EQ(stats.worker_expanded.size(), 16u);
  EXPECT_EQ(stats.seeds_admitted, 1u);
  EXPECT_EQ(stats.items_expanded, 2u);  // [1,2] then its child [1,1]
  EXPECT_EQ(stats.depths, 2u);
}

// --------------------------------------------------------------------------
// Checkpoint/resume differential sweep: cut at every round boundary, resume,
// and demand the uninterrupted run bit-for-bit — for all three variants.

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
    // The uninterrupted oracle.
    ChaseOptions oracle_options;
    oracle_options.variant = variant;
    oracle_options.max_rounds = kRounds;
    auto oracle = RunChase(*program->database, program->tgds, oracle_options);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    ASSERT_EQ(oracle->outcome, ChaseOutcome::kRoundLimit);
    std::vector<GroundAtom> oracle_atoms;
    oracle->instance.ForEachAtom(
        [&](const GroundAtom& atom) { oracle_atoms.push_back(atom); });

    for (uint64_t cut = 1; cut < kRounds; ++cut) {
      const std::string label = std::string("variant ") +
                                ChaseVariantName(variant) + ", cut " +
                                std::to_string(cut);

      ChaseOptions leg1_options;
      leg1_options.variant = variant;
      leg1_options.max_rounds = cut;
      leg1_options.checkpoint_path = ck_path;
      leg1_options.checkpoint_every_rounds = cut;
      auto leg1 = RunChase(*program->database, program->tgds, leg1_options);
      ASSERT_TRUE(leg1.ok()) << label << ": " << leg1.status();
      ASSERT_EQ(leg1->outcome, ChaseOutcome::kRoundLimit) << label;

      std::ifstream in(ck_path, std::ios::binary);
      ASSERT_TRUE(in.good()) << label;
      std::vector<uint8_t> bytes(std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>{});
      in.close();
      auto ckpt = io::DeserializeChaseCheckpoint(bytes);
      ASSERT_TRUE(ckpt.ok()) << label << ": " << ckpt.status();
      EXPECT_EQ(ckpt->rounds, cut) << label;

      ChaseOptions leg2_options;
      leg2_options.variant = variant;
      leg2_options.max_rounds = kRounds;
      leg2_options.resume = &*ckpt;
      auto leg2 = RunChase(*program->database, program->tgds, leg2_options);
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
  ASSERT_TRUE(storage::FindShapes(memory, {ShapeFinderMode::kExists, 1}).ok());
  const storage::AccessStats serial = memory.stats();
  for (unsigned threads : {2u, 8u}) {
    memory.stats().Reset();
    ASSERT_TRUE(storage::FindShapes(memory, {ShapeFinderMode::kExists, threads}).ok());
    EXPECT_EQ(memory.stats().exists_queries, serial.exists_queries)
        << "threads " << threads;
    EXPECT_EQ(memory.stats().tuples_scanned, serial.tuples_scanned)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace chase
