// Stress suite for the frontier-expansion engine, written to run under
// ThreadSanitizer (the CHASE_TSAN CI job builds and runs it): the striped
// seen-set, the per-worker discovery lists, the per-item output slots, and
// the depth barrier are all exercised with more workers than cores and
// duplicate-heavy discovery streams, on the three adversarial lattice
// profiles the engine exists for — a wide shallow frontier, a narrow deep
// one, and one giant predicate whose lattice must spread across the pool.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "exec/frontier_pool.h"
#include "base/padded.h"
#include "base/rng.h"
#include "gen/data_generator.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_lattice.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

using storage::FindShapes;
using storage::ShapeFinderMode;

// A synthetic lattice: item i < kLeafFloor discovers 2i+1 and 2i+2 (a
// binary tree, so deeper items are discovered from exactly one parent),
// and every item emits its own value. The absorb sequence of a serial run
// is the canonical reference.
struct TreeRun {
  std::vector<uint64_t> absorbed;  // concatenated per-depth frontiers
  std::vector<size_t> depth_sizes;
  FrontierStats stats;
};

TreeRun RunTree(unsigned threads, uint64_t leaf_floor,
                std::vector<uint64_t> seeds) {
  TreeRun run;
  FrontierPool<uint64_t, uint64_t> pool({.threads = threads});
  using Pool = FrontierPool<uint64_t, uint64_t>;
  Status status = pool.Run(
      std::move(seeds),
      [&](unsigned /*worker*/, const uint64_t& item, uint64_t* out,
          Pool::Discoveries* discovered) -> Status {
        *out = item * 3 + 1;
        if (item < leaf_floor) {
          discovered->Discover(2 * item + 1);
          discovered->Discover(2 * item + 2);
        }
        return OkStatus();
      },
      [&](std::span<const uint64_t> frontier,
          std::span<uint64_t> outs) -> Status {
        run.depth_sizes.push_back(frontier.size());
        for (size_t i = 0; i < frontier.size(); ++i) {
          EXPECT_EQ(outs[i], frontier[i] * 3 + 1);
          run.absorbed.push_back(frontier[i]);
        }
        return OkStatus();
      },
      &run.stats);
  EXPECT_TRUE(status.ok()) << status;
  return run;
}

TEST(FrontierPoolTest, ParallelTreeWalkMatchesSerial) {
  const TreeRun serial = RunTree(1, 1 << 12, {0});
  for (unsigned threads : {2u, 4u, 8u, 16u}) {
    const TreeRun parallel = RunTree(threads, 1 << 12, {0});
    EXPECT_EQ(parallel.absorbed, serial.absorbed) << threads << " threads";
    EXPECT_EQ(parallel.depth_sizes, serial.depth_sizes);
    EXPECT_EQ(parallel.stats.depths, serial.stats.depths);
    EXPECT_EQ(parallel.stats.items_expanded, serial.stats.items_expanded);
    EXPECT_EQ(parallel.stats.max_frontier, serial.stats.max_frontier);
    EXPECT_EQ(std::accumulate(parallel.stats.worker_expanded.begin(),
                              parallel.stats.worker_expanded.end(),
                              uint64_t{0}),
              parallel.stats.items_expanded);
  }
}

TEST(FrontierPoolTest, DuplicateDiscoveriesAdmitExactlyOnce) {
  // Every item discovers the SAME successor set from many parents: the
  // striped seen-set must admit each successor exactly once however the
  // concurrent inserts interleave.
  using Pool = FrontierPool<uint64_t, uint64_t>;
  for (unsigned threads : {1u, 8u}) {
    std::vector<uint64_t> seeds(64);
    std::iota(seeds.begin(), seeds.end(), uint64_t{1000});
    Pool pool({.threads = threads});
    std::atomic<uint64_t> expansions{0};
    FrontierStats stats;
    Status status = pool.Run(
        std::move(seeds),
        [&](unsigned, const uint64_t& item, uint64_t*,
            Pool::Discoveries* discovered) -> Status {
          expansions.fetch_add(1);
          if (item >= 1000) {
            for (uint64_t succ = 0; succ < 32; ++succ) {
              discovered->Discover(succ);  // everyone discovers [0, 32)
            }
          }
          return OkStatus();
        },
        [](std::span<const uint64_t>, std::span<uint64_t>) {
          return OkStatus();
        },
        &stats);
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_EQ(expansions.load(), 64u + 32u);
    EXPECT_EQ(stats.items_discovered, 32u);
    EXPECT_EQ(stats.depths, 2u);
  }
}

TEST(FrontierPoolTest, ExpansionErrorsAbortTheRunPromptly) {
  // The shared abort contract: after the first expansion errors, no
  // further expansion starts anywhere in the pool — healthy workers stop
  // claiming chunks and skip indices they were already dealt. Seed 0 is
  // poisoned (it sorts first, so the first dealt chunk hits it
  // immediately); every healthy expansion parks until the poison has
  // errored plus a grace period for the engine to trip the abort, so at
  // most a couple of expansions per worker can ever run (the poisoned one,
  // each worker's in-flight one, and — if the poisoned thread loses its
  // timeslice between returning the error and the engine's abort store —
  // one straggler per worker). The 2*threads bound is loose against that
  // scheduling window yet still 256x below the 4096-item frontier a
  // non-aborting engine would expand.
  using Pool = FrontierPool<uint64_t, uint64_t>;
  for (unsigned threads : {1u, 8u}) {
    std::vector<uint64_t> seeds(4096);
    std::iota(seeds.begin(), seeds.end(), uint64_t{0});
    Pool pool({.threads = threads});
    std::atomic<uint64_t> expansions{0};
    std::atomic<bool> error_returned{false};
    uint64_t absorbed = 0;
    FrontierStats stats;
    Status status = pool.Run(
        std::move(seeds),
        [&](unsigned, const uint64_t& item, uint64_t*,
            Pool::Discoveries*) -> Status {
          expansions.fetch_add(1);
          if (item == 0) {
            error_returned.store(true);
            return InternalError("poisoned item");
          }
          for (int spin = 0; spin < 10'000 && !error_returned.load();
               ++spin) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          return OkStatus();
        },
        [&](std::span<const uint64_t> frontier, std::span<uint64_t>) {
          absorbed += frontier.size();
          return OkStatus();
        },
        &stats);
    EXPECT_EQ(status.code(), StatusCode::kInternal) << threads;
    EXPECT_EQ(absorbed, 0u);  // the failing depth is never absorbed
    EXPECT_LE(expansions.load(), uint64_t{2} * threads);
    if (threads == 1) EXPECT_EQ(expansions.load(), 1u);
    // Stats are populated on the error path too, and count exactly the
    // expansions that ran — not the frontier items that were error-skipped.
    ASSERT_EQ(stats.worker_expanded.size(), threads);
    EXPECT_EQ(std::accumulate(stats.worker_expanded.begin(),
                              stats.worker_expanded.end(), uint64_t{0}),
              expansions.load());
    EXPECT_EQ(stats.items_expanded, expansions.load());
    EXPECT_EQ(stats.seeds_admitted, 4096u);
    EXPECT_EQ(stats.depths, 1u);
  }
}

TEST(FrontierPoolTest, BarrierReuseOverThousandsOfShallowDepths) {
  // A two-wide chain lattice: items {2d, 2d+1} at depth d, thousands of
  // depths. Two items per depth matter: a one-item frontier takes
  // ParallelFor's inline fast path, so only n >= 2 actually cycles the
  // persistent pool's generation barrier — which is the thing this test
  // stresses, once per depth, the profile the per-depth thread respawn
  // made pathological. The absorb sequence must still be exactly the
  // chain. Runs under the TSan CI job like the rest of this suite.
  constexpr uint64_t kDepths = 3000;
  for (unsigned threads : {2u, 8u}) {
    using Pool = FrontierPool<uint64_t, uint64_t>;
    Pool pool({.threads = threads});
    std::vector<uint64_t> absorbed;
    FrontierStats stats;
    Status status = pool.Run(
        {0, 1},
        [&](unsigned, const uint64_t& item, uint64_t* out,
            Pool::Discoveries* discovered) -> Status {
          *out = item + 2;
          const uint64_t depth = item / 2;
          if (depth + 1 < kDepths) {
            discovered->Discover(2 * (depth + 1));
            discovered->Discover(2 * (depth + 1) + 1);
          }
          return OkStatus();
        },
        [&](std::span<const uint64_t> frontier,
            std::span<uint64_t> outs) -> Status {
          EXPECT_EQ(frontier.size(), 2u);
          for (size_t i = 0; i < frontier.size(); ++i) {
            EXPECT_EQ(outs[i], frontier[i] + 2);
            absorbed.push_back(frontier[i]);
          }
          return OkStatus();
        },
        &stats);
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_EQ(stats.depths, kDepths);
    EXPECT_EQ(stats.max_frontier, 2u);
    ASSERT_EQ(absorbed.size(), 2 * kDepths);
    for (uint64_t i = 0; i < 2 * kDepths; ++i) {
      ASSERT_EQ(absorbed[i], i);
    }
  }
}

TEST(FrontierPoolTest, ParallelAbsorbMatchesSerialAbsorb) {
  // The opt-in associative absorb: per-chunk calls on the pool, worker-
  // private accumulators, one merge at the end — the totals must match the
  // serial-absorb reference at every thread count (the per-chunk splits
  // are deterministic, the call order is not; the accumulation is
  // commutative, so the merged result is).
  const TreeRun serial = RunTree(1, 1 << 12, {0});
  uint64_t serial_sum = 0;
  for (uint64_t item : serial.absorbed) serial_sum += item * 3 + 1;
  for (unsigned threads : {1u, 2u, 8u}) {
    using Pool = FrontierPool<uint64_t, uint64_t>;
    Pool pool({.threads = threads});
    std::vector<PaddedU64> worker_sum(threads);
    std::vector<PaddedU64> worker_items(threads);
    std::atomic<uint64_t> out_mismatches{0};
    FrontierStats stats;
    Status status = pool.RunParallelAbsorb(
        {0},
        [&](unsigned /*worker*/, const uint64_t& item, uint64_t* out,
            Pool::Discoveries* discovered) -> Status {
          *out = item * 3 + 1;
          if (item < (1 << 12)) {
            discovered->Discover(2 * item + 1);
            discovered->Discover(2 * item + 2);
          }
          return OkStatus();
        },
        [&](unsigned worker, std::span<const uint64_t> frontier,
            std::span<uint64_t> outs) -> Status {
          for (size_t i = 0; i < frontier.size(); ++i) {
            if (outs[i] != frontier[i] * 3 + 1) out_mismatches.fetch_add(1);
            worker_sum[worker].value += outs[i];
            ++worker_items[worker].value;
          }
          return OkStatus();
        },
        &stats);
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_EQ(out_mismatches.load(), 0u);
    uint64_t total_sum = 0, total_items = 0;
    for (unsigned t = 0; t < threads; ++t) {
      total_sum += worker_sum[t].value;
      total_items += worker_items[t].value;
    }
    EXPECT_EQ(total_sum, serial_sum) << threads << " threads";
    EXPECT_EQ(total_items, serial.absorbed.size());
    EXPECT_EQ(stats.depths, serial.stats.depths);
    EXPECT_EQ(stats.items_expanded, serial.stats.items_expanded);
  }
}

TEST(FrontierPoolTest, ParallelAbsorbErrorsAbortTheRun) {
  using Pool = FrontierPool<uint64_t, uint64_t>;
  for (unsigned threads : {1u, 8u}) {
    std::vector<uint64_t> seeds(512);
    std::iota(seeds.begin(), seeds.end(), uint64_t{0});
    Pool pool({.threads = threads});
    FrontierStats stats;
    Status status = pool.RunParallelAbsorb(
        std::move(seeds),
        [&](unsigned, const uint64_t&, uint64_t*,
            Pool::Discoveries*) -> Status { return OkStatus(); },
        [&](unsigned, std::span<const uint64_t> frontier,
            std::span<uint64_t>) -> Status {
          for (uint64_t item : frontier) {
            if (item == 5) return InternalError("poisoned chunk");
          }
          return OkStatus();
        },
        &stats);
    EXPECT_EQ(status.code(), StatusCode::kInternal) << threads;
    // The depth fully expanded before its absorb failed.
    EXPECT_EQ(stats.items_expanded, 512u);
  }
}

TEST(FrontierPoolTest, ParallelForCoversEveryIndexOnce) {
  for (unsigned threads : {1u, 3u, 8u, 16u}) {
    const size_t n = 10'000;
    std::vector<std::atomic<uint32_t>> hits(n);
    WorkerPool(threads).ParallelFor(n, [&](unsigned, size_t index) {
      hits[index].fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
    }
  }
}

// --------------------------------------------------------------------------
// The budgeted enumerate→pause→apply→resume protocol (RunBudgetedTasks),
// exercised through a synthetic producer: task t yields the sequence
// t*1000, t*1000+1, … (lens[t] items) into its bounded buffer; the drain
// concatenates. The whole contract is that the concatenation equals the
// task-order concatenation of every sequence — for any thread count, any
// budget, any skew — while no epoch ever holds more than threads × budget
// buffered items.

struct BudgetedRun {
  std::vector<uint64_t> drained;  // drain-order concatenation
  uint64_t peak_buffered = 0;     // measured at the epoch barrier
  size_t epochs = 0;
  uint64_t resumes = 0;
};

BudgetedRun RunBudgeted(unsigned threads, uint64_t budget,
                        const std::vector<size_t>& lens,
                        size_t cut_after = SIZE_MAX) {
  BudgetedRun run;
  WorkerPool pool(threads);
  std::vector<std::vector<uint64_t>> buffers(lens.size());
  std::vector<size_t> produced(lens.size(), 0);
  std::atomic<uint64_t> resumes{0};
  bool cut = false;
  pool.RunBudgetedTasks(
      lens.size(),
      [&](unsigned /*worker*/, size_t t) -> bool {
        resumes.fetch_add(1);
        while (buffers[t].size() < budget) {
          if (produced[t] == lens[t]) return true;  // exhausted
          buffers[t].push_back(t * 1000 + produced[t]);
          ++produced[t];
        }
        return produced[t] == lens[t];  // full buffer: park unless done
      },
      [&](size_t t) -> bool {
        for (uint64_t v : buffers[t]) run.drained.push_back(v);
        buffers[t].clear();
        if (run.drained.size() >= cut_after) {
          cut = true;
          return false;
        }
        return true;
      },
      [&](size_t first, size_t count) {
        ++run.epochs;
        uint64_t buffered = 0;
        for (size_t i = 0; i < count; ++i) buffered += buffers[first + i].size();
        run.peak_buffered = std::max(run.peak_buffered, buffered);
      });
  run.resumes = resumes.load();
  // After a completed (un-cut) run, every buffer must have been drained.
  if (!cut) {
    for (const auto& buffer : buffers) EXPECT_TRUE(buffer.empty());
  }
  return run;
}

std::vector<uint64_t> TaskOrderReference(const std::vector<size_t>& lens) {
  std::vector<uint64_t> ref;
  for (size_t t = 0; t < lens.size(); ++t) {
    for (size_t j = 0; j < lens[t]; ++j) ref.push_back(t * 1000 + j);
  }
  return ref;
}

TEST(FrontierPoolTest, BudgetedTasksDrainInTaskOrder) {
  // Skewed lengths — long tasks early, empty tasks interleaved, a long
  // tail task — swept over threads × budget. Order and coverage must be
  // oblivious to both knobs; the buffered peak must respect the window.
  const std::vector<size_t> lens = {17, 0, 3, 120, 1, 0, 42, 7, 0, 63};
  const std::vector<uint64_t> ref = TaskOrderReference(lens);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    for (uint64_t budget : {1u, 2u, 7u, 1000u}) {
      const BudgetedRun run = RunBudgeted(threads, budget, lens);
      EXPECT_EQ(run.drained, ref)
          << threads << " threads, budget " << budget;
      EXPECT_LE(run.peak_buffered, uint64_t{threads} * budget)
          << threads << " threads, budget " << budget;
    }
  }
}

TEST(FrontierPoolTest, BudgetedTasksBudgetOneStillMakesProgress) {
  // budget=1 is the adversarial setting: every epoch moves each window
  // task by at most one item, so the window's head task must be re-drained
  // and resumed many times. 120 items at the head means >= 120 epochs —
  // termination plus exact order is the regression.
  const std::vector<size_t> lens = {120, 2, 2};
  const BudgetedRun run = RunBudgeted(4, 1, lens);
  EXPECT_EQ(run.drained, TaskOrderReference(lens));
  EXPECT_GE(run.epochs, 120u);
  EXPECT_LE(run.peak_buffered, 4u);
}

TEST(FrontierPoolTest, BudgetedTasksEarlyCutStopsTheRun) {
  // The drain's false return is the chase's atom-limit cut: the protocol
  // must stop immediately — no further resumes, no further drains — with
  // the drained prefix exactly the task-order prefix.
  const std::vector<size_t> lens = {10, 10, 10, 10};
  const std::vector<uint64_t> ref = TaskOrderReference(lens);
  for (unsigned threads : {1u, 4u}) {
    const BudgetedRun run = RunBudgeted(threads, 1000, lens, /*cut_after=*/15);
    // One drain overshoots past 15 at most to a task boundary.
    ASSERT_GE(run.drained.size(), 15u) << threads;
    ASSERT_LE(run.drained.size(), 20u) << threads;
    for (size_t i = 0; i < run.drained.size(); ++i) {
      EXPECT_EQ(run.drained[i], ref[i]) << threads;
    }
  }
}

TEST(FrontierPoolTest, BudgetedTasksHandleEmptyInputs) {
  const BudgetedRun none = RunBudgeted(4, 8, {});
  EXPECT_TRUE(none.drained.empty());
  EXPECT_EQ(none.epochs, 0u);
  const BudgetedRun all_empty = RunBudgeted(4, 8, {0, 0, 0, 0, 0});
  EXPECT_TRUE(all_empty.drained.empty());
  EXPECT_EQ(all_empty.peak_buffered, 0u);
}

TEST(FrontierPoolTest, ForEachChildHandlesMaxArity) {
  // Regression: with uint8_t loop counters, blocks == 255 (the
  // Schema::kMaxArity ceiling) wrapped `b` through 0 — an out-of-bounds
  // MergeBlocks read and an infinite loop. The top of the arity-255
  // lattice must yield exactly C(255, 2) children and terminate.
  const IdTuple top = storage::AllDistinctIdTuple(255);
  size_t children = 0;
  storage::ForEachChild(top, [&](IdTuple child) {
    ASSERT_EQ(child.size(), 255u);
    ++children;
  });
  EXPECT_EQ(children, 255u * 254u / 2u);
}

// --------------------------------------------------------------------------
// The three adversarial shape-lattice profiles, through the real consumer.

void ExpectFrontierExistsMatchesSerial(const DataGenParams& params,
                                       const char* label) {
  auto data = GenerateData(params);
  ASSERT_TRUE(data.ok()) << data.status();
  storage::Catalog catalog(data->database.get());
  storage::MemoryShapeSource memory(&catalog);
  auto oracle = FindShapes(memory, {ShapeFinderMode::kExists, 1});
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  for (unsigned threads : {4u, 8u}) {
    FrontierStats stats;
    storage::FindShapesOptions options{ShapeFinderMode::kExists, threads};
    options.frontier_stats = &stats;
    auto shapes = FindShapes(memory, options);
    ASSERT_TRUE(shapes.ok()) << shapes.status();
    EXPECT_EQ(*shapes, *oracle) << label << ", threads " << threads;
    EXPECT_EQ(std::accumulate(stats.worker_expanded.begin(),
                              stats.worker_expanded.end(), uint64_t{0}),
              stats.items_expanded)
        << label;
  }
}

TEST(FrontierPoolTest, WideShallowLattice) {
  // Many low-arity predicates: the frontier is wide (one seed per
  // predicate) and drains in a couple of depths.
  DataGenParams params;
  params.preds = 40;
  params.min_arity = 1;
  params.max_arity = 3;
  params.dsize = 64;
  params.rsize = 200;
  params.seed = 11;
  ExpectFrontierExistsMatchesSerial(params, "wide-shallow");
}

TEST(FrontierPoolTest, NarrowDeepLattice) {
  // One high-arity predicate over a tiny repeated domain: the frontier
  // starts as a single item and the walk descends many merge levels.
  DataGenParams params;
  params.preds = 1;
  params.min_arity = 7;
  params.max_arity = 7;
  params.dsize = 64;
  params.rsize = 30;
  params.seed = 12;
  ExpectFrontierExistsMatchesSerial(params, "narrow-deep");
}

TEST(FrontierPoolTest, SingleGiantPredicate) {
  // The case PR 1's per-predicate dealing could never split: one predicate,
  // one big relation, one lattice. The frontier engine must spread its
  // probes across the pool and still match the serial walk.
  DataGenParams params;
  params.preds = 1;
  params.min_arity = 6;
  params.max_arity = 6;
  params.dsize = 64;
  params.rsize = 5'000;
  params.seed = 13;
  ExpectFrontierExistsMatchesSerial(params, "single-giant");
}

}  // namespace
}  // namespace chase
