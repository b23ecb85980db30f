// A depth-synchronous parallel frontier-expansion engine.
//
// Several of the Section 5.4 algorithms share one control shape: a frontier
// of independent items is expanded, expansion discovers successor items,
// successors that were never seen before form the next frontier, repeat
// until the frontier drains. The Apriori walk of the shape lattice (items =
// candidate shapes, successors = coarser shapes) and the dynamic-
// simplification worklist (items = derived shapes, successors = head
// shapes) are both instances.
//
// Items at the same depth are independent by construction, so the engine
// expands each depth in parallel and barriers between depths:
//
//  * the workers are spawned ONCE per engine — by the WorkerPool below —
//    and reused across depths and Runs through a generation-counted
//    condvar barrier, so a workload of many shallow depths (dynamic
//    simplification) or many small frontiers (the EXISTS plan's predicate
//    batches) pays a wakeup per depth, not a thread spawn+join;
//  * each depth's frontier is split into chunks dealt dynamically to the
//    pool (the same range-partitioned chunking discipline as
//    storage::ParallelTupleScan), so one expensive item cannot pin the
//    whole depth on a single worker;
//  * the seen-set is frozen while a depth expands: workers only read it,
//    so they share it without a latch. Each worker filters its
//    discoveries against it into its own fresh set; at the barrier the
//    calling thread splices the fresh sets into the seen-set (the first
//    copy of an item queued by two workers is admitted, the other
//    dropped) and sorts the admitted items into the next frontier, so it
//    is canonical (duplicate-free, ascending) regardless of thread count
//    or scheduling;
//  * per-item outputs are written into a per-depth slot vector and handed
//    to a serial `absorb` callback in frontier order, so anything the
//    caller accumulates (emitted TGDs, interned predicates, confirmed
//    shapes) is ordered identically to a single-threaded run.
//
// The net contract: Run with N threads produces bit-identical results to
// Run with 1 thread (which executes inline on the calling thread, with no
// pool). tests/frontier_equivalence_test.cc holds the consumers to it;
// tests/frontier_pool_test.cc stresses the engine itself under
// ThreadSanitizer, which guards the frozen-seen-set reads and the barrier.

#ifndef CHASE_EXEC_FRONTIER_POOL_H_
#define CHASE_EXEC_FRONTIER_POOL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <thread>
#include <unordered_set>
#include <vector>

#include "base/padded.h"
#include "base/status.h"
#include "base/sync.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace chase {

// The one chunk-size heuristic behind every dealing site (WorkerPool's
// ParallelFor and storage::ParallelTupleScan): roughly a few chunks per
// thread, so dynamically dealt chunks still balance uneven per-index cost.
inline size_t FrontierChunkSize(size_t n, unsigned threads) {
  return std::max<size_t>(1, n / (4 * std::max(1u, threads)));
}

// A persistent pool of worker threads with a reusable start/finish barrier.
// Construction spawns threads-1 workers (the thread calling ParallelFor
// always participates as worker 0); every ParallelFor reuses them, so a
// caller that loops — depths of a frontier walk — pays one condvar
// round-trip per iteration instead of a thread spawn and join. The barrier is a generation counter: workers sleep until the
// epoch advances, run the dealt chunks of that epoch, and report back;
// ParallelFor returns once every worker has reported, so task state can be
// reused for the next epoch without further synchronization.
class WorkerPool {
 public:
  // threads <= 1 spawns no workers; ParallelFor then runs inline. Workers
  // started while tracing is on allocate their trace buffers up front
  // (obs::TraceRecorder::AttachThread), outside any span.
  explicit WorkerPool(unsigned threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned threads() const { return threads_; }

  // Runs work(worker, index) for every index in [0, n), partitioning the
  // index space into chunks of roughly equal size (a few per thread) dealt
  // dynamically, so uneven per-index cost still balances. Blocks until all
  // dealt indices ran. Within one worker, indices ascend per chunk; across
  // workers, any interleaving — callers must write only to index-private
  // or worker-private state, or synchronize. Not reentrant: one
  // ParallelFor at a time per pool.
  //
  // If `abort` is non-null, no further chunk is claimed once it reads
  // true; indices of already-claimed chunks still run, so `work` must
  // check the flag itself where per-index stop matters.
  //
  // Chunks are claimed in ascending index order (a single fetch_add
  // counter), so the index space drains front-to-back.
  void ParallelFor(size_t n,
                   const std::function<void(unsigned worker, size_t index)>& work,
                   const std::atomic<bool>* abort = nullptr);

 private:
  void Loop(unsigned worker);
  // Reads the epoch's task fields (n_, chunk_, work_, abort_) without mu_:
  // they are written under mu_ before the epoch advances and read only by
  // workers that observed the new epoch under mu_, so the barrier itself
  // orders the accesses. The analysis cannot see that handoff, hence the
  // opt-out.
  void RunChunks(unsigned worker) NO_THREAD_SAFETY_ANALYSIS;

  const unsigned threads_;
  Mutex mu_;
  CondVar start_cv_;  // wakes workers on an epoch advance
  CondVar done_cv_;   // wakes ParallelFor when all report
  uint64_t epoch_ GUARDED_BY(mu_) = 0;
  // Workers still inside the current epoch.
  unsigned running_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
  // The current task. Written under mu_ before the epoch advances, read by
  // workers after they observe the new epoch under mu_ — so the reads in
  // RunChunks outside the latch are ordered by the barrier itself.
  size_t n_ GUARDED_BY(mu_) = 0;
  size_t chunk_ GUARDED_BY(mu_) = 1;
  const std::function<void(unsigned, size_t)>* work_ GUARDED_BY(mu_) =
      nullptr;
  const std::atomic<bool>* abort_ GUARDED_BY(mu_) = nullptr;
  std::atomic<size_t> next_{0};
  std::vector<std::thread> workers_;
};

// Counters reported by FrontierPool::Run. Populated on every exit path,
// error returns included, with items_expanded always equal to the number
// of `expand` invocations that actually ran.
struct FrontierStats {
  uint64_t depths = 0;           // number of synchronized frontier waves
  uint64_t seeds_admitted = 0;   // unique seeds (duplicates are dropped)
  uint64_t items_expanded = 0;   // unique items actually expanded
  uint64_t items_discovered = 0;  // successors admitted past the seen filter
  uint64_t max_frontier = 0;     // widest single depth
};

// The engine. Item must be hashable (Hash), equality-comparable (for the
// seen-set) and strict-weak ordered by operator< (for the canonical
// per-depth sort); Out must be default-constructible.
template <typename Item, typename Out, typename Hash = std::hash<Item>>
class FrontierPool {
  // Node-based on purpose: the barrier splices admitted nodes from the
  // fresh sets into the seen-set, so no admitted item is ever copied
  // between sets. Each alternative measured moved the spine's
  // manyrules.peak_rss_mb toward its 10% bound (4 alternating pairs
  // each): FlatSet for the seen and fresh sets +9.1%, per-worker vectors
  // deduplicated at the barrier +9.3%, node-based fresh sets copied into
  // the seen-set +3.9% (4-vCPU VM, Release).
  using ItemSet = std::unordered_set<Item, Hash>;

 public:
  struct Options {
    unsigned threads = 1;  // <= 1 expands inline: no workers
  };

  // Successor sink handed to each expansion. Thread-confined: a worker
  // writes only its own fresh set and only reads the seen-set, which
  // nothing writes while a depth expands.
  class Discoveries {
   public:
    // Queues `item` for the next frontier unless an earlier depth already
    // admitted it. The const& form copies `item` only when it queues it.
    void Discover(Item&& item) {
      if (!seen_.contains(item)) fresh_.insert(std::move(item));
    }
    void Discover(const Item& item) {
      if (!seen_.contains(item)) fresh_.insert(item);
    }

   private:
    friend class FrontierPool;
    Discoveries(const ItemSet& seen, ItemSet& fresh)
        : seen_(seen), fresh_(fresh) {}
    const ItemSet& seen_;
    ItemSet& fresh_;
  };

  // Expands one item: fills `out` (absorbed after the depth barrier) and
  // reports successors through `discovered`. Runs concurrently with other
  // expansions of the same depth; `worker` in [0, threads) indexes any
  // caller-side thread-local state. A non-OK status aborts the run: no
  // further expansion starts anywhere in the pool (a shared abort flag
  // stops both chunk dealing and the per-index dispatch), the depth's
  // in-flight expansions finish, and Run returns the error without
  // absorbing the failed depth.
  using ExpandFn = std::function<Status(unsigned worker, const Item& item,
                                        Out* out, Discoveries* discovered)>;

  // Consumes one depth's outputs serially, items in canonical (ascending)
  // order. Runs on the calling thread between depth barriers.
  using AbsorbFn =
      std::function<Status(std::span<const Item> frontier,
                           std::span<Out> outs)>;

  // Spawns the workers, once: every depth of every Run reuses them through
  // the barrier, so a caller that walks many small frontiers (the exists
  // plan's predicate batches) pays no thread spawn per Run.
  explicit FrontierPool(Options options) : workers_(options.threads) {}

  // Expands from `seeds` (duplicates dropped, order irrelevant) until the
  // frontier drains. Deterministic: the frontier contents of every depth,
  // the absorb call sequence, and the final seen-set depend only on the
  // seeds and the expansion function, never on thread count or scheduling.
  // Not reentrant: one Run at a time per engine.
  [[nodiscard]] Status Run(std::vector<Item> seeds, const ExpandFn& expand,
                           const AbsorbFn& absorb,
                           FrontierStats* stats = nullptr) {
    const unsigned threads = workers_.threads();
    ItemSet seen;
    // One fresh set per worker, drained at every barrier and reused.
    std::vector<ItemSet> fresh(threads);

    FrontierStats local_stats;
    FrontierStats& out_stats = stats != nullptr ? *stats : local_stats;
    out_stats = FrontierStats();

    // Seed admission is serial: seed lists are small, and admission order
    // must not leak into the canonical sort's tie-free ordering anyway.
    std::vector<Item> frontier;
    frontier.reserve(seeds.size());
    for (Item& seed : seeds) {
      if (seen.insert(seed).second) frontier.push_back(std::move(seed));
    }
    std::sort(frontier.begin(), frontier.end());
    out_stats.seeds_admitted = frontier.size();

    std::vector<PaddedU64> expanded(threads);
    // The depth loop proper, wrapped so that every exit path — error or
    // drained frontier — falls through the stats finalization below.
    auto run_depths = [&]() -> Status {
      while (!frontier.empty()) {
        ++out_stats.depths;
        obs::TraceSpan depth_span(
            "frontier", "depth", "depth",
            static_cast<int64_t>(out_stats.depths - 1), "width",
            static_cast<int64_t>(frontier.size()));
        out_stats.max_frontier =
            std::max<uint64_t>(out_stats.max_frontier, frontier.size());
        std::vector<Out> outs(frontier.size());
        std::vector<Status> worker_status(threads);
        // The shared abort: the first failing expansion trips it, chunk
        // dealing stops pool-wide, and workers skip every index they had
        // already been dealt — a failed depth drains promptly instead of
        // expanding to the end on the healthy workers.
        std::atomic<bool> abort{false};
        workers_.ParallelFor(
            frontier.size(),
            [&](unsigned worker, size_t index) {
              if (abort.load(std::memory_order_acquire)) return;
              if (!worker_status[worker].ok()) return;
              Discoveries discovered(seen, fresh[worker]);
              ++expanded[worker].value;
              Status status =
                  expand(worker, frontier[index], &outs[index], &discovered);
              if (!status.ok()) {
                worker_status[worker] = std::move(status);
                abort.store(true, std::memory_order_release);
              }
            },
            &abort);
        for (Status& status : worker_status) CHASE_RETURN_IF_ERROR(status);
        CHASE_RETURN_IF_ERROR(absorb(frontier, std::span<Out>(outs)));
        frontier = Admit(seen, fresh);
        out_stats.items_discovered += frontier.size();
      }
      return OkStatus();
    };
    const Status status = run_depths();
    // Stats are populated on every exit path, and items_expanded counts
    // only expansions that actually ran (error-skipped items never count).
    out_stats.items_expanded = 0;
    for (const PaddedU64& count : expanded) {
      out_stats.items_expanded += count.value;
    }
    // Mirror into the metrics registry: counters accumulate across every
    // frontier run of the session (EXISTS walks and dynamic
    // simplification both fold in); the gauge keeps the widest
    // frontier any run reached.
    if (obs::MetricsRegistry::enabled()) {
      obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
      registry.GetCounter("frontier.runs")->Add(1);
      registry.GetCounter("frontier.depths")->Add(out_stats.depths);
      registry.GetCounter("frontier.seeds_admitted")
          ->Add(out_stats.seeds_admitted);
      registry.GetCounter("frontier.items_expanded")
          ->Add(out_stats.items_expanded);
      registry.GetCounter("frontier.items_discovered")
          ->Add(out_stats.items_discovered);
      registry.MaxGauge("frontier.max_frontier",
                        static_cast<double>(out_stats.max_frontier));
    }
    return status;
  }

 private:
  // The depth barrier, on the calling thread: splices every fresh node
  // into `seen` (a node whose item another worker queued first is
  // dropped) and returns a copy of each admitted item, sorted, as the
  // next frontier.
  static std::vector<Item> Admit(ItemSet& seen, std::vector<ItemSet>& fresh) {
    size_t total = 0;
    for (const ItemSet& items : fresh) total += items.size();
    std::vector<Item> next;
    next.reserve(total);
    for (ItemSet& items : fresh) {
      while (!items.empty()) {
        auto admitted = seen.insert(items.extract(items.begin()));
        if (admitted.inserted) next.push_back(*admitted.position);
      }
    }
    std::sort(next.begin(), next.end());
    return next;
  }

  WorkerPool workers_;
};

}  // namespace chase

#endif  // CHASE_EXEC_FRONTIER_POOL_H_
