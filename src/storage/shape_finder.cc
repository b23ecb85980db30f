#include "storage/shape_finder.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "base/status.h"
#include "exec/frontier_pool.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/catalog.h"
#include "storage/shape_lattice.h"
#include "storage/shape_source.h"
#include "storage/tuple_run.h"

namespace chase {
namespace storage {
namespace {

std::vector<Shape> Sorted(ShapeSet shapes) {
  std::vector<Shape> out = shapes.TakeItems();
  std::sort(out.begin(), out.end());
  return out;
}

// The union of the worker-local sets, built in the first one.
ShapeSet Merged(std::vector<ShapeSet>& local) {
  ShapeSet merged = std::move(local[0]);
  for (size_t t = 1; t < local.size(); ++t) {
    for (Shape& shape : local[t].TakeItems()) merged.Insert(std::move(shape));
  }
  return merged;
}

// ---------------------------------------------------------------------------
// Scan plan: full scans, classifying every tuple. The scan driver
// (chunking, worker pool, metering) is ParallelTupleScan in the ShapeSource
// layer, shared with the shape-index build; it hands each worker runs of
// whole tuples, and the kernel below dispatches on the run's arity once.
//
// Up to kMaxMaskArity, a tuple is classified by its pairwise-equality mask:
// one bit per position pair (j < i), set iff t[j] == t[i]. The mask is the
// partition of the positions, so two tuples of one relation share a mask
// iff they share an id-tuple. A run-local bitmap over all masks skips every
// tuple whose mask the run has already met; only a first-seen mask writes
// its id-tuple into a stack buffer and probes the worker's ShapeSet as a
// ShapeView. Wider tuples take that probe for every tuple. Either way a
// Shape is built only the first time a worker meets it.

// Arity A needs A(A-1)/2 mask bits and a 2^(A(A-1)/2)-bit bitmap: 4 KB at
// A = 6, 256 KB at A = 7.
constexpr uint32_t kMaxMaskArity = 6;

template <uint32_t A>
uint32_t EqualityMask(const uint32_t* tuple) {
  uint32_t mask = 0;
  uint32_t bit = 0;
  for (uint32_t i = 1; i < A; ++i) {
    for (uint32_t j = 0; j < i; ++j) {
      mask |= static_cast<uint32_t>(tuple[j] == tuple[i]) << bit++;
    }
  }
  return mask;
}

template <uint32_t A>
void InsertRunShapesByMask(PredId pred, TupleRun run, ShapeSet* shapes) {
  static_assert(A >= 1 && A <= kMaxMaskArity);
  constexpr size_t kMasks = size_t{1} << (A * (A - 1) / 2);
  std::array<uint64_t, (kMasks + 63) / 64> seen{};
  const uint32_t* tuple = run.values.data();
  const size_t rows = run.rows();
  for (size_t r = 0; r < rows; ++r, tuple += A) {
    const uint32_t mask = EqualityMask<A>(tuple);
    uint64_t& word = seen[mask >> 6];
    const uint64_t bit = uint64_t{1} << (mask & 63);
    if ((word & bit) != 0) continue;
    word |= bit;
    IdBuffer id;
    shapes->Insert(
        ShapeViewOfTuple(pred, std::span<const uint32_t>(tuple, A), id));
  }
}

void InsertRunShapes(PredId pred, TupleRun run, ShapeSet* shapes) {
  switch (run.arity) {
    case 1:
      return InsertRunShapesByMask<1>(pred, run, shapes);
    case 2:
      return InsertRunShapesByMask<2>(pred, run, shapes);
    case 3:
      return InsertRunShapesByMask<3>(pred, run, shapes);
    case 4:
      return InsertRunShapesByMask<4>(pred, run, shapes);
    case 5:
      return InsertRunShapesByMask<5>(pred, run, shapes);
    case 6:
      return InsertRunShapesByMask<6>(pred, run, shapes);
    default:
      break;
  }
  const size_t rows = run.rows();
  for (size_t r = 0; r < rows; ++r) {
    IdBuffer id;  // only the prefix the tuple fills is read
    shapes->Insert(ShapeViewOfTuple(pred, run.row(r), id));
  }
}

Status ScanShapes(const ShapeSource& source,
                  const std::vector<PredId>& preds, unsigned threads,
                  ShapeSet* shapes) {
  std::vector<ShapeSet> local(threads);
  CHASE_RETURN_IF_ERROR(ParallelTupleScan(
      source, preds, threads, [&](unsigned t, PredId pred, TupleRun run) {
        InsertRunShapes(pred, run, &local[t]);
      }));
  *shapes = Merged(local);
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Exists plan: the Apriori lattice walk over EXISTS probes (Section 5.4).
// The lattices of a batch of predicates form one frontier of candidate
// shapes — seeded with each predicate's all-distinct tuple — that
// FrontierPool expands depth-synchronously (inline at threads <= 1). A
// candidate is probed with its relaxed query first; only if that succeeds
// does the full query decide the exact shape and the candidate discover
// its coarser children, so a failed relaxed query prunes the whole subtree
// without touching the data. The probes of one depth are independent, so a
// single high-arity predicate (one huge lattice) spreads across the whole
// pool instead of pinning one worker. Each depth's confirmed shapes go
// into one set on the serial absorb path.
// Per-worker sets filled inside the expansion were no faster: at 2, 4 and
// 8 threads on one arity-7 predicate (876 shapes, 20,000 rows) and on 500
// predicates of arity 3-6 (23,838 shapes, 200 rows each), the two stayed
// within run-to-run noise of each other (4-vCPU VM, Release).
//
// Every depth of a lattice probes its relation again, so the predicates
// are walked in batches of consecutive relations: a batch's depths run
// while its relations are still in cache, or in the disk backend's buffer
// pool. One frontier over 1,000 relations cycled chasectl's 64-frame pool
// and read each page about three times. At threads 1 a batch holds about
// kBatchValues tuple values. Above that every depth of every batch is a
// barrier that wakes each worker, so the budget grows with the square of
// the thread count: on that program at threads 4, batches of 4 x 2^16
// values took 22.6 ms against 19.9 ms for one frontier, and 16 x 2^16
// values took 20.4 ms (4-vCPU VM, Release, memory backend).
constexpr uint64_t kBatchValues = uint64_t{1} << 16;  // 256 KiB of ids

Status WalkShapesFrontier(const ShapeSource& source,
                          const std::vector<PredId>& preds, unsigned threads,
                          ShapeSet* shapes) {
  struct Probe {
    bool present = false;
  };
  using Pool = FrontierPool<Shape, Probe, ShapeHash>;
  std::vector<AccessStats> local_stats(threads);
  Pool pool({.threads = threads});
  const Pool::ExpandFn expand = [&](unsigned worker, const Shape& candidate,
                                    Probe* out,
                                    Pool::Discoveries* discovered) -> Status {
    AccessStats* stats = &local_stats[worker];
    CHASE_ASSIGN_OR_RETURN(
        const bool relaxed,
        ProbeShapeExists(source, candidate.pred, candidate.id,
                         /*exact=*/false, stats));
    if (!relaxed) return OkStatus();  // prunes the whole subtree
    CHASE_ASSIGN_OR_RETURN(
        const bool full,
        ProbeShapeExists(source, candidate.pred, candidate.id,
                         /*exact=*/true, stats));
    out->present = full;
    ForEachChild(candidate.id, [&](IdTuple child) {
      discovered->Discover(Shape(candidate.pred, std::move(child)));
    });
    return OkStatus();
  };
  const Pool::AbsorbFn absorb = [&](std::span<const Shape> frontier,
                                    std::span<Probe> outs) -> Status {
    for (size_t i = 0; i < frontier.size(); ++i) {
      if (outs[i].present) shapes->Insert(frontier[i]);
    }
    return OkStatus();
  };

  Status status = OkStatus();
  std::vector<Shape> seeds;
  uint64_t batch_values = 0;
  for (size_t i = 0; i < preds.size() && status.ok(); ++i) {
    const uint32_t arity = source.schema().Arity(preds[i]);
    seeds.emplace_back(preds[i], AllDistinctIdTuple(arity));
    batch_values += source.NumTuples(preds[i]) * std::max(1u, arity);
    if (batch_values >= kBatchValues * threads * threads ||
        i + 1 == preds.size()) {
      status = pool.Run(std::move(seeds), expand, absorb);
      seeds.clear();
      batch_values = 0;
    }
  }
  for (unsigned t = 0; t < threads; ++t) {
    source.stats().MergeFrom(local_stats[t]);
  }
  return status;
}

// Mirrors one run's access-stats delta into the metrics registry on every
// exit path. The source's stats are cumulative for its lifetime, so the
// guard snapshots them at construction and publishes the difference on
// destruction.
class ScopedAccessStatsMirror {
 public:
  explicit ScopedAccessStatsMirror(const ShapeSource& source)
      : source_(source), before_(source.stats()) {}
  ~ScopedAccessStatsMirror() {
    if (!obs::MetricsRegistry::enabled()) return;
    const AccessStats& now = source_.stats();
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
    registry.GetCounter("storage.catalog_queries")
        ->Add(now.catalog_queries - before_.catalog_queries);
    registry.GetCounter("storage.exists_queries")
        ->Add(now.exists_queries - before_.exists_queries);
    registry.GetCounter("storage.tuples_scanned")
        ->Add(now.tuples_scanned - before_.tuples_scanned);
    registry.GetCounter("storage.relations_loaded")
        ->Add(now.relations_loaded - before_.relations_loaded);
  }

  ScopedAccessStatsMirror(const ScopedAccessStatsMirror&) = delete;
  ScopedAccessStatsMirror& operator=(const ScopedAccessStatsMirror&) = delete;

 private:
  const ShapeSource& source_;
  AccessStats before_;
};

}  // namespace

const char* ShapeFinderModeName(ShapeFinderMode mode) {
  switch (mode) {
    case ShapeFinderMode::kScan:
      return "scan";
    case ShapeFinderMode::kExists:
      return "exists";
  }
  return "?";
}

StatusOr<std::vector<Shape>> FindShapes(const ShapeSource& source,
                                        const FindShapesOptions& options) {
  const unsigned threads = std::max(1u, options.threads);
  obs::TraceSpan find_span("storage", "find_shapes", "mode",
                           static_cast<int64_t>(options.mode), "threads",
                           static_cast<int64_t>(threads));
  // Mirror this run's access-stats delta into the metrics registry on
  // every exit path.
  ScopedAccessStatsMirror stats_mirror(source);
  const std::vector<PredId> preds = source.NonEmptyRelations();
  ShapeSet shapes;
  CHASE_RETURN_IF_ERROR(options.mode == ShapeFinderMode::kScan
                            ? ScanShapes(source, preds, threads, &shapes)
                            : WalkShapesFrontier(source, preds, threads,
                                                 &shapes));
  return Sorted(std::move(shapes));
}

}  // namespace storage
}  // namespace chase
