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
// Exists plan: the Apriori lattice walk over EXISTS probes.

Status WalkShapesForPred(const ShapeSource& source, PredId pred,
                         AccessStats* stats, ShapeSet* shapes) {
  Status failure = OkStatus();
  auto probe = [&](const IdTuple& id, bool exact) {
    if (!failure.ok()) return false;  // abort the walk on the first error
    StatusOr<bool> found = ProbeShapeExists(source, pred, id, exact, stats);
    if (!found.ok()) {
      failure = found.status();
      return false;
    }
    return *found;
  };
  WalkShapeLattice(
      source.schema().Arity(pred),
      [&](const IdTuple& id) { return probe(id, /*exact=*/false); },
      [&](const IdTuple& id) { return probe(id, /*exact=*/true); },
      [&](const IdTuple& id) { shapes->Insert(Shape(pred, id)); });
  return failure;
}

// Frontier-parallel exists plan: the lattices of every predicate form one
// global frontier of candidate shapes — seeded with each predicate's
// all-distinct tuple — that FrontierPool expands depth-synchronously. The
// probes of one depth are independent, so a single high-arity predicate
// (one huge lattice) spreads across the whole pool instead of pinning one
// worker, and pruning stays exact: a candidate only discovers its coarser
// children when its relaxed query succeeded, just like the serial walk.
// Each depth's confirmed shapes go into one set on the serial absorb path.
// Per-worker sets filled inside the expansion were no faster: at 2, 4 and
// 8 threads on one arity-7 predicate (876 shapes, 20,000 rows) and on 500
// predicates of arity 3-6 (23,838 shapes, 200 rows each), the two stayed
// within run-to-run noise of each other (4-vCPU VM, Release).
Status WalkShapesFrontier(const ShapeSource& source,
                          const std::vector<PredId>& preds, unsigned threads,
                          ShapeSet* shapes) {
  struct Probe {
    bool present = false;
  };
  std::vector<Shape> seeds;
  seeds.reserve(preds.size());
  for (PredId pred : preds) {
    seeds.emplace_back(pred, AllDistinctIdTuple(source.schema().Arity(pred)));
  }

  std::vector<AccessStats> local_stats(threads);
  FrontierPool<Shape, Probe, ShapeHash> pool({.threads = threads});
  const auto expand =
      [&](unsigned worker, const Shape& candidate, Probe* out,
          FrontierPool<Shape, Probe, ShapeHash>::Discoveries* discovered)
      -> Status {
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
  const Status status = pool.Run(
      std::move(seeds), expand,
      [&](std::span<const Shape> frontier, std::span<Probe> outs) -> Status {
        for (size_t i = 0; i < frontier.size(); ++i) {
          if (outs[i].present) shapes->Insert(frontier[i]);
        }
        return OkStatus();
      });
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
  Status status = OkStatus();
  if (options.mode == ShapeFinderMode::kScan) {
    status = ScanShapes(source, preds, threads, &shapes);
  } else if (threads == 1) {
    // The serial reference walk — the oracle the frontier-parallel plan is
    // differentially tested against (tests/frontier_equivalence_test.cc).
    for (PredId pred : preds) {
      status = WalkShapesForPred(source, pred, &source.stats(), &shapes);
      if (!status.ok()) break;
    }
  } else {
    status = WalkShapesFrontier(source, preds, threads, &shapes);
  }
  CHASE_RETURN_IF_ERROR(status);
  return Sorted(std::move(shapes));
}

}  // namespace storage
}  // namespace chase
