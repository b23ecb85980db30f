#include "storage/shape_source.h"

#include <algorithm>
#include <atomic>
#include <span>

#include "base/padded.h"
#include "base/status.h"
#include "exec/frontier_pool.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "storage/catalog.h"
#include "storage/tuple_run.h"

namespace chase {
namespace storage {
namespace {

// Fixed scratch width of the compiled EXISTS condition: one slot per tuple
// position. Schema::kMaxArity caps declared arities below this, and
// ProbeShapeExists rejects longer id-tuples before indexing, so the stack
// arrays sized by it can never be overrun by tuple contents.
constexpr size_t kMaxProbePositions = Schema::kMaxArity;

// For each position, the first position carrying the same id value; the
// equality conditions of the EXISTS queries are t[i] == t[first[i]].
// Requires id.size() <= kMaxProbePositions (id values are 1-based, hence
// the + 1 on the scratch table).
void FirstOfBlock(const IdTuple& id, uint32_t* first) {
  uint32_t first_seen[kMaxProbePositions + 1];
  for (size_t i = 0; i < id.size(); ++i) first_seen[id[i]] = UINT32_MAX;
  for (uint32_t i = 0; i < id.size(); ++i) {
    if (first_seen[id[i]] == UINT32_MAX) first_seen[id[i]] = i;
    first[i] = first_seen[id[i]];
  }
}

// One tuple against one compiled shape condition. `exact` additionally
// enforces the disequalities between block representatives.
bool MatchesShape(std::span<const uint32_t> tuple, const uint32_t* first,
                  bool exact) {
  for (uint32_t i = 0; i < tuple.size(); ++i) {
    if (first[i] != i) {
      // Equality condition: position i repeats the block representative.
      if (tuple[i] != tuple[first[i]]) return false;
    } else if (exact) {
      // Disequality conditions: a block representative must differ from
      // all earlier representatives.
      for (uint32_t j = 0; j < i; ++j) {
        if (first[j] == j && tuple[j] == tuple[i]) return false;
      }
    }
  }
  return true;
}

// One unit of partitioned scan work: a row range of one relation.
struct Chunk {
  PredId pred;
  uint64_t first_row;
  uint64_t num_rows;
};

}  // namespace

Status ParallelTupleScan(const ShapeSource& source,
                         const std::vector<PredId>& preds, unsigned threads,
                         const ParallelRunVisitor& visit) {
  threads = std::max(1u, threads);

  // Chunks of roughly equal tuple counts, a few per thread.
  uint64_t total_rows = 0;
  for (PredId pred : preds) total_rows += source.NumTuples(pred);
  const uint64_t target = FrontierChunkSize(total_rows, threads);
  std::vector<Chunk> chunks;
  for (PredId pred : preds) {
    ++source.stats().relations_loaded;
    const uint64_t rows = source.NumTuples(pred);
    for (uint64_t first = 0; first < rows; first += target) {
      chunks.push_back(
          {pred, first, std::min<uint64_t>(target, rows - first)});
    }
  }

  // No more workers than chunks: a pool spawns its threads up front, so a
  // scan with few chunks (or none) would otherwise start threads that find
  // no work. Thread ids stay within [0, threads).
  threads = static_cast<unsigned>(
      std::clamp<size_t>(chunks.size(), 1, threads));

  // Per-worker tuple counters at cache-line stride (see base/padded.h).
  std::vector<PaddedU64> scanned(threads);
  std::vector<Status> worker_status(threads);
  auto scan_chunk = [&](unsigned t, size_t index) {
    if (!worker_status[t].ok()) return;
    const Chunk& chunk = chunks[index];
    worker_status[t] = source.ScanRange(
        chunk.pred, chunk.first_row, chunk.num_rows, [&](TupleRun run) {
          scanned[t].value += run.rows();
          visit(t, chunk.pred, run);
          return true;
        });
  };
  // Dynamic chunk dealing; scan_chunk skips work once its worker's status
  // is bad. A one-thread pool spawns nothing and runs the chunks inline.
  WorkerPool(threads).ParallelFor(chunks.size(), scan_chunk);

  for (unsigned t = 0; t < threads; ++t) {
    source.stats().tuples_scanned += scanned[t].value;
  }
  for (unsigned t = 0; t < threads; ++t) {
    CHASE_RETURN_IF_ERROR(worker_status[t]);
  }
  return OkStatus();
}

StatusOr<bool> ProbeShapeExists(const ShapeSource& source, PredId pred,
                                const IdTuple& id, bool exact,
                                AccessStats* stats) {
  if (id.size() > kMaxProbePositions) {
    return InvalidArgumentError(
        "shape probe arity " + std::to_string(id.size()) +
        " exceeds the supported maximum of " +
        std::to_string(kMaxProbePositions));
  }
  uint32_t first[kMaxProbePositions];
  FirstOfBlock(id, first);

  ++stats->exists_queries;
  bool found = false;
  uint64_t scanned = 0;
  Status status = source.ScanAll(pred, [&](TupleRun run) {
    const size_t rows = run.rows();
    for (size_t i = 0; i < rows; ++i) {
      if (MatchesShape(run.row(i), first, exact)) {
        scanned += i + 1;  // the tuples up to and including the witness
        found = true;
        return false;  // EXISTS: early exit on first witness
      }
    }
    scanned += rows;
    return true;
  });
  stats->tuples_scanned += scanned;
  CHASE_RETURN_IF_ERROR(status);
  return found;
}

Status MemoryShapeSource::ScanRange(PredId pred, uint64_t first_row,
                                    uint64_t num_rows,
                                    const RunVisitor& visit) const {
  const Database& db = catalog_->database();
  const uint32_t arity = db.schema().Arity(pred);
  if (arity == 0) return OkStatus();
  const auto tuples = db.Tuples(pred);
  const uint64_t rows = tuples.size() / arity;
  const uint64_t begin = std::min<uint64_t>(first_row, rows);
  const uint64_t last = std::min<uint64_t>(rows, begin + num_rows);
  if (begin < last) {
    visit({tuples.subspan(begin * arity, (last - begin) * arity), arity});
  }
  return OkStatus();
}

}  // namespace storage
}  // namespace chase
