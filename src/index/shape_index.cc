#include "index/shape_index.h"

#include <algorithm>
#include <utility>

#include "base/hash.h"
#include "base/status.h"
#include "base/sync.h"
#include "io/binary_io.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/shape_source.h"
#include "storage/tuple_run.h"

namespace chase {
namespace index {

// Order-dependent fold of the fully mixed values (Mix64's full avalanche
// keeps single-bit inputs from cancelling linearly over pairs), mixed once
// more so the per-tuple hashes stay well distributed under 64-bit
// summation.
uint64_t TupleFingerprint(PredId pred, std::span<const uint32_t> tuple) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ pred;
  for (uint32_t v : tuple) {
    h ^= Mix64(static_cast<uint64_t>(v));
    h *= 0x100000001b3ULL;
  }
  return Mix64(h);
}

uint64_t DatabaseFingerprint(const Database& db) {
  uint64_t fingerprint = 0;
  for (PredId pred : db.NonEmptyPredicates()) {
    const uint32_t arity = db.schema().Arity(pred);
    const auto tuples = db.Tuples(pred);
    const size_t rows = tuples.size() / arity;
    for (size_t row = 0; row < rows; ++row) {
      fingerprint +=
          TupleFingerprint(pred, tuples.subspan(row * arity, arity));
    }
  }
  return fingerprint;
}

ShapeIndex::ShapeIndex() : state_(std::make_unique<State>()) {}

void ShapeIndex::AddShape(const Shape& shape, uint64_t fingerprint) {
  MutexLock lock(state_->mu);
  ++state_->counts[shape];
  ++state_->tuples;
  state_->fingerprint += fingerprint;
}

Status ShapeIndex::RemoveShape(const Shape& shape, uint64_t fingerprint) {
  MutexLock lock(state_->mu);
  auto it = state_->counts.find(shape);
  if (it == state_->counts.end()) {
    return FailedPreconditionError(
        "removing a tuple whose shape is not indexed");
  }
  if (--it->second == 0) state_->counts.erase(it);
  --state_->tuples;
  state_->fingerprint -= fingerprint;
  return OkStatus();
}

bool ShapeIndex::Contains(const Shape& shape) const {
  MutexLock lock(state_->mu);
  return state_->counts.find(shape) != state_->counts.end();
}

uint64_t ShapeIndex::Count(const Shape& shape) const {
  MutexLock lock(state_->mu);
  auto it = state_->counts.find(shape);
  return it == state_->counts.end() ? 0 : it->second;
}

size_t ShapeIndex::NumShapes() const {
  MutexLock lock(state_->mu);
  return state_->counts.size();
}

uint64_t ShapeIndex::NumIndexedTuples() const {
  MutexLock lock(state_->mu);
  return state_->tuples;
}

uint64_t ShapeIndex::ContentFingerprint() const {
  MutexLock lock(state_->mu);
  return state_->fingerprint;
}

void ShapeIndex::MergeCounts(ShapeCounts local) {
  std::vector<Shape> shapes = local.shapes.TakeItems();
  MutexLock lock(state_->mu);
  state_->fingerprint += local.fingerprint;
  for (size_t i = 0; i < shapes.size(); ++i) {
    state_->counts[std::move(shapes[i])] += local.counts[i];
    state_->tuples += local.counts[i];
  }
}

std::vector<Shape> ShapeIndex::CurrentShapes() const {
  std::vector<Shape> shapes;
  {
    MutexLock lock(state_->mu);
    shapes.reserve(state_->counts.size());
    // chase-lint: allow(unordered-iter) sorted before emit: std::sort
    // directly below
    for (const auto& [shape, count] : state_->counts) shapes.push_back(shape);
  }
  std::sort(shapes.begin(), shapes.end());
  return shapes;
}

StatusOr<ShapeIndex> ShapeIndex::Build(const storage::ShapeSource& source,
                                       unsigned threads) {
  threads = std::max(1u, threads);
  obs::TraceSpan build_span("index", "build", "threads",
                            static_cast<int64_t>(threads));

  // The range-partitioned scan driver is shared with the scan-mode shape
  // finder; workers count each run into thread-local counters (and sum
  // its tuples' content fingerprints), folded in per worker.
  std::vector<ShapeCounts> local(threads);
  CHASE_RETURN_IF_ERROR(storage::ParallelTupleScan(
      source, source.NonEmptyRelations(), threads,
      [&](unsigned t, PredId pred, storage::TupleRun run) {
        ShapeCounts& counts = local[t];
        uint64_t fingerprint = 0;
        for (size_t r = 0; r < run.rows(); ++r) {
          const std::span<const uint32_t> tuple = run.row(r);
          IdBuffer id;
          counts.Add(ShapeViewOfTuple(pred, tuple, id), 1);
          fingerprint += TupleFingerprint(pred, tuple);
        }
        counts.fingerprint += fingerprint;
      }));
  ShapeIndex index;
  for (ShapeCounts& counts : local) index.MergeCounts(std::move(counts));
  if (obs::MetricsRegistry::enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
    registry.GetCounter("index.builds")->Add(1);
    registry.GetCounter("index.tuples_indexed")
        ->Add(index.NumIndexedTuples());
  }
  return index;
}

Status ShapeIndex::Save(const std::string& path) const {
  io::ShapeSnapshot snapshot;
  {
    MutexLock lock(state_->mu);
    snapshot.fingerprint = state_->fingerprint;
    snapshot.counts.reserve(state_->counts.size());
    // chase-lint: allow(unordered-iter) sorted before emit: entries sorted
    // by shape below, before SaveShapeSnapshot writes a byte
    for (const auto& [shape, count] : state_->counts) {
      snapshot.counts.push_back({shape, count});
    }
  }
  // Snapshot bytes are deterministic: entries sorted by shape.
  std::sort(snapshot.counts.begin(), snapshot.counts.end(),
            [](const io::ShapeCount& a, const io::ShapeCount& b) {
              return a.shape < b.shape;
            });
  return io::SaveShapeSnapshot(snapshot, path);
}

StatusOr<ShapeIndex> ShapeIndex::Load(const std::string& path) {
  CHASE_ASSIGN_OR_RETURN(io::ShapeSnapshot snapshot,
                         io::LoadShapeSnapshot(path));
  ShapeCounts counts;
  // chase-lint: allow(unordered-iter) not a hash map: io::ShapeSnapshot
  // ::counts is a vector, already shape-sorted by Save
  for (const io::ShapeCount& entry : snapshot.counts) {
    counts.Add(entry.shape, entry.count);
  }
  // Shape records don't carry tuple contents; the envelope's fingerprint is
  // the authoritative content digest of the snapshotted database.
  counts.fingerprint = snapshot.fingerprint;
  ShapeIndex index;
  index.MergeCounts(std::move(counts));
  return index;
}

}  // namespace index
}  // namespace chase
