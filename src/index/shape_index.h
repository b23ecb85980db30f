// ShapeIndex: the materialized, incrementally maintained shape(D) of
// Section 10.
//
// The paper's conclusion singles out "materialize and incrementally keep
// updated the shapes in a database" as the way to improve the db-dependent
// component, whose FindShapes scan dominates the end-to-end runtime of
// IsChaseFinite[L]. This class is that materialized view: a multiset of
// shapes with one counter per (predicate, id-tuple).
//
//  * Insert/Remove: O(arity²) to compute the tuple's id-tuple plus one hash
//    update under one latch — independent of the database size. The
//    counters make deletions exact: a shape disappears only when the last
//    tuple carrying it is removed.
//  * Build: range-partitioned parallel scan over any storage::ShapeSource
//    (row store or buffer-pooled disk pager), workers accumulating into
//    thread-local counters that are folded in once per worker.
//  * Reads: CurrentShapes() is the sorted shape set — identical output to
//    storage::FindShapes (sorted by (pred, id)).
//  * Persistence: binary snapshots (io/binary_io.h) so a front end can build
//    once and reuse the index across runs.
//
// Write-through integration points: ChaseOptions::shape_index routes every
// chase atom insert through the index, and core::IsChaseFiniteL's
// LCheckOptions::shape_index reads it back, which turns the db-dependent
// component of every repeated termination check into a dictionary
// extraction.
//
// Thread safety: every method is safe to call concurrently; one latch
// guards the counters, the tuple total and the content fingerprint.

#ifndef CHASE_INDEX_SHAPE_INDEX_H_
#define CHASE_INDEX_SHAPE_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/sync.h"
#include "logic/database.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "logic/term.h"
#include "storage/shape_source.h"

namespace chase {
namespace index {

struct IndexBuildOptions {
  unsigned threads = 1;  // <= 1 scans serially
  // When non-null the build's scan runs on this caller-owned persistent
  // WorkerPool (its thread count wins over `threads`) — see
  // storage::ParallelTupleScan.
  WorkerPool* pool = nullptr;
};

// Order-independent content fingerprint machinery: every indexed tuple
// contributes a mixed hash of its (pred, tuple) pair, and the index keeps
// the running sum. Two databases with equal fingerprints almost surely hold
// the same multiset of facts, so a remove+insert pair that preserves tuple
// counts (which fools a count-only staleness check) still flips the
// fingerprint. Sums (not XORs) so duplicate tuples don't cancel, and
// removal is subtraction. The uint32_t and Term forms agree on constants
// (a constant id widens to the same 64-bit term encoding).
uint64_t TupleFingerprint(PredId pred, std::span<const uint32_t> tuple);
uint64_t TupleFingerprint(PredId pred, std::span<const Term> tuple);

// The fingerprint a freshly built index over `db` would carry — what the
// snapshot staleness guard compares against.
uint64_t DatabaseFingerprint(const Database& db);

class ShapeIndex {
 public:
  ShapeIndex();

  // Builds the index from any ShapeSource with `options.threads`
  // range-partitioned scan workers (so this works over both the row store
  // and the disk pager). Meters the scan into source.stats() exactly like
  // the scan-mode FindShapes.
  [[nodiscard]] static StatusOr<ShapeIndex> Build(
      const storage::ShapeSource& source,
      const IndexBuildOptions& options = {});

  // Convenience: serial build straight from a raw database.
  static ShapeIndex Build(const Database& db);

  // Records one inserted tuple of `pred`. The uint32_t overload serves the
  // row store; the Term overload serves chase instances — a shape depends
  // only on the tuple's equality pattern, so nulls and constants index
  // identically. Both maintain the content fingerprint from the actual
  // tuple.
  void Insert(PredId pred, std::span<const uint32_t> tuple) {
    AddShape(Shape(pred, IdOf(tuple)), 1, TupleFingerprint(pred, tuple));
  }
  void Insert(PredId pred, std::span<const Term> tuple) {
    AddShape(Shape(pred, IdOf(tuple)), 1, TupleFingerprint(pred, tuple));
  }

  // Records `count` tuples carrying `shape` directly (the write-through fast
  // path when the caller already computed the shape). `fingerprint` is the
  // tuples' total TupleFingerprint contribution; callers that cannot supply
  // it (shape-only replay) pass 0 and forfeit the staleness guard.
  void AddShape(const Shape& shape, uint64_t count = 1,
                uint64_t fingerprint = 0);

  // Records one deleted tuple of `pred`. Fails with kFailedPrecondition if
  // no tuple with that shape is indexed (the counter would go negative).
  [[nodiscard]] Status Remove(PredId pred, std::span<const uint32_t> tuple) {
    return RemoveShape(Shape(pred, IdOf(tuple)),
                       TupleFingerprint(pred, tuple));
  }
  [[nodiscard]] Status Remove(PredId pred, std::span<const Term> tuple) {
    return RemoveShape(Shape(pred, IdOf(tuple)),
                       TupleFingerprint(pred, tuple));
  }
  [[nodiscard]]
  Status RemoveShape(const Shape& shape, uint64_t fingerprint = 0);

  bool Contains(const Shape& shape) const;

  // Number of indexed tuples currently carrying `shape`.
  uint64_t Count(const Shape& shape) const;

  // Distinct shapes currently present.
  size_t NumShapes() const;

  // Total indexed tuples (sum of all counters).
  uint64_t NumIndexedTuples() const;

  // Order-independent content fingerprint of the indexed tuples; equals
  // DatabaseFingerprint(db) for an index maintained from db's update
  // stream. Persisted in snapshots and compared by the staleness guard.
  uint64_t ContentFingerprint() const;

  // shape(D) sorted by (pred, id) — same contract as storage::FindShapes.
  std::vector<Shape> CurrentShapes() const;

  // Snapshot persistence (format: io/binary_io.h).
  [[nodiscard]] Status Save(const std::string& path) const;
  [[nodiscard]] static StatusOr<ShapeIndex> Load(const std::string& path);

 private:
  using CountMap = std::unordered_map<Shape, uint64_t, ShapeHash>;

  // Behind a unique_ptr so the index stays movable despite its latch.
  struct State {
    mutable Mutex mu;
    CountMap counts GUARDED_BY(mu);
    uint64_t tuples GUARDED_BY(mu) = 0;  // sum of counts
    // Sum of TupleFingerprint over indexed tuples (see above).
    uint64_t fingerprint GUARDED_BY(mu) = 0;
  };

  // Folds a worker's thread-local counters and fingerprint sum in.
  void MergeCounts(CountMap counts, uint64_t fingerprint);

  std::unique_ptr<State> state_;
};

}  // namespace index
}  // namespace chase

#endif  // CHASE_INDEX_SHAPE_INDEX_H_
