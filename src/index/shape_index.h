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
//    storage::FindShapes (sorted by (pred, id)). Handing it to
//    IsChaseFiniteL as LCheckOptions::precomputed_shapes turns the
//    db-dependent component of a repeated termination check into a
//    dictionary extraction (chasectl check --snapshot).
//  * Persistence: binary snapshots (io/binary_io.h) so a front end can build
//    once and reuse the index across runs.
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
#include "storage/shape_source.h"

namespace chase {
namespace index {

// Order-independent content fingerprint machinery: every indexed tuple
// contributes a mixed hash of its (pred, tuple) pair, and the index keeps
// the running sum. Two databases with equal fingerprints almost surely hold
// the same multiset of facts, so a remove+insert pair that preserves tuple
// counts (which fools a count-only staleness check) still flips the
// fingerprint. Sums (not XORs) so duplicate tuples don't cancel, and
// removal is subtraction.
uint64_t TupleFingerprint(PredId pred, std::span<const uint32_t> tuple);

// The fingerprint a freshly built index over `db` would carry — what the
// snapshot staleness guard compares against.
uint64_t DatabaseFingerprint(const Database& db);

class ShapeIndex {
 public:
  ShapeIndex();

  // Builds the index from any ShapeSource with `threads` range-partitioned
  // scan workers (<= 1 scans serially; works over both the row store and
  // the disk pager). Meters the scan into source.stats() exactly like the
  // scan-mode FindShapes.
  [[nodiscard]] static StatusOr<ShapeIndex> Build(
      const storage::ShapeSource& source, unsigned threads = 1);

  // Records one inserted tuple of `pred`, maintaining the content
  // fingerprint from the actual tuple.
  void Insert(PredId pred, std::span<const uint32_t> tuple) {
    // chase-lint: allow(scan-id-alloc) one tuple per update, not a scan
    AddShape(Shape(pred, IdOf(tuple)), TupleFingerprint(pred, tuple));
  }

  // Records one deleted tuple of `pred`. Fails with kFailedPrecondition if
  // no tuple with that shape is indexed (the counter would go negative).
  [[nodiscard]] Status Remove(PredId pred, std::span<const uint32_t> tuple) {
    // chase-lint: allow(scan-id-alloc) one tuple per update, not a scan
    return RemoveShape(Shape(pred, IdOf(tuple)),
                       TupleFingerprint(pred, tuple));
  }

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
  // chase-lint: allow(node-shape-container) Remove erases a shape whose
  // count drops to zero, which a FlatSet cannot; the index is maintained
  // per update and built once, off the check's scan path.
  using CountMap = std::unordered_map<Shape, uint64_t, ShapeHash>;

  // Behind a unique_ptr so the index stays movable despite its latch.
  struct State {
    mutable Mutex mu;
    CountMap counts GUARDED_BY(mu);
    uint64_t tuples GUARDED_BY(mu) = 0;  // sum of counts
    // Sum of TupleFingerprint over indexed tuples (see above).
    uint64_t fingerprint GUARDED_BY(mu) = 0;
  };

  // Unlatched counters a build worker (or a snapshot load) fills before
  // folding them in: counts[i] tuples carry shapes[i], probed by ShapeView
  // so a tuple whose shape is already counted allocates nothing.
  struct ShapeCounts {
    ShapeSet shapes;
    std::vector<uint64_t> counts;
    uint64_t fingerprint = 0;  // sum of the counted tuples' fingerprints

    void Add(ShapeView shape, uint64_t n) {
      const auto [index, admitted] = shapes.Insert(shape);
      if (admitted) counts.push_back(0);
      counts[index] += n;
    }
  };

  // One tuple carrying `shape`, whose TupleFingerprint is `fingerprint`.
  void AddShape(const Shape& shape, uint64_t fingerprint);
  [[nodiscard]] Status RemoveShape(const Shape& shape, uint64_t fingerprint);

  // Folds a worker's counters and fingerprint sum in.
  void MergeCounts(ShapeCounts local);

  std::unique_ptr<State> state_;
};

}  // namespace index
}  // namespace chase

#endif  // CHASE_INDEX_SHAPE_INDEX_H_
