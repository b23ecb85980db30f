// A thin DBMS-style facade over a Database. The paper stores databases in
// PostgreSQL and interacts with them through (a) the system catalog (to list
// non-empty relations without touching data, Section 5.3) and (b) SQL
// queries (Section 5.4). Catalog reproduces that interface over the
// in-memory row store and meters the work performed, so benches can report
// query counts and scanned-tuple counts.

#ifndef CHASE_STORAGE_CATALOG_H_
#define CHASE_STORAGE_CATALOG_H_

#include <cstdint>
#include <vector>

#include "logic/database.h"
#include "logic/schema.h"

namespace chase {
namespace storage {

struct AccessStats {
  uint64_t catalog_queries = 0;
  uint64_t exists_queries = 0;
  uint64_t tuples_scanned = 0;
  uint64_t relations_loaded = 0;  // scan-mode FindShapes bulk loads

  void Reset() { *this = AccessStats(); }

  // Adds `other`'s counters; the parallel shape finders accumulate into
  // thread-local stats and merge them here.
  void MergeFrom(const AccessStats& other) {
    catalog_queries += other.catalog_queries;
    exists_queries += other.exists_queries;
    tuples_scanned += other.tuples_scanned;
    relations_loaded += other.relations_loaded;
  }
};

class Catalog {
 public:
  // `database` must outlive the catalog.
  explicit Catalog(const Database* database) : database_(database) {}

  const Database& database() const { return *database_; }

  // The catalog query of Section 5.3: the list of non-empty relations,
  // answered from metadata only (no tuple access).
  std::vector<PredId> ListNonEmptyRelations() const;

  AccessStats& stats() const { return stats_; }

 private:
  const Database* database_;
  mutable AccessStats stats_;
};

}  // namespace storage
}  // namespace chase

#endif  // CHASE_STORAGE_CATALOG_H_
