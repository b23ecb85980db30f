#include "storage/catalog.h"

#include "logic/schema.h"

namespace chase {
namespace storage {

std::vector<PredId> Catalog::ListNonEmptyRelations() const {
  ++stats_.catalog_queries;
  return database_->NonEmptyPredicates();
}

}  // namespace storage
}  // namespace chase
