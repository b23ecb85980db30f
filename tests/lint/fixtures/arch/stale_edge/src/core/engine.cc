// core -> obs only: the manifest's core -> base edge has no include
// behind it. Uses nothing of base by name, so no transitive-include
// finding either.
#include "obs/counter.h"

namespace fixture {

int Reset(Counter* counter) {
  *counter = Counter();
  return 0;
}

}  // namespace fixture
