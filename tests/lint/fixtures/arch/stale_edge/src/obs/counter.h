// obs -> base: the include that keeps the obs edge live.
#ifndef FIXTURE_OBS_COUNTER_H_
#define FIXTURE_OBS_COUNTER_H_

#include "base/dep.h"

namespace fixture {
struct Counter {
  Dep last;
};
}  // namespace fixture

#endif  // FIXTURE_OBS_COUNTER_H_
