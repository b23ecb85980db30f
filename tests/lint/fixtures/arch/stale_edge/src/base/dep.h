// A guarded bottom-layer header.
#ifndef FIXTURE_BASE_DEP_H_
#define FIXTURE_BASE_DEP_H_

namespace fixture {
struct Dep {
  int payload = 0;
};
}  // namespace fixture

#endif  // FIXTURE_BASE_DEP_H_
