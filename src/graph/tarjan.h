// Tarjan's strongly connected components algorithm (iterative, so graphs
// with millions of nodes do not overflow the call stack), plus the special-
// SCC detection that FindSpecialSCC (Section 5.2) needs.
//
// An SCC is *special* if it contains a special edge, i.e., some special edge
// has both endpoints inside the component — exactly the witnesses of cycles
// with a special edge required by (non-uniform) weak-acyclicity. The
// paper's FindSpecialSCC instead pushes a dummy token when it traverses a
// special edge; a special edge into an already-finished SCC (a cross link)
// then marks the source's component although the edge leaves it, an
// over-approximation. Comparing both endpoints' component ids once Tarjan
// has finished is exact and costs one pass over the arcs.

#ifndef CHASE_GRAPH_TARJAN_H_
#define CHASE_GRAPH_TARJAN_H_

#include <cstdint>
#include <vector>

#include "graph/digraph.h"

namespace chase {

struct SccResult {
  // component[v] is the SCC id of node v. Tarjan emits components in reverse
  // topological order: if there is an edge u -> v across components, then
  // component[u] > component[v].
  std::vector<uint32_t> component;
  uint32_t num_components = 0;
};

SccResult TarjanScc(const Digraph& graph);

struct SpecialSccs {
  // Ids (w.r.t. SccResult::component) of the special SCCs.
  std::vector<uint32_t> components;
  // One arbitrary member node per special SCC, parallel to `components`.
  // Algorithm 1 uses exactly one representative per special SCC for the
  // support check ("it is not important how v_C is selected").
  std::vector<uint32_t> representatives;

  bool empty() const { return components.empty(); }
};

// Finds the special SCCs of `graph` given its SCC decomposition.
SpecialSccs FindSpecialSccs(const Digraph& graph, const SccResult& scc);

// Convenience wrapper: Tarjan + special-SCC scan.
SpecialSccs FindSpecialSccs(const Digraph& graph);

}  // namespace chase

#endif  // CHASE_GRAPH_TARJAN_H_
