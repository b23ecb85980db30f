// The dependency graph dg(Σ) of a set of TGDs (Section 3).
//
// Nodes are the predicate positions of sch(Σ). For each TGD σ, each frontier
// variable x, and each position π at which x occurs in the body:
//   * a normal edge (π, π') for every position π' of x in a head atom, and
//   * a special edge (π, π') for every position π' of an existentially
//     quantified variable in a head atom.
//
// dg(Σ) is formally a multigraph, but parallel edges are irrelevant for
// cycle/SCC detection, so BuildDependencyGraph deduplicates (from, to,
// special) triples exactly (SortUniqueEdges) — this matches the paper's
// appendix, which counts each distinct edge once. The edge list is sorted,
// so every node's adjacency ascends by (to, special). Construction is a
// single pass over the TGDs using the schema's dense position index (the
// "index structure" of Section 5.1).

#ifndef CHASE_GRAPH_DEPENDENCY_GRAPH_H_
#define CHASE_GRAPH_DEPENDENCY_GRAPH_H_

#include <vector>

#include "graph/digraph.h"
#include "logic/schema.h"
#include "logic/tgd.h"

namespace chase {

class DependencyGraph {
 public:
  DependencyGraph(const Schema* schema, Digraph graph)
      : schema_(schema), graph_(std::move(graph)) {}

  const Schema& schema() const { return *schema_; }
  const Digraph& graph() const { return graph_; }

  uint32_t num_nodes() const { return graph_.num_nodes(); }
  size_t num_edges() const { return graph_.num_edges(); }
  size_t num_special_edges() const { return graph_.num_special_edges(); }

  // The position encoded by a node id.
  Position PositionOf(uint32_t node) const {
    return schema_->PositionFromId(node);
  }
  uint32_t NodeOf(const Position& position) const {
    return schema_->PositionId(position);
  }

 private:
  const Schema* schema_;
  Digraph graph_;
};

// Builds dg(Σ). `schema` must contain every predicate used by `tgds` and must
// outlive the returned graph.
DependencyGraph BuildDependencyGraph(const Schema& schema,
                                     const std::vector<Tgd>& tgds);

}  // namespace chase

#endif  // CHASE_GRAPH_DEPENDENCY_GRAPH_H_
