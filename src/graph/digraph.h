// A compact directed graph with optionally "special" edges, stored in CSR
// form with both forward and reverse adjacency. The reverse adjacency is the
// paper's "doubly linked" adjacency list (Section 5.1): it lets the Supports
// check traverse the dependency graph against the edge direction.

#ifndef CHASE_GRAPH_DIGRAPH_H_
#define CHASE_GRAPH_DIGRAPH_H_

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

namespace chase {

struct Edge {
  uint32_t from;
  uint32_t to;
  bool special;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.from == b.from && a.to == b.to && a.special == b.special;
  }
  friend bool operator<(const Edge& a, const Edge& b) {
    return std::tie(a.from, a.to, a.special) <
           std::tie(b.from, b.to, b.special);
  }
};

// Sorts `edges` by (from, to, special) and drops exact duplicates:
// BuildDependencyGraph's dedup step (parallel edges are irrelevant for
// SCCs, and each distinct edge is counted once).
void SortUniqueEdges(std::vector<Edge>& edges);

// Target of an adjacency entry.
struct Arc {
  uint32_t node;
  bool special;
};

class Digraph {
 public:
  Digraph() = default;

  // Builds the CSR representation from an edge list (duplicates allowed).
  Digraph(uint32_t num_nodes, const std::vector<Edge>& edges);

  uint32_t num_nodes() const { return num_nodes_; }
  size_t num_edges() const { return forward_.size(); }
  size_t num_special_edges() const { return num_special_edges_; }

  std::span<const Arc> OutArcs(uint32_t node) const {
    return {forward_.data() + forward_offsets_[node],
            forward_offsets_[node + 1] - forward_offsets_[node]};
  }
  std::span<const Arc> InArcs(uint32_t node) const {
    return {reverse_.data() + reverse_offsets_[node],
            reverse_offsets_[node + 1] - reverse_offsets_[node]};
  }

 private:
  uint32_t num_nodes_ = 0;
  size_t num_special_edges_ = 0;
  std::vector<uint32_t> forward_offsets_;
  std::vector<Arc> forward_;
  std::vector<uint32_t> reverse_offsets_;
  std::vector<Arc> reverse_;
};

}  // namespace chase

#endif  // CHASE_GRAPH_DIGRAPH_H_
