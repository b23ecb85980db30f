#include "graph/digraph.h"

#include <algorithm>

namespace chase {

void SortUniqueEdges(std::vector<Edge>& edges) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
}

Digraph::Digraph(uint32_t num_nodes, const std::vector<Edge>& edges)
    : num_nodes_(num_nodes) {
  forward_offsets_.assign(num_nodes + 1, 0);
  reverse_offsets_.assign(num_nodes + 1, 0);
  for (const Edge& edge : edges) {
    ++forward_offsets_[edge.from + 1];
    ++reverse_offsets_[edge.to + 1];
    if (edge.special) ++num_special_edges_;
  }
  for (uint32_t node = 0; node < num_nodes; ++node) {
    forward_offsets_[node + 1] += forward_offsets_[node];
    reverse_offsets_[node + 1] += reverse_offsets_[node];
  }
  forward_.resize(edges.size());
  reverse_.resize(edges.size());
  std::vector<uint32_t> forward_fill(forward_offsets_.begin(),
                                     forward_offsets_.end() - 1);
  std::vector<uint32_t> reverse_fill(reverse_offsets_.begin(),
                                     reverse_offsets_.end() - 1);
  for (const Edge& edge : edges) {
    forward_[forward_fill[edge.from]++] = Arc{edge.to, edge.special};
    reverse_[reverse_fill[edge.to]++] = Arc{edge.from, edge.special};
  }
}

}  // namespace chase
