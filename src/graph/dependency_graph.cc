#include "graph/dependency_graph.h"

#include "graph/digraph.h"
#include "logic/atom.h"
#include "logic/schema.h"
#include "logic/tgd.h"

namespace chase {

DependencyGraph BuildDependencyGraph(const Schema& schema,
                                     const std::vector<Tgd>& tgds) {
  const auto num_nodes = static_cast<uint32_t>(schema.NumPositions());
  std::vector<Edge> edges;
  for (const Tgd& tgd : tgds) {
    for (VarId x : tgd.frontier()) {
      for (const RuleAtom& body_atom : tgd.body()) {
        for (uint32_t i = 0; i < body_atom.args.size(); ++i) {
          if (body_atom.args[i] != x) continue;
          const uint32_t from = schema.PositionId(body_atom.pred, i);
          for (const RuleAtom& head_atom : tgd.head()) {
            for (uint32_t j = 0; j < head_atom.args.size(); ++j) {
              const VarId head_var = head_atom.args[j];
              const uint32_t to = schema.PositionId(head_atom.pred, j);
              if (head_var == x || tgd.IsExistential(head_var)) {
                edges.push_back(Edge{from, to, /*special=*/head_var != x});
              }
            }
          }
        }
      }
    }
  }
  SortUniqueEdges(edges);
  return DependencyGraph(&schema, Digraph(num_nodes, edges));
}

}  // namespace chase
