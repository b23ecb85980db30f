#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "base/rng.h"
#include "graph/dependency_graph.h"
#include "graph/digraph.h"
#include "graph/dot.h"
#include "graph/kosaraju.h"
#include "graph/reachability.h"
#include "graph/tarjan.h"
#include "logic/parser.h"

namespace chase {
namespace {

Digraph MakeGraph(uint32_t n, std::vector<Edge> edges) {
  return Digraph(n, edges);
}

TEST(DigraphTest, AdjacencyAndReverseAdjacency) {
  Digraph g = MakeGraph(3, {{0, 1, false}, {1, 2, true}, {0, 2, false}});
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_special_edges(), 1u);
  EXPECT_EQ(g.OutArcs(0).size(), 2u);
  EXPECT_EQ(g.OutArcs(1).size(), 1u);
  EXPECT_TRUE(g.OutArcs(1)[0].special);
  EXPECT_EQ(g.InArcs(2).size(), 2u);
  EXPECT_EQ(g.InArcs(0).size(), 0u);
}

TEST(TarjanTest, SingleCycle) {
  Digraph g = MakeGraph(3, {{0, 1, false}, {1, 2, false}, {2, 0, false}});
  SccResult scc = TarjanScc(g);
  EXPECT_EQ(scc.num_components, 1u);
  EXPECT_EQ(scc.component[0], scc.component[1]);
  EXPECT_EQ(scc.component[1], scc.component[2]);
}

TEST(TarjanTest, Dag) {
  Digraph g = MakeGraph(4, {{0, 1, false}, {1, 2, false}, {1, 3, false}});
  SccResult scc = TarjanScc(g);
  EXPECT_EQ(scc.num_components, 4u);
  // Reverse topological order: edges go from higher to lower component ids.
  EXPECT_GT(scc.component[0], scc.component[1]);
  EXPECT_GT(scc.component[1], scc.component[2]);
  EXPECT_GT(scc.component[1], scc.component[3]);
}

TEST(TarjanTest, SelfLoop) {
  Digraph g = MakeGraph(2, {{0, 0, true}, {0, 1, false}});
  SccResult scc = TarjanScc(g);
  EXPECT_EQ(scc.num_components, 2u);
  SpecialSccs special = FindSpecialSccs(g, scc);
  ASSERT_EQ(special.components.size(), 1u);
  EXPECT_EQ(special.representatives[0], 0u);
}

TEST(TarjanTest, EmptyGraph) {
  Digraph g = MakeGraph(0, {});
  SccResult scc = TarjanScc(g);
  EXPECT_EQ(scc.num_components, 0u);
  EXPECT_TRUE(FindSpecialSccs(g, scc).empty());
}

TEST(SpecialSccTest, SpecialEdgeInsideCycle) {
  Digraph g = MakeGraph(3, {{0, 1, true}, {1, 0, false}, {1, 2, true}});
  SpecialSccs special = FindSpecialSccs(g);
  ASSERT_EQ(special.components.size(), 1u);
}

TEST(SpecialSccTest, SpecialEdgeBetweenSccsDoesNotCount) {
  // Cycle {0,1} (normal edges) -> 2 via special edge; no special SCC.
  Digraph g = MakeGraph(3, {{0, 1, false}, {1, 0, false}, {1, 2, true}});
  EXPECT_TRUE(FindSpecialSccs(g).empty());
}

TEST(SpecialSccTest, SpecialCrossLinkToEarlierSccDoesNotCount) {
  // This is the case where the paper's literal dummy-token trick would
  // over-approximate: a special edge from an SCC into an already-finished
  // SCC (see graph/tarjan.h). 2 -> {0,1} special, {0,1} and {2,3} are
  // cycles.
  Digraph g = MakeGraph(4, {{0, 1, false},
                            {1, 0, false},
                            {2, 0, true},
                            {2, 3, false},
                            {3, 2, false}});
  EXPECT_TRUE(FindSpecialSccs(g).empty());
}

TEST(SpecialSccTest, MultipleSpecialSccs) {
  Digraph g = MakeGraph(5, {{0, 1, true},
                            {1, 0, false},
                            {2, 3, true},
                            {3, 2, true},
                            {1, 2, false}});
  SpecialSccs special = FindSpecialSccs(g);
  EXPECT_EQ(special.components.size(), 2u);
  EXPECT_EQ(special.representatives.size(), 2u);
}

// Brute-force special-cycle detection for cross-checking: is there a cycle
// through some special edge? Equivalent to: some special edge (u,v) with v
// able to reach u.
bool BruteForceHasSpecialCycle(uint32_t n, const std::vector<Edge>& edges) {
  auto reaches = [&](uint32_t from, uint32_t to) {
    std::vector<bool> seen(n, false);
    std::vector<uint32_t> work = {from};
    seen[from] = true;
    while (!work.empty()) {
      uint32_t v = work.back();
      work.pop_back();
      if (v == to) return true;
      for (const Edge& e : edges) {
        if (e.from == v && !seen[e.to]) {
          seen[e.to] = true;
          work.push_back(e.to);
        }
      }
    }
    return false;
  };
  for (const Edge& e : edges) {
    if (e.special && reaches(e.to, e.from)) return true;
  }
  return false;
}

TEST(SpecialSccTest, MatchesBruteForceOnRandomGraphs) {
  Rng rng(2024);
  for (int trial = 0; trial < 300; ++trial) {
    const uint32_t n = 2 + rng.Below(8);
    const uint32_t m = rng.Below(2 * n + 1);
    std::vector<Edge> edges;
    for (uint32_t i = 0; i < m; ++i) {
      edges.push_back(Edge{static_cast<uint32_t>(rng.Below(n)),
                           static_cast<uint32_t>(rng.Below(n)),
                           rng.Percent(30)});
    }
    Digraph g(n, edges);
    EXPECT_EQ(!FindSpecialSccs(g).empty(),
              BruteForceHasSpecialCycle(n, edges))
        << "trial " << trial;
  }
}

// Canonical form of an SCC decomposition: map each node to the sorted list
// of nodes in its component.
std::vector<std::vector<uint32_t>> CanonicalSccs(const SccResult& scc) {
  std::map<uint32_t, std::vector<uint32_t>> groups;
  for (uint32_t v = 0; v < scc.component.size(); ++v) {
    groups[scc.component[v]].push_back(v);
  }
  std::vector<std::vector<uint32_t>> out;
  for (auto& [comp, members] : groups) out.push_back(members);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(TarjanTest, AgreesWithKosarajuOnRandomGraphs) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const uint32_t n = 1 + rng.Below(40);
    const uint32_t m = rng.Below(3 * n);
    std::vector<Edge> edges;
    for (uint32_t i = 0; i < m; ++i) {
      edges.push_back(Edge{static_cast<uint32_t>(rng.Below(n)),
                           static_cast<uint32_t>(rng.Below(n)), false});
    }
    Digraph g(n, edges);
    SccResult tarjan = TarjanScc(g);
    SccResult kosaraju = KosarajuScc(g);
    EXPECT_EQ(tarjan.num_components, kosaraju.num_components);
    EXPECT_EQ(CanonicalSccs(tarjan), CanonicalSccs(kosaraju))
        << "trial " << trial;
  }
}

TEST(ReachabilityTest, ForwardAndReverse) {
  Digraph g = MakeGraph(5, {{0, 1, false},
                            {1, 2, false},
                            {3, 1, false},
                            {4, 4, false}});
  std::vector<uint32_t> seeds = {1};
  auto forward = ForwardReachable(g, seeds);
  EXPECT_FALSE(forward[0]);
  EXPECT_TRUE(forward[1]);
  EXPECT_TRUE(forward[2]);
  EXPECT_FALSE(forward[3]);
  auto reverse = ReverseReachable(g, seeds);
  EXPECT_TRUE(reverse[0]);
  EXPECT_TRUE(reverse[1]);
  EXPECT_FALSE(reverse[2]);
  EXPECT_TRUE(reverse[3]);
  EXPECT_FALSE(reverse[4]);
}

Program MustParse(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

TEST(DependencyGraphTest, NormalAndSpecialEdges) {
  // r(x,y) -> s(y,z): normal (r,2)->(s,1); special (r,2)->(s,2) from y's
  // position; x is not frontier so (r,1) contributes nothing.
  Program p = MustParse("r(X,Y) -> s(Y,Z).");
  DependencyGraph g = BuildDependencyGraph(*p.schema, p.tgds);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.num_special_edges(), 1u);
  const Schema& schema = *p.schema;
  const PredId r = schema.FindPredicate("r").value();
  const PredId s = schema.FindPredicate("s").value();
  const uint32_t r1 = schema.PositionId(r, 1);
  bool saw_normal = false, saw_special = false;
  for (const Arc& arc : g.graph().OutArcs(r1)) {
    if (arc.special) {
      saw_special = arc.node == schema.PositionId(s, 1);
    } else {
      saw_normal = arc.node == schema.PositionId(s, 0);
    }
  }
  EXPECT_TRUE(saw_normal);
  EXPECT_TRUE(saw_special);
}

TEST(DependencyGraphTest, CanonicalNonWeaklyAcyclicExample) {
  // e(x,y) -> exists z e(y,z): position (e,2) carries a special self-loop,
  // the textbook witness of non-termination.
  Program p = MustParse("e(X,Y) -> e(Y,Z).");
  DependencyGraph g = BuildDependencyGraph(*p.schema, p.tgds);
  EXPECT_FALSE(FindSpecialSccs(g.graph()).empty());
}

TEST(DependencyGraphTest, CopyRuleHasNoSpecialEdge) {
  Program p = MustParse("r(X,Y) -> s(X,Y).");
  DependencyGraph g = BuildDependencyGraph(*p.schema, p.tgds);
  EXPECT_EQ(g.num_special_edges(), 0u);
  EXPECT_TRUE(FindSpecialSccs(g.graph()).empty());
}

TEST(DependencyGraphTest, DeduplicatesParallelEdges) {
  // Both rules produce the identical edge set.
  Program p = MustParse("r(X,Y) -> s(Y,Z).\nr(A,B) -> s(B,C).");
  DependencyGraph g = BuildDependencyGraph(*p.schema, p.tgds);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(DependencyGraphTest, MultiHeadRule) {
  // r(x,y) -> s(y,z), t(z): y's position links to (s,1) normal and to (s,2),
  // (t,1) special.
  Program p = MustParse("r(X,Y) -> s(Y,Z), t(Z).");
  DependencyGraph g = BuildDependencyGraph(*p.schema, p.tgds);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_special_edges(), 2u);
}

TEST(DependencyGraphTest, RepeatedFrontierVariableFansOut) {
  // r(x) -> s(x,x): one body position, two normal edges.
  Program p = MustParse("r(X) -> s(X,X).");
  DependencyGraph g = BuildDependencyGraph(*p.schema, p.tgds);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.num_special_edges(), 0u);
}

TEST(DependencyGraphTest, PredicateReachability) {
  Program p = MustParse("r(X,Y) -> s(Y,Z).\ns(X,Y) -> t(X,Y).");
  DependencyGraph g = BuildDependencyGraph(*p.schema, p.tgds);
  const PredId r = p.schema->FindPredicate("r").value();
  const PredId s = p.schema->FindPredicate("s").value();
  const PredId t = p.schema->FindPredicate("t").value();
  EXPECT_TRUE(PredicateReachable(g, r, t));
  EXPECT_TRUE(PredicateReachable(g, s, t));
  EXPECT_TRUE(PredicateReachable(g, r, r));  // R == P base case
  EXPECT_FALSE(PredicateReachable(g, t, r));
}

TEST(DotTest, RendersNodesAndEdgeStyles) {
  Program p = MustParse("e(X,Y) -> e(Y,Z).");
  DependencyGraph g = BuildDependencyGraph(*p.schema, p.tgds);
  const std::string dot = ToDot(g);
  EXPECT_NE(dot.find("digraph dg"), std::string::npos);
  // Normal edge (e,2) -> (e,1) via Y; special edges via Z dashed red.
  EXPECT_NE(dot.find("\"e.2\" -> \"e.1\";"), std::string::npos);
  EXPECT_NE(dot.find("[style=dashed, color=red]"), std::string::npos);
  // The rule diverges: its special SCC nodes are highlighted.
  EXPECT_NE(dot.find("fillcolor"), std::string::npos);
}

TEST(DotTest, SkipsIsolatedNodesByDefault) {
  Program p = MustParse("lonely(a,b,c).\ne(X,Y) -> e(Y,Z).");
  DependencyGraph g = BuildDependencyGraph(*p.schema, p.tgds);
  const std::string dot = ToDot(g);
  EXPECT_EQ(dot.find("lonely"), std::string::npos);
  DotOptions options;
  options.skip_isolated_nodes = false;
  EXPECT_NE(ToDot(g, options).find("lonely"), std::string::npos);
}

TEST(DotTest, AcyclicGraphHasNoHighlight) {
  Program p = MustParse("a(X) -> b(X,Z).");
  DependencyGraph g = BuildDependencyGraph(*p.schema, p.tgds);
  EXPECT_EQ(ToDot(g).find("fillcolor"), std::string::npos);
}

TEST(DependencyGraphTest, MultiAtomBodyTgd) {
  // Non-linear TGDs are supported by the graph builder (the dependency
  // graph is defined for arbitrary TGDs in Section 3).
  Program p = MustParse("r(X,Y), s(Y,W) -> t(X,Z).");
  DependencyGraph g = BuildDependencyGraph(*p.schema, p.tgds);
  // x occurs at (r,1): normal edge to (t,1), special edge to (t,2).
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.num_special_edges(), 1u);
}

}  // namespace
}  // namespace chase
