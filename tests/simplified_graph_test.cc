// dg(simple_D(Σ)), the graph IsChaseFiniteL decides on, checked three
// ways for every linear generator family, several seeds and threads
// {1, 2, 4, 8}: DynamicSimplificationFromShapes must emit the same TGDs at
// every thread count; IsChaseFiniteL must report exactly the sizes and the
// verdict of BuildDependencyGraph on that result; and where simple(Σ) is
// small, the verdict must match IsChaseFiniteLStatic (Theorem 3.6).
// Hand-written rules pin the exact edges for the position patterns a
// specialization can produce: a repeated existential, a repeated frontier
// variable, a body shape that merges frontier variables, and multi-atom
// heads.
//
// Runs under ThreadSanitizer in CI (threads > 1 share the closure's
// worker pool).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/rng.h"
#include "core/dynamic_simplification.h"
#include "core/is_chase_finite.h"
#include "core/simplification.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "graph/dependency_graph.h"
#include "graph/digraph.h"
#include "graph/tarjan.h"
#include "logic/parser.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

constexpr unsigned kThreadSweep[] = {1, 2, 4, 8};

// simple(Σ) sizes up to this are cheap enough for the static reference.
constexpr uint64_t kStaticLimit = 20'000;

std::vector<Edge> EdgesOf(const Digraph& graph) {
  std::vector<Edge> edges;
  for (uint32_t node = 0; node < graph.num_nodes(); ++node) {
    for (const Arc& arc : graph.OutArcs(node)) {
      edges.push_back(Edge{node, arc.node, arc.special});
    }
  }
  return edges;
}

std::vector<Shape> ShapesOf(const Database& database) {
  storage::Catalog catalog(&database);
  storage::MemoryShapeSource source(&catalog);
  auto shapes = storage::FindShapes(source);
  EXPECT_TRUE(shapes.ok()) << shapes.status();
  return std::move(shapes).value();
}

struct CheckedGraph {
  size_t edges = 0;
  bool finite = true;
};

// Runs the checks above on one program and returns the graph's edge count
// and verdict, so callers can check their cases are not vacuous.
CheckedGraph ExpectConsistentGraph(const Database& database,
                                   const std::vector<Tgd>& tgds,
                                   const std::string& label) {
  const Schema& schema = database.schema();
  const std::vector<Shape> shapes = ShapesOf(database);
  auto simplified = DynamicSimplificationFromShapes(schema, tgds, shapes, 1);
  EXPECT_TRUE(simplified.ok()) << label << ": " << simplified.status();
  if (!simplified.ok()) return {};
  const DependencyGraph graph = BuildDependencyGraph(
      simplified->shape_schema->schema(), simplified->tgds);
  const bool finite = FindSpecialSccs(graph.graph()).empty();

  for (unsigned threads : kThreadSweep) {
    const std::string where = label + ", threads " + std::to_string(threads);
    auto parallel =
        DynamicSimplificationFromShapes(schema, tgds, shapes, threads);
    EXPECT_TRUE(parallel.ok()) << where << ": " << parallel.status();
    if (!parallel.ok()) continue;
    EXPECT_EQ(parallel->tgds, simplified->tgds) << where;
    EXPECT_EQ(parallel->shape_schema->NumShapes(),
              simplified->shape_schema->NumShapes())
        << where;
    EXPECT_EQ(parallel->num_derived_shapes, simplified->num_derived_shapes)
        << where;

    LCheckOptions options;
    options.simplify_threads = threads;
    LCheckStats stats;
    auto verdict = IsChaseFiniteL(database, tgds, options, &stats);
    EXPECT_TRUE(verdict.ok()) << where << ": " << verdict.status();
    if (verdict.ok()) {
      EXPECT_EQ(*verdict, finite) << where;
    }
    EXPECT_EQ(stats.graph_nodes, graph.num_nodes()) << where;
    EXPECT_EQ(stats.graph_edges, graph.num_edges()) << where;
    EXPECT_EQ(stats.num_simplified_tgds, simplified->tgds.size()) << where;
    EXPECT_EQ(stats.num_initial_shapes, simplified->num_initial_shapes)
        << where;
    EXPECT_EQ(stats.num_derived_shapes, simplified->num_derived_shapes)
        << where;
  }

  if (StaticSimplificationSize(tgds) <= kStaticLimit) {
    auto reference = IsChaseFiniteLStatic(database, tgds, kStaticLimit);
    EXPECT_TRUE(reference.ok()) << label << ": " << reference.status();
    if (reference.ok()) {
      EXPECT_EQ(*reference, finite) << label;
    }
  }
  return {graph.num_edges(), finite};
}

// dg(simple_D(Σ))'s edges as "pred[i] -> pred[j]", with " *" marking a
// special edge, in the graph's (from, to, special) order.
std::vector<std::string> NamedEdges(const Database& database,
                                    const std::vector<Tgd>& tgds) {
  auto simplified = DynamicSimplificationFromShapes(
      database.schema(), tgds, ShapesOf(database));
  EXPECT_TRUE(simplified.ok()) << simplified.status();
  if (!simplified.ok()) return {};
  const Schema& schema = simplified->shape_schema->schema();
  const DependencyGraph graph = BuildDependencyGraph(schema, simplified->tgds);
  auto name = [&](uint32_t node) {
    PredId pred = 0;
    while (pred + 1 < schema.NumPredicates() &&
           schema.PositionId(pred + 1, 0) <= node) {
      ++pred;
    }
    return schema.PredicateName(pred) + "[" +
           std::to_string(node - schema.PositionId(pred, 0)) + "]";
  };
  std::vector<std::string> edges;
  for (const Edge& edge : EdgesOf(graph.graph())) {
    edges.push_back(name(edge.from) + " -> " + name(edge.to) +
                    (edge.special ? " *" : ""));
  }
  return edges;
}

Program MustParse(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status();
  return std::move(program).value();
}

TEST(SimplifiedGraphTest, GeneratorFamilies) {
  Rng rng(20261018);
  size_t finite = 0;
  size_t infinite = 0;
  for (TgdClass tclass : {TgdClass::kSimpleLinear, TgdClass::kLinear}) {
    for (int trial = 0; trial < 6; ++trial) {
      DataGenParams data_params;
      data_params.preds = 2 + static_cast<uint32_t>(rng.Below(6));
      data_params.min_arity = 1;
      data_params.max_arity = 1 + static_cast<uint32_t>(rng.Below(5));
      // Small domains repeat constants, so coarse shapes occur in D.
      data_params.dsize = 64;
      data_params.rsize = rng.Below(200);
      data_params.seed = rng.Next();
      auto data = GenerateData(data_params);
      ASSERT_TRUE(data.ok()) << data.status();

      TgdGenParams tgd_params;
      tgd_params.ssize = data_params.preds;
      tgd_params.min_arity = 1;
      tgd_params.max_arity = data_params.max_arity;
      tgd_params.tsize = 5 + rng.Below(40);
      tgd_params.tclass = tclass;
      tgd_params.existential_percent = 10 + 20 * (trial % 3);
      tgd_params.seed = rng.Next();
      auto tgds = GenerateTgds(*data->schema, tgd_params);
      ASSERT_TRUE(tgds.ok()) << tgds.status();

      const CheckedGraph checked = ExpectConsistentGraph(
          *data->database, *tgds,
          std::string(TgdClassName(tclass)) + " trial " +
              std::to_string(trial));
      EXPECT_GT(checked.edges, 0u);
      ++(checked.finite ? finite : infinite);
    }
  }
  // Both verdicts occur, so the sweep is not vacuous either way.
  EXPECT_GT(finite, 0u);
  EXPECT_GT(infinite, 0u);
}

// Random linear programs with multi-atom heads, repeated body variables,
// repeated frontier variables and repeated existentials in one head atom —
// patterns the generator's single-head rules do not produce.
std::string RandomMultiHeadProgram(Rng& rng) {
  const uint32_t num_preds = 2 + static_cast<uint32_t>(rng.Below(4));
  std::vector<uint32_t> arity(num_preds);
  for (uint32_t& a : arity) a = 1 + static_cast<uint32_t>(rng.Below(4));
  auto atom = [&](uint32_t pred, const std::vector<std::string>& args) {
    std::string text = "p" + std::to_string(pred) + "(";
    for (size_t i = 0; i < args.size(); ++i) {
      text += (i > 0 ? "," : "") + args[i];
    }
    return text + ")";
  };
  std::string text;
  for (uint32_t pred = 0; pred < num_preds; ++pred) {
    const uint64_t facts = rng.Below(4);
    for (uint64_t f = 0; f < facts; ++f) {
      std::vector<std::string> args;
      for (uint32_t i = 0; i < arity[pred]; ++i) {
        args.push_back(std::string(1, static_cast<char>('a' + rng.Below(3))));
      }
      text += atom(pred, args) + ".\n";
    }
  }
  const uint64_t rules = 1 + rng.Below(6);
  for (uint64_t r = 0; r < rules; ++r) {
    const auto body_pred = static_cast<uint32_t>(rng.Below(num_preds));
    std::vector<std::string> body;
    for (uint32_t i = 0; i < arity[body_pred]; ++i) {
      body.push_back("X" + std::to_string(rng.Below(3)));
    }
    std::string rule = atom(body_pred, body) + " -> ";
    const uint64_t heads = 1 + rng.Below(3);
    for (uint64_t h = 0; h < heads; ++h) {
      const auto head_pred = static_cast<uint32_t>(rng.Below(num_preds));
      std::vector<std::string> args;
      for (uint32_t i = 0; i < arity[head_pred]; ++i) {
        // The first head position is a body variable: a non-empty frontier.
        const bool existential = (h > 0 || i > 0) && rng.Below(3) == 0;
        args.push_back(existential ? "Z" + std::to_string(rng.Below(2))
                                   : body[rng.Below(body.size())]);
      }
      rule += (h > 0 ? ", " : "") + atom(head_pred, args);
    }
    text += rule + ".\n";
  }
  return text;
}

TEST(SimplifiedGraphTest, RandomMultiHeadPrograms) {
  Rng rng(91);
  size_t finite = 0;
  size_t infinite = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::string text = RandomMultiHeadProgram(rng);
    Program program = MustParse(text);
    const CheckedGraph checked = ExpectConsistentGraph(
        *program.database, program.tgds,
        "multi-head trial " + std::to_string(trial) + ":\n" + text);
    ++(checked.finite ? finite : infinite);
  }
  EXPECT_GT(finite, 0u);
  EXPECT_GT(infinite, 0u);
}

TEST(SimplifiedGraphTest, RepeatedExistentialInHead) {
  // R(x,y) → ∃z S(x,z,z): S_[1,2,2] has two positions, and z's gets a
  // special edge from x's.
  Program p = MustParse("r(a,b).\nr(X,Y) -> s(X,Z,Z).");
  ExpectConsistentGraph(*p.database, p.tgds, "repeated z");
  EXPECT_EQ(NamedEdges(*p.database, p.tgds),
            (std::vector<std::string>{"r_[1,2][0] -> s_[1,2,2][0]",
                                      "r_[1,2][0] -> s_[1,2,2][1] *"}));
}

TEST(SimplifiedGraphTest, RepeatedFrontierVariableInHead) {
  // R(x,y) → S(y,x,y): the head shape S_[1,2,1] collapses y's positions.
  // On the shape R_[1,1], x and y merge and S_[1,1,1] has one position.
  Program p = MustParse("r(a,b). r(c,c).\nr(X,Y) -> s(Y,X,Y).");
  ExpectConsistentGraph(*p.database, p.tgds, "repeated y");
  EXPECT_EQ(NamedEdges(*p.database, p.tgds),
            (std::vector<std::string>{"r_[1,1][0] -> s_[1,1,1][0]",
                                      "r_[1,2][0] -> s_[1,2,1][1]",
                                      "r_[1,2][1] -> s_[1,2,1][0]"}));
}

TEST(SimplifiedGraphTest, RepeatedBodyVariable) {
  // R(x,x,y) → ∃z S(y,z): only the shapes R_[1,1,2] and R_[1,1,1] match.
  Program p = MustParse(
      "r(a,a,b). r(a,a,a). r(a,b,c).\nr(X,X,Y) -> s(Y,Z).\ns(X,Y) -> "
      "r(X,X,Y).");
  EXPECT_GT(ExpectConsistentGraph(*p.database, p.tgds, "r(x,x,y)").edges,
            0u);
}

TEST(SimplifiedGraphTest, BodyShapeMergesFrontierVariables) {
  // The database shape R_[1,1,2] merges the frontier variables x and y:
  // their two head positions become the one first position of T_[1,1,2].
  Program p = MustParse("r(a,a,b).\nr(X,Y,W) -> t(X,Y,Z).");
  ExpectConsistentGraph(*p.database, p.tgds, "merged x,y");
  EXPECT_EQ(NamedEdges(*p.database, p.tgds),
            (std::vector<std::string>{"r_[1,1,2][0] -> t_[1,1,2][0]",
                                      "r_[1,1,2][0] -> t_[1,1,2][1] *"}));
}

TEST(SimplifiedGraphTest, MultiAtomHead) {
  Program p = MustParse(
      "r(a,b). r(c,c).\nr(X,Y) -> s(X,Z), t(Z,Y,Y), s(Y,X).\n"
      "t(X,Y,Z) -> r(Z,X).");
  EXPECT_GT(ExpectConsistentGraph(*p.database, p.tgds, "multi-head").edges,
            0u);
}

TEST(SimplifiedGraphTest, ShapesWithoutMatchesGetNoNodes) {
  // q's shape matches no rule, so the graph numbers no position of it.
  Program p = MustParse("q(a). r(a,b).\nr(X,Y) -> r(Y,Z).");
  ExpectConsistentGraph(*p.database, p.tgds, "unmatched shape");
  LCheckStats stats;
  ASSERT_TRUE(IsChaseFiniteL(*p.database, p.tgds, {}, &stats).ok());
  EXPECT_EQ(stats.graph_nodes, 2u);
}

}  // namespace
}  // namespace chase
