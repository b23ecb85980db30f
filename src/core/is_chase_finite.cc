#include "core/is_chase_finite.h"

#include <optional>

#include "base/status.h"
#include "base/timer.h"
#include "core/dynamic_simplification.h"
#include "core/simplification.h"
#include "core/weak_acyclicity.h"
#include "graph/dependency_graph.h"
#include "graph/tarjan.h"
#include "logic/database.h"
#include "logic/shape.h"
#include "logic/tgd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace chase {
namespace {

Status ValidateFrontiers(const std::vector<Tgd>& tgds) {
  if (!AllHaveNonEmptyFrontier(tgds)) {
    return InvalidArgumentError(
        "every TGD must have a non-empty frontier (Section 3's w.l.o.g. "
        "assumption); normalize the rule set first");
  }
  return OkStatus();
}

}  // namespace

StatusOr<bool> IsChaseFiniteSL(const Database& database,
                               const std::vector<Tgd>& tgds,
                               SlCheckStats* stats) {
  if (!AllSimpleLinear(tgds)) {
    return InvalidArgumentError(
        "IsChaseFinite[SL] requires simple-linear TGDs");
  }
  CHASE_RETURN_IF_ERROR(ValidateFrontiers(tgds));

  SlCheckStats local;
  SlCheckStats& out = stats != nullptr ? *stats : local;

  Timer timer;
  const DependencyGraph graph = [&] {
    obs::TraceSpan span("check", "t_graph");
    return BuildDependencyGraph(database.schema(), tgds);
  }();
  out.graph_ms = timer.ElapsedMillis();
  out.graph_nodes = graph.num_nodes();
  out.graph_edges = graph.num_edges();
  obs::SetGauge("check.t_graph_ms", out.graph_ms);

  timer.Restart();
  const SpecialSccs special = [&] {
    obs::TraceSpan span("check", "t_comp");
    return FindSpecialSccs(graph.graph());
  }();
  out.comp_ms = timer.ElapsedMillis();
  out.special_sccs = special.components.size();
  obs::SetGauge("check.t_comp_ms", out.comp_ms);
  if (special.empty()) return true;

  timer.Restart();
  storage::Catalog catalog(&database);
  const bool supported = [&] {
    obs::TraceSpan span("check", "t_support");
    return Supports(catalog, graph, special.representatives);
  }();
  out.support_ms = timer.ElapsedMillis();
  obs::SetGauge("check.t_support_ms", out.support_ms);
  return !supported;
}

StatusOr<bool> IsChaseFiniteL(const Database& database,
                              const std::vector<Tgd>& tgds,
                              const LCheckOptions& options,
                              LCheckStats* stats) {
  if (!AllLinear(tgds)) {
    return InvalidArgumentError("IsChaseFinite[L] requires linear TGDs");
  }
  CHASE_RETURN_IF_ERROR(ValidateFrontiers(tgds));

  LCheckStats local;
  LCheckStats& out = stats != nullptr ? *stats : local;

  // The db-dependent component: FindShapes (Section 8's t-shapes), unless
  // the caller hands shape(D) in precomputed (Section 10).
  Timer timer;
  storage::Catalog catalog(&database);
  std::vector<Shape> computed;
  {
    obs::TraceSpan shapes_span("check", "t_shapes");
    if (options.precomputed_shapes == nullptr) {
      storage::MemoryShapeSource source(&catalog);
      CHASE_ASSIGN_OR_RETURN(
          computed,
          storage::FindShapes(source, {.mode = options.shape_finder,
                                       .threads = options.shape_threads}));
    }
  }
  const std::vector<Shape>& shapes = options.precomputed_shapes != nullptr
                                         ? *options.precomputed_shapes
                                         : computed;
  out.shapes_ms = timer.ElapsedMillis();
  out.access = catalog.stats();
  obs::SetGauge("check.t_shapes_ms", out.shapes_ms);

  // The db-independent component: dynamic simplification + dependency graph
  // (t-graph), then special-SCC search (t-comp).
  timer.Restart();
  std::optional<DynamicSimplificationResult> simplified_opt;
  std::optional<DependencyGraph> graph_opt;
  {
    obs::TraceSpan graph_span("check", "t_graph");
    CHASE_ASSIGN_OR_RETURN(
        DynamicSimplificationResult result,
        DynamicSimplificationFromShapes(database.schema(), tgds, shapes,
                                        options.simplify_threads));
    simplified_opt.emplace(std::move(result));
    graph_opt.emplace(BuildDependencyGraph(
        simplified_opt->shape_schema->schema(), simplified_opt->tgds));
  }
  const DynamicSimplificationResult& simplified = *simplified_opt;
  const DependencyGraph& graph = *graph_opt;
  out.graph_ms = timer.ElapsedMillis();
  out.num_initial_shapes = simplified.num_initial_shapes;
  out.num_derived_shapes = simplified.num_derived_shapes;
  out.num_simplified_tgds = simplified.tgds.size();
  out.graph_nodes = graph.num_nodes();
  out.graph_edges = graph.num_edges();
  obs::SetGauge("check.t_graph_ms", out.graph_ms);

  timer.Restart();
  const bool acyclic = [&] {
    obs::TraceSpan comp_span("check", "t_comp");
    return FindSpecialSccs(graph.graph()).empty();
  }();
  out.comp_ms = timer.ElapsedMillis();
  obs::SetGauge("check.t_comp_ms", out.comp_ms);
  return acyclic;
}

StatusOr<bool> IsChaseFiniteLStatic(const Database& database,
                                    const std::vector<Tgd>& tgds,
                                    uint64_t max_simplified) {
  if (!AllLinear(tgds)) {
    return InvalidArgumentError("IsChaseFinite[L] requires linear TGDs");
  }
  CHASE_RETURN_IF_ERROR(ValidateFrontiers(tgds));

  // Theorem 3.6: chase(D, Σ) is finite iff simple(Σ) is
  // simple(D)-weakly-acyclic.
  CHASE_ASSIGN_OR_RETURN(
      StaticSimplificationResult simplified,
      StaticSimplification(database.schema(), tgds, max_simplified));
  std::unique_ptr<Database> simple_db =
      SimplifyDatabase(database, *simplified.shape_schema);
  return IsWeaklyAcyclicWrt(*simple_db, simplified.tgds);
}

}  // namespace chase
