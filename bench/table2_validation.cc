// Table 2: runtime of IsChaseFinite[L] on the validation scenarios, in
// milliseconds, with t-shapes reported for both the in-database and the
// in-memory FindShapes implementations. The "best" column marks the faster
// end-to-end total (the paper boxes it).

#include <iostream>

#include "base/timer.h"
#include "common.h"
#include "gen/scenario.h"
#include "logic/printer.h"

using namespace chase;
using namespace chase::bench;

namespace {

struct Row {
  std::string name;
  double parse_ms = 0;
  double graph_ms = 0;
  double comp_ms = 0;
  double shapes_indb_ms = 0;
  double shapes_inmem_ms = 0;
  bool finite = false;

  double TotalIndb() const {
    return parse_ms + graph_ms + comp_ms + shapes_indb_ms;
  }
  double TotalInmem() const {
    return parse_ms + graph_ms + comp_ms + shapes_inmem_ms;
  }
};

Row RunScenario(const Scenario& scenario) {
  Row row;
  row.name = scenario.name;
  const Program& p = scenario.program;

  // t-parse: serialize the rules and re-read them.
  const std::string text = TgdsToString(*p.schema, p.tgds);
  Schema parse_schema;
  Timer timer;
  auto parsed = ParseTgds(text, &parse_schema);
  row.parse_ms = timer.ElapsedMillis();
  if (!parsed.ok()) {
    std::cerr << parsed.status() << "\n";
    std::exit(1);
  }

  for (auto mode : {storage::ShapeFinderMode::kExists,
                    storage::ShapeFinderMode::kScan}) {
    LCheckOptions options;
    options.shape_finder = mode;
    LCheckStats stats;
    auto finite = IsChaseFiniteL(*p.database, p.tgds, options, &stats);
    if (!finite.ok()) {
      std::cerr << scenario.name << ": " << finite.status() << "\n";
      std::exit(1);
    }
    row.finite = finite.value();
    if (mode == storage::ShapeFinderMode::kExists) {
      row.shapes_indb_ms = stats.shapes_ms;
    } else {
      row.shapes_inmem_ms = stats.shapes_ms;
      // t-graph/t-comp are db-independent; keep the in-memory run's values.
      row.graph_ms = stats.graph_ms;
      row.comp_ms = stats.comp_ms;
    }
  }
  return row;
}

void AddRow(TablePrinter& table, const StatusOr<Scenario>& scenario) {
  if (!scenario.ok()) {
    std::cerr << scenario.status() << "\n";
    std::exit(1);
  }
  Row row = RunScenario(scenario.value());
  const bool indb_best = row.TotalIndb() <= row.TotalInmem();
  table.AddRow({row.name, FmtMs(row.parse_ms), FmtMs(row.graph_ms),
                FmtMs(row.comp_ms), FmtMs(row.shapes_indb_ms),
                FmtMs(row.TotalIndb()), FmtMs(row.shapes_inmem_ms),
                FmtMs(row.TotalInmem()),
                indb_best ? "in-db" : "in-memory",
                row.finite ? "yes" : "no"});
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  const double lubm_scale = (flags.full ? 1.0 : 0.04) * flags.scale;
  const double ibench_scale = (flags.full ? 1.0 : 0.05) * flags.scale;

  TablePrinter table({"name", "t-parse", "t-graph", "t-comp",
                      "t-shapes(in-db)", "t-total(in-db)",
                      "t-shapes(in-mem)", "t-total(in-mem)", "best",
                      "finite"});
  AddRow(table, MakeDeepScenario(4241, flags.seed));
  AddRow(table, MakeDeepScenario(4541, flags.seed + 1));
  AddRow(table, MakeDeepScenario(4841, flags.seed + 2));
  AddRow(table, MakeLubmScenario("LUBM-1",
                                 static_cast<uint64_t>(99547 * lubm_scale),
                                 flags.seed + 3));
  AddRow(table, MakeLubmScenario("LUBM-10",
                                 static_cast<uint64_t>(1272575 * lubm_scale),
                                 flags.seed + 4));
  AddRow(table, MakeLubmScenario("LUBM-100",
                                 static_cast<uint64_t>(13405381 * lubm_scale),
                                 flags.seed + 5));
  if (flags.full) {
    AddRow(table, MakeLubmScenario("LUBM-1K", 133573854, flags.seed + 6));
  }
  AddRow(table, MakeStb128Scenario(ibench_scale, flags.seed + 7));
  AddRow(table, MakeOnt256Scenario(ibench_scale, flags.seed + 8));
  Emit(flags, "Table 2: IsChaseFinite[L] on the validation scenarios (ms)",
       table);
  return 0;
}
