// Table 1: statistics of the validation scenarios (Deep, LUBM, iBench).
//
// Databases are scaled down by default (LUBM to 4%, iBench to 5% of the
// paper's atom counts; --full restores them); n-pred, arity, n-rules and
// n-shapes match the paper, n-atoms scales with --scale / --full.

#include <iostream>

#include "common.h"
#include "gen/scenario.h"

using namespace chase;
using namespace chase::bench;

namespace {

void AddScenarioRow(TablePrinter& table, const std::string& family,
                    const StatusOr<Scenario>& scenario) {
  if (!scenario.ok()) {
    std::cerr << scenario.status() << "\n";
    std::exit(1);
  }
  ScenarioStats stats = ComputeScenarioStats(scenario.value());
  const std::string arity =
      stats.min_arity == stats.max_arity
          ? std::to_string(stats.min_arity)
          : "[" + std::to_string(stats.min_arity) + "," +
                std::to_string(stats.max_arity) + "]";
  table.AddRow({family, scenario->name, std::to_string(stats.n_pred), arity,
                std::to_string(stats.n_atoms),
                std::to_string(stats.n_shapes),
                std::to_string(stats.n_rules)});
}

}  // namespace

int main(int argc, char** argv) {
  BenchFlags flags = BenchFlags::Parse(argc, argv);
  // Paper LUBM sizes: 100K / 1.27M / 13.4M / 134M atoms. Default scales all
  // databases by 1/25 (preserving the x13 ratios between family members);
  // LUBM-1K only runs under --full.
  const double lubm_scale = (flags.full ? 1.0 : 0.04) * flags.scale;
  const double ibench_scale = (flags.full ? 1.0 : 0.05) * flags.scale;

  TablePrinter table({"family", "name", "n-pred", "arity", "n-atoms",
                      "n-shapes", "n-rules"});
  AddScenarioRow(table, "Deep", MakeDeepScenario(4241, flags.seed));
  AddScenarioRow(table, "Deep", MakeDeepScenario(4541, flags.seed + 1));
  AddScenarioRow(table, "Deep", MakeDeepScenario(4841, flags.seed + 2));
  AddScenarioRow(table, "LUBM",
                 MakeLubmScenario(
                     "LUBM-1", static_cast<uint64_t>(99547 * lubm_scale),
                     flags.seed + 3));
  AddScenarioRow(table, "LUBM",
                 MakeLubmScenario(
                     "LUBM-10", static_cast<uint64_t>(1272575 * lubm_scale),
                     flags.seed + 4));
  AddScenarioRow(table, "LUBM",
                 MakeLubmScenario(
                     "LUBM-100",
                     static_cast<uint64_t>(13405381 * lubm_scale),
                     flags.seed + 5));
  if (flags.full) {
    AddScenarioRow(table, "LUBM",
                   MakeLubmScenario("LUBM-1K", 133573854, flags.seed + 6));
  }
  AddScenarioRow(table, "iBench",
                 MakeStb128Scenario(ibench_scale, flags.seed + 7));
  AddScenarioRow(table, "iBench",
                 MakeOnt256Scenario(ibench_scale, flags.seed + 8));
  Emit(flags, "Table 1: validation scenario statistics", table);
  return 0;
}
