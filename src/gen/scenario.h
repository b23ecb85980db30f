// Generators for the Section 9 validation scenarios. The paper uses rule
// sets and databases from the literature (Deep from "Benchmarking the
// Chase", the LUBM ontology benchmark, and two iBench scenarios); those
// artifacts are not redistributable here, so each generator synthesizes a
// family member with the same statistics as the paper's Table 1 (number of
// predicates, arity range, atom/shape/rule counts) and the same structural
// character:
//
//  * Deep-N: layered, weakly-acyclic simple-linear source-to-target chains
//    over ~1300 arity-4 predicates; 1000 facts, one per relation, with
//    varied shapes (so in-memory shape finding wins: many tiny relations).
//  * LUBM-k: a DL-Lite style university ontology — a class hierarchy plus
//    role domain/range/inclusion axioms over 104 predicates of arity <= 2
//    (137 linear rules) and UBA-style data scaled by k (so in-database shape
//    finding wins: few predicates, few shapes, many tuples).
//  * STB-128 / ONT-256: iBench-style wide-arity copy/projection mappings
//    with existentials; ~300/~660 predicates of arity up to 10/11.
//
// Sizes scale with `scale` so the default bench run stays laptop-sized;
// Table 1's paper numbers are reproduced at scale = 1 except for total atom
// counts, which scale linearly: predicates, arities, rules and shapes do not
// depend on the database size, so a smaller database keeps every
// structural statistic of the row.

#ifndef CHASE_GEN_SCENARIO_H_
#define CHASE_GEN_SCENARIO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/status.h"
#include "logic/parser.h"

namespace chase {

struct Scenario {
  std::string name;
  Program program;  // schema + database + TGDs
};

// Deep-`rules` with rules in {4241, 4541, 4841} for Deep-100/200/300.
[[nodiscard]]
StatusOr<Scenario> MakeDeepScenario(uint32_t rules, uint64_t seed);

// LUBM with approximately `atoms` facts (paper: 100K/1.3M/13M/134M for
// LUBM-1/10/100/1K).
[[nodiscard]]
StatusOr<Scenario> MakeLubmScenario(const std::string& name, uint64_t atoms,
                                    uint64_t seed);

// iBench-style scenario with the given shape statistics.
struct IBenchParams {
  std::string name;
  uint32_t preds = 287;
  uint32_t min_arity = 1;
  uint32_t max_arity = 10;
  uint32_t rules = 231;
  uint32_t populated_relations = 129;  // ~ n-shapes
  uint64_t atoms = 1'109'037;
  uint64_t seed = 7;
};
[[nodiscard]] StatusOr<Scenario> MakeIBenchScenario(const IBenchParams& params);

// Convenience constructors matching Table 1 rows at a linear `atom_scale`
// (1.0 = paper-sized databases).
[[nodiscard]]
StatusOr<Scenario> MakeStb128Scenario(double atom_scale, uint64_t seed);
[[nodiscard]]
StatusOr<Scenario> MakeOnt256Scenario(double atom_scale, uint64_t seed);

struct ScenarioStats {
  size_t n_pred = 0;       // predicates in sch(Σ)
  uint32_t min_arity = 0;
  uint32_t max_arity = 0;
  size_t n_atoms = 0;
  size_t n_shapes = 0;
  size_t n_rules = 0;
};

// Computes the Table 1 statistics of a scenario.
ScenarioStats ComputeScenarioStats(const Scenario& scenario);

}  // namespace chase

#endif  // CHASE_GEN_SCENARIO_H_
