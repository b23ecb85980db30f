// Shared harness for the experiment benches. Each bench binary regenerates
// one table or figure of the paper (its file name says which) and prints
// the rows / series the paper plots, through TablePrinter.
//
// Common flags (all binaries):
//   --scale=<f>     scale factor on workload sizes (default 1.0 = each
//                   bench's laptop-sized default, a fraction of the
//                   paper's database sizes)
//   --full          paper-sized workloads (equivalent to a large --scale)
//   --seed=<n>      RNG seed
//   --csv           emit CSV instead of an aligned table
//   --reps=<n>      sets / repetitions per configuration
//   --query-overhead-us=<n>  simulated DBMS per-query dispatch cost added to
//                   in-database FindShapes timings (PostgreSQL parse/plan/
//                   execute overhead, which the row-store probes here do
//                   not pay). Default 25.
//   --json-out=<path>  where WriteBenchJson-emitting benches write their
//                   machine-readable BENCH_<name>.json artifact (default:
//                   BENCH_<name>.json in the working directory)

#ifndef CHASE_BENCH_COMMON_H_
#define CHASE_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "base/table_printer.h"
#include "base/timer.h"
#include "core/is_chase_finite.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "logic/parser.h"
#include "obs/metrics.h"
#include "storage/shape_source.h"

namespace chase {
namespace bench {

struct BenchFlags {
  double scale = 1.0;
  bool full = false;
  uint64_t seed = 20230322;
  bool csv = false;
  uint32_t reps = 0;  // 0 = per-bench default
  double query_overhead_us = 25.0;
  std::string json_out;  // empty = BENCH_<name>.json in the working dir

  static BenchFlags Parse(int argc, char** argv);
};

// A predicate profile [lo, hi] (number of predicates in sch(Σ)).
struct PredProfile {
  uint32_t lo;
  uint32_t hi;
  std::string Label() const;
};

// The paper's three predicate profiles: [5,200], [200,400], [400,600].
std::vector<PredProfile> PredicateProfiles();

// A TGD profile [lo, hi] (number of TGDs). The paper splits [1, 1M] into
// thirds; we split [1, max_rules].
struct TgdProfile {
  uint64_t lo;
  uint64_t hi;
  std::string Label() const;
};
std::vector<TgdProfile> TgdProfiles(uint64_t max_rules);

// The Section 7/8 base schema: 1000 predicates of arity in [1,5].
std::unique_ptr<Schema> MakeBaseSchema(Rng* rng);

// D_Σ (Remark 1): one all-distinct fact per predicate of `schema`.
void PopulateInducedDatabase(const Schema& schema, Database* db);

// One Figure-1-style run: serialize the TGDs, parse them back (t-parse),
// then run Algorithm 1 on (D_Σ, Σ).
struct SlRun {
  size_t n_rules = 0;
  size_t n_preds = 0;
  // The paper's time parameters (shapes_ms stays 0: Algorithm 1 has no
  // db-dependent shape phase), accounted in the one shared struct
  // (obs::TimeParams) instead of bench-local fields.
  obs::TimeParams times;
  size_t graph_edges = 0;
  bool finite = false;

  double TotalMs() const { return times.DbIndependentMs(); }
};
StatusOr<SlRun> RunSlExperiment(const Schema& base_schema,
                                const std::vector<Tgd>& tgds);

// One Section-8-style run of the db-independent component: serialize +
// parse the linear TGDs (t-parse), find shapes (t-shapes, reported but not
// part of t-total), dynamic simplification + graph (t-graph), SCC search
// (t-comp).
struct LRun {
  size_t n_rules = 0;
  size_t n_tuples = 0;
  // t-parse / t-shapes / t-graph / t-comp via the shared obs::TimeParams.
  obs::TimeParams times;
  size_t n_shapes = 0;
  size_t n_simplified = 0;
  size_t graph_edges = 0;
  bool finite = false;

  // t-total of the db-independent component (Section 8).
  double DbIndependentMs() const { return times.DbIndependentMs(); }
};
StatusOr<LRun> RunLExperiment(const Schema& base_schema,
                              const Database& database,
                              const std::vector<Tgd>& tgds,
                              storage::ShapeFinderMode mode,
                              double query_overhead_us);

// Formatting helpers.
std::string Fmt(double value, int decimals = 2);
std::string FmtMs(double ms);

// Uniform per-backend metering columns for the FindShapes benches: logical
// accesses from ShapeSource::stats() plus physical I/O from
// ShapeSource::Io(), so memory and disk rows of the fig3/fig4 ablations are
// directly comparable. Pass `reps` > 1 to report per-repetition averages.
std::vector<std::string> AccessColumnNames();
std::vector<std::string> AccessColumnValues(const storage::AccessStats& access,
                                            const storage::IoCounters& io,
                                            uint32_t reps = 1);

// Prints `table` per flags (table or CSV) with a heading.
void Emit(const BenchFlags& flags, const std::string& title,
          const TablePrinter& table);

// Writes `table` as a JSON array of row objects to --json-out, or to
// BENCH_<name>.json in the working directory when the flag is unset — the
// machine-readable artifact CI archives next to the printed table. Returns
// false (after logging to stderr) if the file cannot be written.
bool WriteBenchJson(const BenchFlags& flags, const std::string& name,
                    const TablePrinter& table);

// As WriteBenchJson for benches that report several tables (e.g. a build
// phase and a maintenance phase): emits one object whose keys are the
// section names, each holding that table's row array —
// {"build": [...], "maintain": [...]} — so a multi-table ablation still
// produces a single BENCH_<name>.json artifact under --json-out.
bool WriteBenchJsonSections(
    const BenchFlags& flags, const std::string& name,
    const std::vector<std::pair<std::string, const TablePrinter*>>& sections);

}  // namespace bench
}  // namespace chase

#endif  // CHASE_BENCH_COMMON_H_
