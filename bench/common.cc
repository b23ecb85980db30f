#include "common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

#include "logic/printer.h"

namespace chase {
namespace bench {

BenchFlags BenchFlags::Parse(int argc, char** argv) {
  BenchFlags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value_of = [&](std::string_view prefix) -> const char* {
      if (arg.size() > prefix.size() &&
          arg.substr(0, prefix.size()) == prefix) {
        return argv[i] + prefix.size();
      }
      return nullptr;
    };
    if (const char* v = value_of("--scale=")) {
      flags.scale = std::atof(v);
    } else if (arg == "--full") {
      flags.full = true;
    } else if (const char* v = value_of("--seed=")) {
      flags.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--csv") {
      flags.csv = true;
    } else if (const char* v = value_of("--reps=")) {
      flags.reps = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--json-out=")) {
      flags.json_out = v;
    } else {
      std::cerr << "unknown flag: " << arg << "\n"
                << "flags: --scale=F --full --seed=N --csv --reps=N "
                   "--json-out=PATH\n";
      std::exit(2);
    }
  }
  return flags;
}

std::string PredProfile::Label() const {
  return "[" + std::to_string(lo) + "," + std::to_string(hi) + "]";
}

std::vector<PredProfile> PredicateProfiles() {
  return {{5, 200}, {200, 400}, {400, 600}};
}

std::string TgdProfile::Label() const {
  auto compact = [](uint64_t v) {
    if (v >= 1000000 && v % 1000000 == 0) {
      return std::to_string(v / 1000000) + "M";
    }
    if (v >= 1000 && v % 1000 == 0) return std::to_string(v / 1000) + "K";
    return std::to_string(v);
  };
  return "[" + compact(lo) + "," + compact(hi) + "]";
}

std::vector<TgdProfile> TgdProfiles(uint64_t max_rules) {
  const uint64_t third = max_rules / 3;
  return {{1, third}, {third, 2 * third}, {2 * third, max_rules}};
}

std::unique_ptr<Schema> MakeBaseSchema(Rng* rng) {
  auto schema = std::make_unique<Schema>();
  auto preds = DeclarePredicates(schema.get(), "p", 1000, 1, 5, rng);
  if (!preds.ok()) {
    std::cerr << "schema generation failed: " << preds.status() << "\n";
    std::exit(1);
  }
  return schema;
}

namespace {

// D_Σ (Remark 1): one all-distinct fact per predicate of `schema`.
void PopulateInducedDatabase(const Schema& schema, Database* db) {
  db->EnsureAnonymousDomain(64);
  std::vector<uint32_t> tuple;
  for (PredId pred = 0; pred < schema.NumPredicates(); ++pred) {
    tuple.clear();
    for (uint32_t i = 0; i < schema.Arity(pred); ++i) tuple.push_back(i);
    (void)db->AddFact(pred, tuple);
  }
}

}  // namespace

StatusOr<SlRun> RunSlExperiment(const Schema& base_schema,
                                const std::vector<Tgd>& tgds) {
  SlRun run;
  run.n_rules = tgds.size();

  // Serialize and re-parse: t-parse times reading the rules from "a file",
  // exactly as the paper does.
  const std::string text = TgdsToString(base_schema, tgds);
  Timer timer;
  CHASE_ASSIGN_OR_RETURN(Program program, ParseProgram(text));
  run.times.parse_ms = timer.ElapsedMillis();
  run.n_preds = program.schema->NumPredicates();

  PopulateInducedDatabase(*program.schema, program.database.get());
  SlCheckStats stats;
  CHASE_ASSIGN_OR_RETURN(
      bool finite, IsChaseFiniteSL(*program.database, program.tgds, &stats));
  run.finite = finite;
  run.times.graph_ms = stats.graph_ms;
  run.times.comp_ms = stats.comp_ms + stats.support_ms;
  run.graph_edges = stats.graph_edges;
  return run;
}

StatusOr<LRun> RunLExperiment(const Schema& base_schema,
                              const Database& database,
                              const std::vector<Tgd>& tgds,
                              storage::ShapeFinderMode mode) {
  LRun run;
  run.n_rules = tgds.size();
  run.n_tuples = database.TotalFacts();

  const std::string text = TgdsToString(base_schema, tgds);
  Schema parse_schema;
  Timer timer;
  CHASE_ASSIGN_OR_RETURN(std::vector<Tgd> parsed,
                         ParseTgds(text, &parse_schema));
  run.times.parse_ms = timer.ElapsedMillis();
  (void)parsed;

  // The checker proper runs over the original schema (shared with the
  // database, as in Section 8 where the TGDs are over D*'s predicates).
  LCheckOptions options;
  options.shape_finder = mode;
  LCheckStats stats;
  CHASE_ASSIGN_OR_RETURN(bool finite,
                         IsChaseFiniteL(database, tgds, options, &stats));
  run.finite = finite;
  run.times.shapes_ms = stats.shapes_ms;
  run.times.graph_ms = stats.graph_ms;
  run.times.comp_ms = stats.comp_ms;
  run.n_shapes = stats.num_initial_shapes;
  run.n_simplified = stats.num_simplified_tgds;
  run.graph_edges = stats.graph_edges;
  return run;
}

std::string Fmt(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

std::string FmtMs(double ms) { return Fmt(ms, 2); }

std::vector<std::string> AccessColumnNames() {
  return {"exists-q", "rel-loads", "tuples-scanned", "pages-read",
          "pool-hit%"};
}

std::vector<std::string> AccessColumnValues(const storage::AccessStats& access,
                                            const storage::IoCounters& io,
                                            uint32_t reps) {
  reps = std::max<uint32_t>(1, reps);
  auto avg = [&](uint64_t total) { return std::to_string(total / reps); };
  const uint64_t pool_accesses = io.pool_hits + io.pool_misses;
  return {avg(access.exists_queries), avg(access.relations_loaded),
          avg(access.tuples_scanned), avg(io.pages_read),
          pool_accesses == 0
              ? "-"
              : Fmt(100.0 * static_cast<double>(io.pool_hits) /
                        static_cast<double>(pool_accesses),
                    1) + "%"};
}

bool WriteBenchJson(const BenchFlags& flags, const std::string& name,
                    const TablePrinter& table) {
  const std::string path =
      flags.json_out.empty() ? "BENCH_" + name + ".json" : flags.json_out;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  table.PrintJson(out);
  out.flush();
  if (!out) {
    std::cerr << "write to " << path << " failed\n";
    return false;
  }
  std::cout << "wrote " << path << "\n";
  return true;
}

bool WriteBenchJsonSections(
    const BenchFlags& flags, const std::string& name,
    const std::vector<std::pair<std::string, const TablePrinter*>>&
        sections) {
  const std::string path =
      flags.json_out.empty() ? "BENCH_" + name + ".json" : flags.json_out;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  out << "{\n";
  for (size_t i = 0; i < sections.size(); ++i) {
    if (i > 0) out << ",\n";
    out << "\"" << sections[i].first << "\": ";
    sections[i].second->PrintJson(out);
  }
  out << "}\n";
  out.flush();
  if (!out) {
    std::cerr << "write to " << path << " failed\n";
    return false;
  }
  std::cout << "wrote " << path << "\n";
  return true;
}

void Emit(const BenchFlags& flags, const std::string& title,
          const TablePrinter& table) {
  if (flags.csv) {
    table.PrintCsv(std::cout);
  } else {
    std::cout << "\n== " << title << " ==\n";
    table.Print(std::cout);
  }
  std::cout.flush();
}

}  // namespace bench
}  // namespace chase
