#include "workloads.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "base/status.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "io/binary_io.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "logic/schema.h"
#include "logic/tgd.h"
#include "pager/disk_database.h"

namespace chase {
namespace spine {
namespace {

// Declares `per_arity` predicates of every arity in [min_arity, max_arity].
// Dealing arities evenly (instead of drawing each one) keeps the total data
// volume identical across seeds.
StatusOr<std::vector<PredId>> DeclareEvenArities(Schema* schema,
                                                 const std::string& prefix,
                                                 uint32_t per_arity,
                                                 uint32_t min_arity,
                                                 uint32_t max_arity,
                                                 Rng* rng) {
  std::vector<PredId> preds;
  for (uint32_t arity = min_arity; arity <= max_arity; ++arity) {
    CHASE_ASSIGN_OR_RETURN(
        std::vector<PredId> some,
        DeclarePredicates(schema, prefix + std::to_string(arity) + "_",
                          per_arity, arity, arity, rng));
    preds.insert(preds.end(), some.begin(), some.end());
  }
  return preds;
}

// bigdb and manyrules: the paper's Section 7/8 generator pair — shape-
// controlled relations plus random linear TGDs over a subset of them.
struct LinearSizes {
  uint32_t per_arity;  // predicates per arity 1..5
  uint64_t rsize;      // tuples per relation
  uint64_t dsize;      // |dom(D)|
  uint64_t tsize;      // |Σ|
  uint32_t ssize;      // predicates the rules range over
};

StatusOr<Program> MakeLinear(const LinearSizes& sizes, uint64_t seed) {
  Program program;
  Rng rng(seed);
  CHASE_ASSIGN_OR_RETURN(
      std::vector<PredId> preds,
      DeclareEvenArities(program.schema.get(), "r", sizes.per_arity, 1, 5,
                         &rng));
  CHASE_RETURN_IF_ERROR(PopulateRelations(program.database.get(), preds,
                                          sizes.dsize, sizes.rsize, &rng));
  TgdGenParams params;
  params.ssize = sizes.ssize;
  params.min_arity = 1;
  params.max_arity = 5;
  params.tsize = sizes.tsize;
  params.tclass = TgdClass::kLinear;
  params.existential_percent = 10;
  params.seed = rng.Next();
  CHASE_ASSIGN_OR_RETURN(program.tgds,
                         GenerateTgds(*program.schema, params));
  return program;
}

// deep: `layers` layers of `width` arity-4 predicates; every predicate of
// layer l has fanout(l) rules into random predicates of layer l+1 (2 on
// even layers, 1 on odd ones), and `seeds` predicates of layer 0 hold one
// fact each. Rule heads are (x3, u, v, Z): Z is existential, u and v are
// body variables or (20%) existential. Position 3 of every derived atom is
// a fresh null, and every rule's frontier contains x3, so no two atoms
// ever share a frontier projection: each atom of layer l fires exactly
// fanout(l) triggers and each trigger adds one new atom. The fixpoint size
// is therefore exact and seed-independent — seeds × (1 + 2 + 2 + 4 + 4 +
// ...) — unlike the random-DAG Deep family (gen/scenario.h), whose chase at
// 2500 rules ranged from 0.3M to 2.1M atoms over seven seeds.
struct DeepSizes {
  uint32_t layers;
  uint32_t width;
  uint32_t seeds;
};

StatusOr<Program> MakeDeep(const DeepSizes& sizes, uint64_t seed) {
  constexpr uint32_t kArity = 4;
  constexpr uint64_t kDomain = 1000;
  Program program;
  Rng rng(seed);
  std::vector<std::vector<PredId>> layer(sizes.layers);
  for (uint32_t l = 0; l < sizes.layers; ++l) {
    for (uint32_t i = 0; i < sizes.width; ++i) {
      CHASE_ASSIGN_OR_RETURN(
          PredId pred,
          program.schema->AddPredicate(
              "deep" + std::to_string(l) + "_" + std::to_string(i), kArity));
      layer[l].push_back(pred);
    }
  }
  for (uint32_t l = 0; l + 1 < sizes.layers; ++l) {
    const uint32_t fanout = l % 2 == 0 ? 2 : 1;
    for (PredId body_pred : layer[l]) {
      for (uint32_t k = 0; k < fanout; ++k) {
        const PredId head_pred = layer[l + 1][rng.Below(sizes.width)];
        VarId next_existential = kArity;
        auto pick = [&]() -> VarId {
          return rng.Percent(20) ? next_existential++
                                 : static_cast<VarId>(rng.Below(kArity));
        };
        std::vector<VarId> head_args = {3, 0, 0, 0};
        head_args[1] = pick();
        head_args[2] = pick();
        head_args[3] = next_existential++;
        CHASE_ASSIGN_OR_RETURN(
            Tgd tgd, Tgd::Create({RuleAtom(body_pred, {0, 1, 2, 3})},
                                 {RuleAtom(head_pred, std::move(head_args))}));
        program.tgds.push_back(std::move(tgd));
      }
    }
  }
  program.database->EnsureAnonymousDomain(kDomain);
  std::vector<uint32_t> tuple;
  for (uint32_t i = 0; i < sizes.seeds; ++i) {
    GenerateShapedTuple(kArity, kDomain, &rng, &tuple);
    CHASE_RETURN_IF_ERROR(program.database->AddFact(layer[0][i], tuple));
  }
  return program;
}

// join: chain (2-atom) and triangle (3-atom) rules over evenly dealt
// arity-2/3 relations. Heads are redirected to a fresh copy "d_<pred>" of
// their predicate, so no rule reads another rule's output: the chase
// terminates for every seed, and its cost is the join work over relations
// of fixed size rather than a seed-dependent recursion.
struct JoinSizes {
  uint32_t per_arity;  // relations of arity 2 and of arity 3
  uint64_t rsize;
  uint64_t dsize;
  uint64_t rules_per_family;
};

StatusOr<Program> MakeJoin(const JoinSizes& sizes, uint64_t seed) {
  Program program;
  Rng rng(seed);
  CHASE_ASSIGN_OR_RETURN(
      std::vector<PredId> preds,
      DeclareEvenArities(program.schema.get(), "e", sizes.per_arity, 2, 3,
                         &rng));
  CHASE_RETURN_IF_ERROR(PopulateRelations(program.database.get(), preds,
                                          sizes.dsize, sizes.rsize, &rng));
  std::vector<Tgd> joins;
  for (NonLinearFamily family :
       {NonLinearFamily::kChain, NonLinearFamily::kTriangle}) {
    NonLinearGenParams params;
    params.ssize = static_cast<uint32_t>(preds.size());
    params.min_arity = 2;
    params.max_arity = 3;
    params.tsize = sizes.rules_per_family;
    params.family = family;
    params.body_atoms = family == NonLinearFamily::kTriangle ? 3 : 2;
    params.existential_percent = 20;
    params.seed = rng.Next();
    CHASE_ASSIGN_OR_RETURN(std::vector<Tgd> some,
                           GenerateNonLinearTgds(*program.schema, params));
    for (Tgd& tgd : some) joins.push_back(std::move(tgd));
  }
  std::vector<PredId> copy_of(program.schema->NumPredicates());
  for (PredId pred : preds) {
    CHASE_ASSIGN_OR_RETURN(
        copy_of[pred],
        program.schema->AddPredicate(
            "d_" + program.schema->PredicateName(pred),
            program.schema->Arity(pred)));
  }
  for (const Tgd& tgd : joins) {
    std::vector<RuleAtom> head = tgd.head();
    for (RuleAtom& atom : head) atom.pred = copy_of[atom.pred];
    CHASE_ASSIGN_OR_RETURN(Tgd redirected,
                           Tgd::Create(tgd.body(), std::move(head)));
    program.tgds.push_back(std::move(redirected));
  }
  return program;
}

StatusOr<Program> Generate(const Workload& workload, Scale scale,
                           uint64_t seed) {
  const bool smoke = scale == Scale::kSmoke;
  const std::string name = workload.name;
  if (name == "bigdb") {
    return smoke ? MakeLinear({8, 500, 10'000, 100, 40}, seed)
                 : MakeLinear({40, 5'000, 100'000, 1'000, 200}, seed);
  }
  if (name == "manyrules") {
    return smoke ? MakeLinear({40, 20, 500'000, 2'000, 200}, seed)
                 : MakeLinear({200, 20, 500'000, 20'000, 1'000}, seed);
  }
  if (name == "deep") {
    return smoke ? MakeDeep({10, 20, 8}, seed) : MakeDeep({20, 100, 16}, seed);
  }
  if (name == "join") {
    return smoke ? MakeJoin({4, 200, 200, 8}, seed)
                 : MakeJoin({4, 500, 500, 24}, seed);
  }
  return InvalidArgumentError("unknown workload: " + name);
}

Status WriteText(const Program& program, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return InternalError("cannot open " + path);
  PrintDatabase(*program.database, out);
  PrintTgds(*program.schema, program.tgds, out);
  out.flush();
  if (!out) return InternalError("failed writing " + path);
  return OkStatus();
}

StatusOr<uint64_t> FileBytes(const std::string& path) {
  std::error_code error;
  const uint64_t bytes = std::filesystem::file_size(path, error);
  if (error) return InternalError("cannot stat " + path);
  return bytes;
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"bigdb", Op::kCheck, Format::kBinary, /*disk_copy=*/true},
      {"manyrules", Op::kCheck, Format::kText, /*disk_copy=*/false},
      {"deep", Op::kChase, Format::kText, /*disk_copy=*/false},
      {"join", Op::kChase, Format::kBinary, /*disk_copy=*/false},
  };
  return kWorkloads;
}

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& workload : Workloads()) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

std::string ProgramPath(const Workload& workload, const std::string& dir) {
  return dir + (workload.format == Format::kBinary ? "/program.chbin"
                                                   : "/program.dlgp");
}

std::string DiskPath(const std::string& dir) { return dir + "/data.db"; }

StatusOr<SetupStats> Setup(const Workload& workload, Scale scale,
                           uint64_t seed, const std::string& dir) {
  CHASE_ASSIGN_OR_RETURN(Program program, Generate(workload, scale, seed));
  const std::string program_path = ProgramPath(workload, dir);
  if (workload.format == Format::kBinary) {
    CHASE_RETURN_IF_ERROR(io::SaveProgram(*program.schema, *program.database,
                                          program.tgds, program_path));
  } else {
    CHASE_RETURN_IF_ERROR(WriteText(program, program_path));
  }
  SetupStats stats;
  if (workload.disk_copy) {
    {
      CHASE_ASSIGN_OR_RETURN(
          std::unique_ptr<pager::DiskDatabase> disk,
          pager::DiskDatabase::Create(DiskPath(dir), *program.database,
                                      kPoolFrames));
    }
    CHASE_ASSIGN_OR_RETURN(stats.disk_bytes, FileBytes(DiskPath(dir)));
  }
  stats.facts = program.database->TotalFacts();
  stats.tgds = program.tgds.size();
  CHASE_ASSIGN_OR_RETURN(stats.program_bytes, FileBytes(program_path));
  return stats;
}

StatusOr<Program> LoadProgramFile(const Workload& workload,
                                  const std::string& dir) {
  const std::string path = ProgramPath(workload, dir);
  if (workload.format == Format::kBinary) return io::LoadProgram(path);
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return ParseProgram(text.str());
}

}  // namespace spine
}  // namespace chase
