// The spine's four workloads and their seeded set-up step.
//
// Each workload is one (database, rule set) pair written to files by
// Setup() and read back by the timed steps, so input generation never
// enters a timed number. The workloads vary the input properties the paper
// finds drive the cost of a termination check or a chase (|D|, |Σ|, body
// shape, chase depth) and each stresses a different layer:
//
//   bigdb      200 predicates (arity 1–5), 1M facts, 1000 linear TGDs.
//              The db-dependent component: the shape scan and the binary
//              load dominate; the disk copy is larger than the buffer pool.
//   manyrules  1000 predicates, 20 facts each, 20k linear TGDs stored as
//              text. The db-independent component: parsing, dynamic
//              simplification, dg(simple_D(Σ)) and the SCC search.
//   deep       A layered Deep-style rule set (2900 simple-linear rules,
//              arity 4, weakly acyclic by construction): a 20-round
//              semi-oblivious chase to a 49,104-atom fixpoint over single-
//              atom bodies, bound by atom insertion and trigger bookkeeping.
//   join       8 relations of 500 tuples, 24 chain and 24 triangle rules
//              writing into copies of the relations: a chase bound by
//              homomorphism search, with few atoms.
//
// Every size below is chosen so that the work of a workload, not just its
// shape, is nearly the same for every seed: arities are dealt evenly rather
// than drawn, the deep chase has an exact atom count (each derived atom
// carries a fresh null into every trigger it feeds), and the join rules
// never read their own output. Otherwise run-to-run comparison across
// seeds would measure the generator, not the system.

#ifndef CHASE_BENCH_SPINE_WORKLOADS_H_
#define CHASE_BENCH_SPINE_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "logic/parser.h"

namespace chase {
namespace spine {

// The workload's user-facing operation: `chasectl check` (IsChaseFiniteL,
// scan plan) or `chasectl chase` (semi-oblivious, to fixpoint).
enum class Op { kCheck, kChase };

// How the program file is stored: the CHBN envelope or rule/fact text.
enum class Format { kBinary, kText };

// `smoke` runs the same code paths on inputs small enough that all four
// workloads finish in seconds.
enum class Scale { kFull, kSmoke };

struct Workload {
  const char* name;
  Op op;
  Format format;
  // Whether Setup also writes the database as a pager::DiskDatabase, for
  // the in-database t-shapes (bigdb only; the trace step writes its own
  // copy for the others). Its creation ends in an fdatasync, whose latency
  // on a shared disk would otherwise dominate the set-up time of the small
  // workloads.
  bool disk_copy;
};

// The four workloads in benchmark order.
const std::vector<Workload>& Workloads();
const Workload* FindWorkload(std::string_view name);

// Buffer-pool frames every disk database is opened with: 256 × 8 KB = 2 MB,
// smaller than bigdb's relations, so pager misses show.
inline constexpr uint32_t kPoolFrames = 256;

// Upper bound handed to RunChase; both chase workloads reach their fixpoint
// far below it, so hitting it is a correctness failure, not a cut.
inline constexpr uint64_t kMaxAtoms = 5'000'000;

std::string ProgramPath(const Workload& workload, const std::string& dir);
std::string DiskPath(const std::string& dir);

struct SetupStats {
  uint64_t facts = 0;
  uint64_t tgds = 0;
  uint64_t program_bytes = 0;
  uint64_t disk_bytes = 0;
};

// Generates the workload's inputs from `seed` (same seed, same bytes) and
// writes the program file, and the disk database if the workload has one,
// into `dir`, which must exist.
[[nodiscard]] StatusOr<SetupStats> Setup(const Workload& workload,
                                         Scale scale, uint64_t seed,
                                         const std::string& dir);

// Reads the program file written by Setup, in the workload's format.
[[nodiscard]] StatusOr<Program> LoadProgramFile(const Workload& workload,
                                                const std::string& dir);

}  // namespace spine
}  // namespace chase

#endif  // CHASE_BENCH_SPINE_WORKLOADS_H_
