// The benchmark spine: the measuring half of bench/spine/run.py.
//
//   spine setup --workload=W --seed=N --dir=D [--repeat=K] [--seconds=S]
//               [--scale=smoke]
//       Generates W's inputs from N and writes them, at least K times and
//       for at least S seconds, timing each set-up (setup_s); the last
//       one's files end up in D.
//   spine run --workload=W --dir=D --seconds=S [--scale=smoke]
//       Untraced. Loads D's inputs and, for S seconds, times whole
//       operations back to back (closed loop, one client): the program-file
//       load and the workload's operation at threads=1 and threads=4
//       (alternating which goes first), plus a calibration loop. One
//       warm-up repetition is discarded; it also checks the untimed
//       invariants (shape(D) from the disk copy equals the memory scan).
//       Every repetition's result is checked; a failed check counts the
//       operation as failed.
//   spine trace --workload=W --dir=D --seconds=S --trace-out=F
//       Calls each layer's public entry point one at a time inside trace
//       spans opened here, reads the counters the layers already keep, and
//       writes the first pass as a Perfetto trace to F.
//   spine stamp
//       The compiler and build type, for the result file's stamp.
//
// Each command prints one JSON object on stdout. Raw samples go to run.py,
// which owns the statistics, the metric units (BENCHMARK.json) and the
// golden comparison (goldens.json).

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "base/status.h"
#include "chase/chase_engine.h"
#include "chase/instance.h"
#include "core/dynamic_simplification.h"
#include "core/is_chase_finite.h"
#include "graph/dependency_graph.h"
#include "graph/tarjan.h"
#include "index/find_shapes.h"
#include "io/binary_io.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "logic/tgd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pager/disk_database.h"
#include "pager/disk_shape_source.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"
#include "workloads.h"

namespace chase {
namespace spine {
namespace {

using Clock = std::chrono::steady_clock;

constexpr unsigned kThreads = 4;  // the t4 configuration
// A timed sample of a short operation repeats it until it spans at least
// this long, so sub-millisecond loads are not timer noise.
constexpr double kMinSampleMs = 10.0;
constexpr uint64_t kMinReps = 3;
constexpr uint64_t kMaxReps = 500;
constexpr uint64_t kMaxSetups = 1000;
// Per-thread trace ring size (64 B per event, allocated per emitting
// thread). The busiest thread of one traced pass is deep's main thread: a
// span per rule per round for two serial chases, 2 × 2900 × 20 = 116k
// events, the same for every seed. Twice that leaves room for spans added
// inside the library later; obs.trace_dropped must stay 0.
constexpr size_t kTraceEventsPerThread = 1 << 18;

double MsSince(Clock::time_point begin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - begin)
      .count();
}

// ---------------------------------------------------------------------------
// Output

std::string Num(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string Quote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// A flat JSON object whose values are already serialized.
class JsonObject {
 public:
  JsonObject& Raw(std::string_view key, std::string value) {
    fields_.emplace_back(std::string(key), std::move(value));
    return *this;
  }
  JsonObject& Number(std::string_view key, double value) {
    return Raw(key, Num(value));
  }
  JsonObject& Int(std::string_view key, uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& String(std::string_view key, std::string_view value) {
    return Raw(key, Quote(value));
  }
  std::string Str() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string NumberArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += Num(values[i]);
  }
  return out + "]";
}

std::string StringArray(const std::vector<std::string>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(values[i]);
  }
  return out + "]";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Heap bytes currently allocated from the main arena — what a
// single-threaded operation's live result occupies, unaffected by memory
// the allocator kept from earlier operations (RSS would be).
uint64_t HeapInUse() {
#if defined(__GLIBC__)
  return mallinfo2().uordblks;
#else
  return 0;
#endif
}

// ---------------------------------------------------------------------------
// Flags

struct Flags {
  std::string command;
  std::map<std::string, std::string> values;

  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

StatusOr<Flags> ParseFlags(int argc, char** argv) {
  if (argc < 2) return InvalidArgumentError("missing command");
  Flags flags;
  flags.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.substr(0, 2) != "--") {
      return InvalidArgumentError("unexpected argument: " + std::string(arg));
    }
    arg.remove_prefix(2);
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      flags.values[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc) {
      flags.values[std::string(arg)] = argv[++i];
    } else {
      return InvalidArgumentError("flag without value: --" +
                                  std::string(arg));
    }
  }
  return flags;
}

StatusOr<uint64_t> ParseU64(const std::string& text, const char* what) {
  uint64_t value = 0;
  const auto result =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (text.empty() || result.ec != std::errc() ||
      result.ptr != text.data() + text.size()) {
    return InvalidArgumentError(std::string("invalid --") + what + ": " +
                                text);
  }
  return value;
}

struct Context {
  const Workload* workload = nullptr;
  Scale scale = Scale::kFull;
  std::string dir;
  double seconds = 0;
};

StatusOr<Context> ParseContext(const Flags& flags, bool need_seconds) {
  Context context;
  const std::string name = flags.Get("workload", "");
  context.workload = FindWorkload(name);
  if (context.workload == nullptr) {
    return InvalidArgumentError("unknown --workload: " + name);
  }
  const std::string scale = flags.Get("scale", "full");
  if (scale != "full" && scale != "smoke") {
    return InvalidArgumentError("--scale must be full or smoke");
  }
  context.scale = scale == "smoke" ? Scale::kSmoke : Scale::kFull;
  context.dir = flags.Get("dir", "");
  if (context.dir.empty()) return InvalidArgumentError("missing --dir");
  if (need_seconds) {
    CHASE_ASSIGN_OR_RETURN(uint64_t seconds,
                           ParseU64(flags.Get("seconds", ""), "seconds"));
    if (seconds == 0) return InvalidArgumentError("--seconds must be > 0");
    context.seconds = static_cast<double>(seconds);
  }
  return context;
}

// ---------------------------------------------------------------------------
// Operations and their results

// shape(D) keyed by predicate name: a text program and the disk copy made
// from the generated database may number predicates differently.
using NamedShapes = std::vector<std::pair<std::string, IdTuple>>;

NamedShapes ByName(const Schema& schema, const std::vector<Shape>& shapes) {
  NamedShapes named;
  named.reserve(shapes.size());
  for (const Shape& shape : shapes) {
    named.emplace_back(schema.PredicateName(shape.pred), shape.id);
  }
  std::sort(named.begin(), named.end());
  return named;
}

// Order-dependent FNV-1a over the instance in insertion order: equal
// fingerprints mean the same atoms, nulls and layout, which is what the
// bit-identical-at-any-thread-count contract promises.
uint64_t InstanceFingerprint(const Instance& instance) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  instance.ForEachAtom([&](const GroundAtom& atom) {
    mix(atom.pred);
    for (Term term : atom.args) mix(term);
  });
  return hash;
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// What one operation returned, reduced to the facts the correctness gate
// compares: equal across repetitions and thread counts, and equal to the
// goldens at the default seed.
struct OpResult {
  std::string verdict;  // check: finite|infinite; chase: the outcome
  uint64_t shapes = 0;
  uint64_t derived_shapes = 0;
  uint64_t simplified_tgds = 0;
  uint64_t dg_edges = 0;
  uint64_t atoms = 0;
  uint64_t nulls = 0;
  uint64_t rounds = 0;
  uint64_t triggers = 0;
  uint64_t fingerprint = 0;

  friend bool operator==(const OpResult&, const OpResult&) = default;

  std::string Json(Op op) const {
    JsonObject json;
    json.String("verdict", verdict)
        .Int("shapes", shapes);
    if (op == Op::kCheck) {
      json.Int("derived_shapes", derived_shapes)
          .Int("simplified_tgds", simplified_tgds)
          .Int("dg_edges", dg_edges);
    } else {
      json.Int("atoms", atoms)
          .Int("nulls", nulls)
          .Int("rounds", rounds)
          .Int("triggers", triggers)
          .String("fingerprint", Hex(fingerprint));
    }
    return json.Str();
  }
};

// The timed unit of work: everything the user waits for, nothing the gate
// adds. `result` is filled after the clock stops.
struct Timed {
  double ms = 0;
  Status status;
  OpResult result;
  std::optional<ChaseResult> chase;  // kept for the model check
};

Timed RunCheck(const Program& program, unsigned threads) {
  LCheckOptions options;
  options.shape_finder = storage::ShapeFinderMode::kScan;
  options.shape_threads = threads;
  options.simplify_threads = threads;
  LCheckStats stats;
  const auto begin = Clock::now();
  StatusOr<bool> finite =
      IsChaseFiniteL(*program.database, program.tgds, options, &stats);
  Timed timed;
  timed.ms = MsSince(begin);
  if (!finite.ok()) {
    timed.status = finite.status();
    return timed;
  }
  timed.result.verdict = *finite ? "finite" : "infinite";
  timed.result.shapes = stats.num_initial_shapes;
  timed.result.derived_shapes = stats.num_derived_shapes;
  timed.result.simplified_tgds = stats.num_simplified_tgds;
  timed.result.dg_edges = stats.graph_edges;
  return timed;
}

Timed RunChaseOp(const Program& program, unsigned threads) {
  ChaseOptions options;
  options.variant = ChaseVariant::kSemiOblivious;
  options.frontier_threads = threads;
  options.max_atoms = kMaxAtoms;
  const auto begin = Clock::now();
  StatusOr<ChaseResult> chased =
      RunChase(*program.database, program.tgds, options);
  Timed timed;
  timed.ms = MsSince(begin);
  if (!chased.ok()) {
    timed.status = chased.status();
    return timed;
  }
  timed.result.verdict = ChaseOutcomeName(chased->outcome);
  timed.result.atoms = chased->instance.NumAtoms();
  timed.result.nulls = chased->instance.NumNulls();
  timed.result.rounds = chased->rounds;
  timed.result.triggers = chased->triggers_fired;
  timed.result.fingerprint = InstanceFingerprint(chased->instance);
  timed.chase.emplace(std::move(*chased));
  return timed;
}

Timed RunOp(const Workload& workload, const Program& program,
            unsigned threads) {
  return workload.op == Op::kCheck ? RunCheck(program, threads)
                                   : RunChaseOp(program, threads);
}

// shape(D) from the disk copy: open with a cold 2 MB pool, then the scan
// plan at threads=1 — the paper's in-database t-shapes.
StatusOr<NamedShapes> DiskShapes(const std::string& dir) {
  CHASE_ASSIGN_OR_RETURN(
      std::unique_ptr<pager::DiskDatabase> disk,
      pager::DiskDatabase::Open(DiskPath(dir), kPoolFrames));
  pager::DiskShapeSource source(disk.get());
  storage::FindShapesOptions options;
  options.mode = storage::ShapeFinderMode::kScan;
  CHASE_ASSIGN_OR_RETURN(std::vector<Shape> shapes,
                         index::FindShapes(source, options));
  return ByName(disk->schema(), shapes);
}

NamedShapes MemoryShapes(const Program& program) {
  storage::Catalog catalog(program.database.get());
  storage::MemoryShapeSource source(&catalog);
  // The in-memory scan cannot fail.
  return ByName(*program.schema, index::FindShapes(source, {}).value());
}

// A fixed reference workload timed once per repetition. On a virtual
// machine that shares cores, caches and memory with other tenants, their
// load moves every timing of a run together — by ±10% or more over
// minutes, enough to swamp a regression bound. run.py rescales a run's
// times by this workload's fastest-quarter mean. It must track what slows
// the ops without sharing anything a repo change could alter: the ops are
// bound by cache and memory traffic, so the reference is insert-then-probe
// of random keys in two open-addressing tables over private memory, one
// L2-sized (512 KB) and one larger than a typical L3 share (8 MB). Of the
// references tried — an FNV loop, a pointer chase, allocation churn on the
// program's own heap, a backtracking join over private tuples, the same
// tables split over four threads with a barrier per round — this tracked
// best without depending on the program's heap state. Counts are read
// through volatiles so nothing folds at compile time.
class Calibration {
 public:
  static constexpr size_t kSmallSlots = size_t{1} << 16;
  static constexpr size_t kLargeSlots = size_t{1} << 20;
  static constexpr double kBytes =
      (kSmallSlots + kLargeSlots) * sizeof(uint64_t);

  Calibration() : small_(kSmallSlots), large_(kLargeSlots) {}

  double SampleMs() {
    const auto begin = Clock::now();
    sink_ = InsertAndProbe(small_, small_keys_) +
            InsertAndProbe(large_, large_keys_);
    return MsSince(begin);
  }

 private:
  // Inserts `keys` pseudo-random keys with linear probing, then probes for
  // all of them; returns the number found (always `keys`).
  static uint64_t InsertAndProbe(std::vector<uint64_t>& table,
                                 uint64_t keys) {
    std::fill(table.begin(), table.end(), 0);
    const size_t mask = table.size() - 1;
    auto slot_of = [mask](uint64_t key) {
      return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> 20) & mask;
    };
    auto next_key = [](uint64_t& state) {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state | 1;  // 0 marks an empty slot
    };
    uint64_t state = 0x2545f4914f6cdd1dULL;
    for (uint64_t i = 0; i < keys; ++i) {
      const uint64_t key = next_key(state);
      size_t slot = slot_of(key);
      while (table[slot] != 0 && table[slot] != key) slot = (slot + 1) & mask;
      table[slot] = key;
    }
    state = 0x2545f4914f6cdd1dULL;
    uint64_t found = 0;
    for (uint64_t i = 0; i < keys; ++i) {
      const uint64_t key = next_key(state);
      size_t slot = slot_of(key);
      while (table[slot] != 0 && table[slot] != key) slot = (slot + 1) & mask;
      found += table[slot] == key ? 1 : 0;
    }
    return found;
  }

  std::vector<uint64_t> small_;
  std::vector<uint64_t> large_;
  volatile uint64_t small_keys_ = 40'000;
  volatile uint64_t large_keys_ = 100'000;
  volatile uint64_t sink_ = 0;
};

// Runs `op` `batch` times and returns the mean time of one call; `op`
// returns false on a failed check. BatchFor sizes a batch to span
// kMinSampleMs.
template <typename Fn>
StatusOr<double> TimeBatch(uint64_t batch, Fn&& op) {
  const auto begin = Clock::now();
  for (uint64_t i = 0; i < batch; ++i) {
    if (!op()) return InternalError("operation failed its check");
  }
  return MsSince(begin) / static_cast<double>(batch);
}

uint64_t BatchFor(double one_ms) {
  if (one_ms <= 0) return 1000;
  return std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(kMinSampleMs / one_ms)), 1, 1000);
}

// ---------------------------------------------------------------------------
// spine setup

int SetupCommand(const Flags& flags) {
  auto context = ParseContext(flags, /*need_seconds=*/false);
  if (!context.ok()) {
    std::cerr << context.status() << "\n";
    return 2;
  }
  auto seed = ParseU64(flags.Get("seed", ""), "seed");
  auto repeat = ParseU64(flags.Get("repeat", "1"), "repeat");
  auto min_seconds = ParseU64(flags.Get("seconds", "0"), "seconds");
  if (!seed.ok() || !repeat.ok() || *repeat == 0 || !min_seconds.ok()) {
    std::cerr << "setup needs --seed=N, --repeat=N >= 1 and --seconds=N\n";
    return 2;
  }
  // Each repetition regenerates every input and writes it into a fresh
  // directory (overwriting would add the file system's truncation cost),
  // so the median of the samples is the set-up time. Repetitions continue
  // until there are --repeat of them and they span --seconds: a set-up of a
  // few milliseconds is otherwise one burst of co-tenant load away from a
  // different median. The last repetition's files become the step's
  // inputs; all directories are removed at the end, untimed (removing
  // each one between repetitions made bigdb's next set-up about 8%
  // slower). A calibration sample precedes each repetition, as in the run
  // step.
  Calibration calibration;
  std::vector<double> seconds, calibration_ms;
  StatusOr<SetupStats> stats = InternalError("no set-up ran");
  auto rep_dir = [&](uint64_t i) {
    return context->dir + "/setup-" + std::to_string(i);
  };
  const auto setup_begin = Clock::now();
  uint64_t reps = 0;
  std::error_code error;
  while (reps < *repeat ||
         (MsSince(setup_begin) < 1000.0 * static_cast<double>(*min_seconds) &&
          reps < kMaxSetups)) {
    calibration_ms.push_back(calibration.SampleMs());
    std::filesystem::create_directory(rep_dir(reps), error);
    const auto begin = Clock::now();
    stats = Setup(*context->workload, context->scale, *seed, rep_dir(reps));
    seconds.push_back(MsSince(begin) / 1000.0);
    if (!stats.ok()) {
      std::cerr << "setup failed: " << stats.status() << "\n";
      return 1;
    }
    ++reps;
  }
  const std::string last_dir = rep_dir(reps - 1);
  std::filesystem::rename(ProgramPath(*context->workload, last_dir),
                          ProgramPath(*context->workload, context->dir), error);
  if (!error && context->workload->disk_copy) {
    std::filesystem::rename(DiskPath(last_dir), DiskPath(context->dir),
                            error);
  }
  if (error) {
    std::cerr << "cannot move the set-up files into " << context->dir << ": "
              << error.message() << "\n";
    return 1;
  }
  for (uint64_t i = 0; i < reps; ++i) {
    std::filesystem::remove_all(rep_dir(i), error);
  }
  std::cout << JsonObject()
                   .String("workload", context->workload->name)
                   .Int("facts", stats->facts)
                   .Int("tgds", stats->tgds)
                   .Int("program_bytes", stats->program_bytes)
                   .Int("disk_bytes", stats->disk_bytes)
                   .Raw("setup_s", NumberArray(seconds))
                   .Raw("calibration_ms", NumberArray(calibration_ms))
                   .Str()
            << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// spine run

class Gate {
 public:
  // A check on one operation: each check counts one attempted operation,
  // and a failed check counts it as failed. Returns `ok`.
  bool Check(bool ok, const std::string& message) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      Note(message);
    }
    return ok;
  }
  // A check on untimed work: fails the run without counting an operation.
  void Require(bool ok, const std::string& message) {
    if (!ok) {
      invariant_failed_ = true;
      Note(message);
    }
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && !invariant_failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  // Keeps the first few messages.
  void Note(const std::string& message) {
    if (errors_.size() < 20) errors_.push_back(message);
  }

  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool invariant_failed_ = false;
  std::vector<std::string> errors_;
};

// Untimed invariants that hold for any seed.
void CheckInvariants(const Workload& workload, const Program& program,
                     const Timed& reference, Gate* gate) {
  if (workload.op == Op::kChase) {
    gate->Require(reference.result.verdict ==
                      ChaseOutcomeName(ChaseOutcome::kFixpoint),
                  "chase did not reach its fixpoint: " +
                      reference.result.verdict);
  }
  if (std::string_view(workload.name) == "deep") {
    StatusOr<bool> finite = IsChaseFiniteSL(*program.database, program.tgds);
    gate->Require(finite.ok() && *finite,
                  "deep must be FINITE under IsChaseFiniteSL");
  }
  // The model check re-enumerates every trigger against the whole result;
  // at these sizes that takes well under a second.
  if (reference.chase.has_value()) {
    gate->Require(Satisfies(reference.chase->instance, program.tgds),
                  "the chase result is not a model of the rules");
  }
}

int RunCommand(const Flags& flags) {
  auto context_or = ParseContext(flags, /*need_seconds=*/true);
  if (!context_or.ok()) {
    std::cerr << context_or.status() << "\n";
    return 2;
  }
  const Context context = *context_or;
  const Workload& workload = *context.workload;
  Gate gate;
  // Resident from here to exit, so peak RSS less its size is the program's.
  Calibration calibration;

  // Warm-up repetition (discarded): loads the reference program, fixes the
  // reference results every timed repetition must reproduce, and sizes the
  // batches of the short operations.
  const auto warm_begin = Clock::now();
  StatusOr<Program> program_or = LoadProgramFile(workload, context.dir);
  const double warm_load_ms = MsSince(warm_begin);
  if (!program_or.ok()) {
    std::cerr << "load failed: " << program_or.status() << "\n";
    return 1;
  }
  const Program program = std::move(program_or).value();
  const size_t facts = program.database->TotalFacts();
  const size_t tgds = program.tgds.size();
  const NamedShapes memory_shapes = MemoryShapes(program);

  const Timed reference = RunOp(workload, program, 1);
  if (!reference.status.ok()) {
    std::cerr << "operation failed: " << reference.status << "\n";
    return 1;
  }
  const Timed reference_t4 = RunOp(workload, program, kThreads);
  gate.Require(reference_t4.status.ok() &&
                   reference_t4.result == reference.result,
               "threads=4 result differs from threads=1");
  CheckInvariants(workload, program, reference, &gate);

  if (workload.disk_copy) {
    StatusOr<NamedShapes> disk_shapes = DiskShapes(context.dir);
    gate.Require(disk_shapes.ok() && *disk_shapes == memory_shapes,
                 "shape(D) from the disk scan differs from the memory scan");
  }

  const uint64_t load_batch = BatchFor(warm_load_ms);
  auto load_ok = [&]() {
    StatusOr<Program> loaded = LoadProgramFile(workload, context.dir);
    return loaded.ok() && loaded->database->TotalFacts() == facts &&
           loaded->tgds.size() == tgds;
  };

  std::vector<double> load_ms, op_ms, op_ms_t4, calibration_ms;
  const auto run_begin = Clock::now();
  for (uint64_t rep = 0; rep < kMaxReps; ++rep) {
    const double elapsed_s = MsSince(run_begin) / 1000.0;
    if (rep >= kMinReps) {
      const double per_rep_s = elapsed_s / static_cast<double>(rep);
      if (elapsed_s + per_rep_s > context.seconds) break;
    }
    calibration_ms.push_back(calibration.SampleMs());
    StatusOr<double> load = TimeBatch(load_batch, load_ok);
    if (gate.Check(load.ok(), "program load failed or changed")) {
      load_ms.push_back(*load);
    }
    // t1 and t4 alternate which runs first, so neither always inherits
    // the other's cache and allocator state.
    for (unsigned turn = 0; turn < 2; ++turn) {
      const unsigned threads = (turn + rep) % 2 == 0 ? 1 : kThreads;
      const Timed timed = RunOp(workload, program, threads);
      const bool ok = timed.status.ok() && timed.result == reference.result;
      if (gate.Check(ok, "threads=" + std::to_string(threads) +
                             " operation failed or changed its result")) {
        (threads == 1 ? op_ms : op_ms_t4).push_back(timed.ms);
      }
    }
  }

  OpResult result = reference.result;
  result.shapes = memory_shapes.size();
  JsonObject samples;
  samples.Raw("load_ms", NumberArray(load_ms))
      .Raw("op_ms", NumberArray(op_ms))
      .Raw("op_ms_t4", NumberArray(op_ms_t4))
      .Raw("peak_rss_mb",
           NumberArray({PeakRssMb() - Calibration::kBytes / (1 << 20)}));
  std::cout << JsonObject()
                   .String("workload", workload.name)
                   .String("op", workload.op == Op::kCheck ? "check" : "chase")
                   .Raw("correct", gate.correct() ? "true" : "false")
                   .Int("attempted", gate.attempted())
                   .Int("failed", gate.failed())
                   .Raw("errors", StringArray(gate.errors()))
                   .Raw("result", result.Json(workload.op))
                   .Int("facts", facts)
                   .Int("tgds", tgds)
                   .Int("load_batch", load_batch)
                   .Raw("calibration_ms", NumberArray(calibration_ms))
                   .Raw("samples", samples.Str())
                   .Str()
            << "\n";
  return gate.correct() ? 0 : 1;
}

// ---------------------------------------------------------------------------
// spine trace

// pool.* counters of the metrics registry, read around the t4 calls.
struct PoolCounters {
  uint64_t busy_us = 0;
  uint64_t barrier_wait_us = 0;
  uint64_t epochs = 0;

  static PoolCounters Read() {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
    return {registry.GetCounter("pool.busy_us")->Value(),
            registry.GetCounter("pool.barrier_wait_us")->Value(),
            registry.GetCounter("pool.epochs")->Value()};
  }
  PoolCounters Since(const PoolCounters& before) const {
    return {busy_us - before.busy_us, barrier_wait_us - before.barrier_wait_us,
            epochs - before.epochs};
  }
};

// One traced pass over the layers; times in ms, counts as measured.
struct Pass {
  std::map<std::string, double> values;
  double layer_sum_ms = 0;  // the layer calls the monolithic op is made of
  double op_ms = 0;         // the monolithic op, traced
};

class TraceStep {
 public:
  TraceStep(const Context& context, const Program& program,
            std::string chbin_path, std::string rules_text, Gate* gate)
      : context_(context),
        workload_(*context.workload),
        program_(program),
        chbin_path_(std::move(chbin_path)),
        rules_text_(std::move(rules_text)),
        gate_(gate) {
    for (const Tgd& tgd : program.tgds) {
      if (tgd.IsLinear()) linear_.push_back(tgd);
    }
  }

  Pass RunPass() {
    Pass pass;
    auto& v = pass.values;
    // The check op is FindShapes + simplification + dg + SCCs, the chase
    // op is RunChase: those layer calls are what coverage compares.
    const bool check = workload_.op == Op::kCheck;
    PoolCounters pool;
    double t4_wall_ms = 0;
    auto t4 = [&](auto&& fn) {
      const PoolCounters before = PoolCounters::Read();
      const auto begin = Clock::now();
      fn();
      t4_wall_ms += MsSince(begin);
      const PoolCounters delta = PoolCounters::Read().Since(before);
      pool.busy_us += delta.busy_us;
      pool.barrier_wait_us += delta.barrier_wait_us;
      pool.epochs += delta.epochs;
    };

    // io: the binary envelope.
    {
      obs::TraceSpan span("spine", "io.load");
      const auto begin = Clock::now();
      StatusOr<Program> loaded = io::LoadProgram(chbin_path_);
      v["io.load_ms"] = MsSince(begin);
      gate_->Check(loaded.ok(), "io::LoadProgram failed");
    }
    // logic: the text parser over Σ.
    {
      obs::TraceSpan span("spine", "logic.parse");
      const auto begin = Clock::now();
      StatusOr<Program> parsed = ParseProgram(rules_text_);
      v["logic.parse_ms"] = MsSince(begin);
      gate_->Check(parsed.ok() && parsed->tgds.size() == program_.tgds.size(),
                   "ParseProgram failed or lost rules");
    }
    // storage: the scan plan over the row store.
    storage::Catalog catalog(program_.database.get());
    storage::MemoryShapeSource source(&catalog);
    std::vector<Shape> shapes;
    {
      const storage::AccessStats before = source.stats();
      obs::TraceSpan span("spine", "storage.scan");
      const auto begin = Clock::now();
      shapes = index::FindShapes(source, {}).value();
      const double ms = MsSince(begin);
      v["storage.scan_ms"] = ms;
      if (check) pass.layer_sum_ms += ms;
      const double tuples = static_cast<double>(source.stats().tuples_scanned -
                                                before.tuples_scanned);
      v["storage.tuples_scanned"] = tuples;
      v["storage.shapes"] = static_cast<double>(shapes.size());
      v["storage.tuples_per_s"] = tuples / (ms / 1000.0);
    }
    t4([&] {
      obs::TraceSpan span("spine", "storage.scan_t4");
      storage::FindShapesOptions options;
      options.threads = kThreads;
      const auto begin = Clock::now();
      std::vector<Shape> parallel = index::FindShapes(source, options).value();
      v["storage.scan_ms_t4"] = MsSince(begin);
      gate_->Check(parallel == shapes, "threads=4 shape scan differs");
    });
    // pager: open the disk copy cold, then the same scan through the pool.
    {
      std::unique_ptr<pager::DiskDatabase> disk;
      {
        obs::TraceSpan span("spine", "pager.open");
        const auto begin = Clock::now();
        auto opened = pager::DiskDatabase::Open(DiskPath(context_.dir),
                                                kPoolFrames);
        v["pager.open_ms"] = MsSince(begin);
        if (gate_->Check(opened.ok(), "DiskDatabase::Open failed")) {
          disk = std::move(opened).value();
        }
      }
      if (disk != nullptr) {
        pager::DiskShapeSource disk_source(disk.get());
        const storage::IoCounters before = disk_source.Io();
        obs::TraceSpan span("spine", "pager.scan");
        const auto begin = Clock::now();
        auto disk_shapes = index::FindShapes(disk_source, {});
        v["pager.scan_ms"] = MsSince(begin);
        const storage::IoCounters io = disk_source.Io().Since(before);
        v["pager.pages_read"] = static_cast<double>(io.pages_read);
        v["pager.pool_misses"] = static_cast<double>(io.pool_misses);
        const uint64_t fetches = io.pool_hits + io.pool_misses;
        v["pager.pool_hit_rate"] =
            fetches == 0 ? 0.0
                         : static_cast<double>(io.pool_hits) /
                               static_cast<double>(fetches);
        gate_->Check(disk_shapes.ok() &&
                         ByName(disk->schema(), *disk_shapes) ==
                             ByName(*program_.schema, shapes),
                     "disk shape(D) differs from memory shape(D)");
      }
    }
    // core: dynamic simplification of the linear rules from shape(D).
    std::optional<DynamicSimplificationResult> simplified;
    {
      obs::TraceSpan span("spine", "core.simplify");
      const auto begin = Clock::now();
      auto result = DynamicSimplificationFromShapes(*program_.schema, linear_,
                                                    shapes, 1);
      const double ms = MsSince(begin);
      v["core.simplify_ms"] = ms;
      if (check) pass.layer_sum_ms += ms;
      if (gate_->Check(result.ok(), "dynamic simplification failed")) {
        simplified.emplace(std::move(result).value());
      }
    }
    t4([&] {
      obs::TraceSpan span("spine", "core.simplify_t4");
      const auto begin = Clock::now();
      auto result = DynamicSimplificationFromShapes(*program_.schema, linear_,
                                                    shapes, kThreads);
      v["core.simplify_ms_t4"] = MsSince(begin);
      gate_->Check(result.ok() && simplified.has_value() &&
                       result->tgds == simplified->tgds,
                   "threads=4 simplification differs");
    });
    if (simplified.has_value()) {
      v["core.derived_shapes"] =
          static_cast<double>(simplified->num_derived_shapes);
      v["core.simplified_tgds"] = static_cast<double>(simplified->tgds.size());
      v["core.simplified_per_rule"] =
          linear_.empty() ? 0.0
                          : static_cast<double>(simplified->tgds.size()) /
                                static_cast<double>(linear_.size());
      v["core.frontier_depths"] =
          static_cast<double>(simplified->frontier.depths);
      v["core.frontier_max"] =
          static_cast<double>(simplified->frontier.max_frontier);
    }
    // graph: dg(simple_D(Σ)) and its special SCCs; for the non-linear join
    // rules, dg(Σ) itself — the graph weak acyclicity is decided on.
    {
      const bool linear = linear_.size() == program_.tgds.size();
      const Schema& schema = linear && simplified.has_value()
                                 ? simplified->shape_schema->schema()
                                 : *program_.schema;
      const std::vector<Tgd>& rules = linear && simplified.has_value()
                                          ? simplified->tgds
                                          : program_.tgds;
      std::optional<DependencyGraph> graph;
      {
        obs::TraceSpan span("spine", "graph.build");
        const auto begin = Clock::now();
        graph.emplace(BuildDependencyGraph(schema, rules));
        const double ms = MsSince(begin);
        v["graph.build_ms"] = ms;
        if (check) pass.layer_sum_ms += ms;
      }
      {
        obs::TraceSpan span("spine", "graph.scc");
        const auto begin = Clock::now();
        const SpecialSccs special = FindSpecialSccs(graph->graph());
        const double ms = MsSince(begin);
        v["graph.scc_ms"] = ms;
        if (check) pass.layer_sum_ms += ms;
        (void)special;  // the verdict is the run step's business
      }
      v["graph.nodes"] = static_cast<double>(graph->num_nodes());
      v["graph.edges"] = static_cast<double>(graph->num_edges());
      v["graph.special_edges"] =
          static_cast<double>(graph->num_special_edges());
      // The check frees simple_D(Σ) and its graph before it returns, so
      // the release belongs to the layers' share of the op.
      obs::TraceSpan span("spine", "core.release");
      const auto begin = Clock::now();
      graph.reset();
      simplified.reset();
      if (check) pass.layer_sum_ms += MsSince(begin);
    }
    // chase: the engine at t1 (the op's layer) and t4.
    for (const char* key :
         {"chase.rounds", "chase.triggers_fired", "chase.atoms", "chase.nulls",
          "chase.atoms_per_s", "chase.atoms_per_trigger",
          "chase.bytes_per_atom", "chase.peak_buffered_homs"}) {
      v[key] = 0;  // stays 0 where the workload's op is not a chase
    }
    if (workload_.op == Op::kChase) {
      ChaseOptions options;
      options.max_atoms = kMaxAtoms;
      uint64_t serial_fingerprint = 0;
      {
        const uint64_t heap_before = HeapInUse();
        obs::TraceSpan span("spine", "chase.run");
        const auto begin = Clock::now();
        auto chased = RunChase(*program_.database, program_.tgds, options);
        const double ms = MsSince(begin);
        pass.layer_sum_ms += ms;
        if (gate_->Check(chased.ok(), "RunChase failed")) {
          const double atoms = static_cast<double>(chased->instance.NumAtoms());
          v["chase.rounds"] = static_cast<double>(chased->rounds);
          v["chase.triggers_fired"] =
              static_cast<double>(chased->triggers_fired);
          v["chase.atoms"] = atoms;
          v["chase.nulls"] = static_cast<double>(chased->instance.NumNulls());
          v["chase.atoms_per_s"] = atoms / (ms / 1000.0);
          v["chase.atoms_per_trigger"] =
              chased->triggers_fired == 0
                  ? 0.0
                  : (atoms - static_cast<double>(
                                 program_.database->TotalFacts())) /
                        static_cast<double>(chased->triggers_fired);
          const uint64_t heap_after = HeapInUse();
          v["chase.bytes_per_atom"] =
              heap_after > heap_before
                  ? static_cast<double>(heap_after - heap_before) / atoms
                  : 0.0;
          serial_fingerprint = InstanceFingerprint(chased->instance);
        }
      }
      t4([&] {
        ChaseOptions parallel_options = options;
        parallel_options.frontier_threads = kThreads;
        obs::TraceSpan span("spine", "chase.run_t4");
        auto chased =
            RunChase(*program_.database, program_.tgds, parallel_options);
        if (gate_->Check(chased.ok() &&
                             InstanceFingerprint(chased->instance) ==
                                 serial_fingerprint,
                         "threads=4 chase differs")) {
          v["chase.peak_buffered_homs"] =
              static_cast<double>(chased->peak_buffered_homs);
        }
      });
    }
    // exec: the worker pool across this pass's t4 calls.
    v["exec.busy_us"] = static_cast<double>(pool.busy_us);
    v["exec.barrier_wait_us"] = static_cast<double>(pool.barrier_wait_us);
    v["exec.epochs"] = static_cast<double>(pool.epochs);
    v["exec.efficiency"] =
        t4_wall_ms <= 0 ? 0.0
                        : static_cast<double>(pool.busy_us) /
                              (kThreads * t4_wall_ms * 1000.0);
    // The monolithic op the layers above compose, traced.
    {
      obs::TraceSpan span("spine", "op");
      const Timed timed = RunOp(workload_, program_, 1);
      pass.op_ms = timed.ms;
      gate_->Check(timed.status.ok(), "traced operation failed");
    }
    return pass;
  }

 private:
  const Context& context_;
  const Workload& workload_;
  const Program& program_;
  const std::string chbin_path_;
  const std::string rules_text_;
  Gate* gate_;
  std::vector<Tgd> linear_;
};

// Times and rates vary between passes and are reported as medians; every
// other metric is a count fixed by the input, taken from the first pass.
bool IsTime(const std::string& name) {
  const auto ends_with = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  return ends_with("_ms") || ends_with("_ms_t4") || ends_with("_us") ||
         ends_with("_per_s") || ends_with("efficiency");
}

int TraceCommand(const Flags& flags) {
  auto context_or = ParseContext(flags, /*need_seconds=*/true);
  if (!context_or.ok()) {
    std::cerr << context_or.status() << "\n";
    return 2;
  }
  const Context context = *context_or;
  const Workload& workload = *context.workload;
  const std::string trace_out = flags.Get("trace-out", "");
  if (trace_out.empty()) {
    std::cerr << "missing --trace-out\n";
    return 2;
  }
  Gate gate;

  StatusOr<Program> program_or = LoadProgramFile(workload, context.dir);
  if (!program_or.ok()) {
    std::cerr << "load failed: " << program_or.status() << "\n";
    return 1;
  }
  const Program program = std::move(program_or).value();
  // Both layer inputs exist for every workload: the envelope (written here
  // for text workloads) and Σ as text.
  std::string chbin_path = ProgramPath(workload, context.dir);
  if (workload.format != Format::kBinary) {
    chbin_path = context.dir + "/trace.chbin";
    if (Status status = io::SaveProgram(*program.schema, *program.database,
                                        program.tgds, chbin_path);
        !status.ok()) {
      std::cerr << status << "\n";
      return 1;
    }
  }
  std::error_code error;
  const double chbin_mb =
      static_cast<double>(std::filesystem::file_size(chbin_path, error)) /
      1e6;
  std::string rules_text = TgdsToString(*program.schema, program.tgds);
  const double rules_mb = static_cast<double>(rules_text.size()) / 1e6;
  // The pager layer is traced on every workload; the ones whose set-up
  // writes no disk copy get it here, untimed.
  if (!workload.disk_copy) {
    auto created = pager::DiskDatabase::Create(DiskPath(context.dir),
                                               *program.database, kPoolFrames);
    if (!created.ok()) {
      std::cerr << created.status() << "\n";
      return 1;
    }
  }

  // Untraced baseline of the monolithic op, for the tracing overhead: a
  // discarded warm-up, then the median of three.
  const auto begin = Clock::now();
  std::vector<double> untraced;
  for (int i = 0; i < 4; ++i) {
    const Timed timed = RunOp(workload, program, 1);
    if (!gate.Check(timed.status.ok(), "untraced operation failed")) break;
    if (i > 0) untraced.push_back(timed.ms);
  }

  TraceStep step(context, program, chbin_path, std::move(rules_text), &gate);
  obs::MetricsRegistry::SetEnabled(true);
  obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
  recorder.Start(kTraceEventsPerThread);
  std::vector<Pass> passes;
  passes.push_back(step.RunPass());
  recorder.Stop();
  const uint64_t dropped = recorder.dropped();
  if (Status status = recorder.WriteJsonFile(trace_out); !status.ok()) {
    gate.Require(false, status.ToString());
  }
  gate.Require(dropped == 0, "the trace dropped events");
  // Further passes untraced (the recorder is off; spans cost one load), so
  // the per-layer times below are medians, not single samples.
  while (MsSince(begin) / 1000.0 < context.seconds &&
         passes.size() < kMaxReps) {
    passes.push_back(step.RunPass());
  }
  obs::MetricsRegistry::SetEnabled(false);

  std::map<std::string, double> metrics;
  for (const auto& [name, first] : passes.front().values) {
    if (!IsTime(name)) {
      metrics[name] = first;
      continue;
    }
    std::vector<double> values;
    for (const Pass& pass : passes) values.push_back(pass.values.at(name));
    metrics[name] = Median(values);
  }
  metrics["io.load_mb_per_s"] = chbin_mb / (metrics["io.load_ms"] / 1000.0);
  metrics["logic.parse_mb_per_s"] =
      rules_mb / (metrics["logic.parse_ms"] / 1000.0);
  std::vector<double> coverage;
  for (const Pass& pass : passes) {
    coverage.push_back(pass.layer_sum_ms / pass.op_ms);
  }
  metrics["obs.coverage"] = Median(coverage);
  metrics["obs.trace_dropped"] = static_cast<double>(dropped);
  const double untraced_ms = Median(untraced);
  metrics["obs.trace_overhead_pct"] =
      untraced_ms > 0 ? (passes.front().op_ms / untraced_ms - 1.0) * 100.0
                      : 0.0;
  if (workload.op == Op::kCheck) {
    gate.Require(metrics["obs.coverage"] >= 0.9 &&
                     metrics["obs.coverage"] <= 1.1,
                 "layer spans cover " + Num(metrics["obs.coverage"]) +
                     " of the check, outside [0.9, 1.1]");
  }

  JsonObject values;
  for (const auto& [name, value] : metrics) values.Number(name, value);
  std::cout << JsonObject()
                   .String("workload", workload.name)
                   .Raw("correct", gate.correct() ? "true" : "false")
                   .Int("attempted", gate.attempted())
                   .Int("failed", gate.failed())
                   .Raw("errors", StringArray(gate.errors()))
                   .Int("passes", passes.size())
                   .String("trace_file", trace_out)
                   .Raw("metrics", values.Str())
                   .Str()
            << "\n";
  return gate.correct() ? 0 : 1;
}

int StampCommand() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::cout << JsonObject()
                   .String("compiler", compiler)
                   .String("build_type", SPINE_BUILD_TYPE)
                   .Str()
            << "\n";
  return 0;
}

}  // namespace
}  // namespace spine
}  // namespace chase

int main(int argc, char** argv) {
  using namespace chase::spine;
  auto flags = ParseFlags(argc, argv);
  if (!flags.ok()) {
    std::cerr << flags.status()
              << "\nusage: spine {setup|run|trace|stamp} [--flag=value ...]\n";
    return 2;
  }
  if (flags->command == "setup") return SetupCommand(*flags);
  if (flags->command == "run") return RunCommand(*flags);
  if (flags->command == "trace") return TraceCommand(*flags);
  if (flags->command == "stamp") return StampCommand();
  std::cerr << "unknown command: " << flags->command << "\n";
  return 2;
}
