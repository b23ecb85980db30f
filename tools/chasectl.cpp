// chasectl — the command-line front end to the chase-termination library.
//
// Subcommands:
//   check <file> [--mode=sl|l] [--shapes=mem|db] [--threads=N]
//                [--snapshot=path.chidx]          termination check
//   explain <file>                                 non-termination witness
//   chase <file> [--variant=so|ob|re] [--max-atoms=N] [--max-rounds=N]
//               [--checkpoint=FILE] [--checkpoint-every=N] [--resume=FILE]
//               [--progress[=SECS]] [--metrics-interval=SECS] [--print]
//   simplify <file> [--mode=scan|exists] [--threads=N] [--print]
//                                                  simple_D(Σ) via the
//                                                  frontier-parallel
//                                                  worklist
//   findshapes <file> [--backend=memory|disk]
//              [--mode=scan|exists] [--threads=N]
//              [--snapshot=path.chidx] [--store=path.db]
//                                                  shape(D) via ShapeSource
//   index build <file> <out.chidx> [--backend=memory|disk] [--threads=N]
//               [--store=path.db]                  materialize shape(D)
//   index stat <snapshot.chidx>                    snapshot diagnostics
//   stats <file>                                   Table-1-style statistics
//   zoo <file>                                     uniform termination:
//                                                  weak acyclicity and the
//                                                  exact check on D⊤
//   generate <out> [--preds=N] [--tgds=N] [--tuples=N] [--arity=N]
//            [--domain=N] [--class=sl|l] [--seed=N]
//                                                  synthesize a workload
//   graph <file> [--all-nodes]                     Graphviz dot on stdout
//   normalize <in> <out>                           eliminate empty frontiers
//   convert <in> <out>                             text <-> binary (by
//                                                  extension: .chbin)
//
// Files ending in .chbin are read/written with the binary format
// (io/binary_io.h); .chidx files are shape-index snapshots;
// anything else uses the Datalog± text syntax. Every subcommand rejects a
// flag it does not read (exit code 2), and so does every path that does
// not read it (check --mode=sl, check --snapshot, findshapes --snapshot,
// index stat).
//
// check, chase, simplify, and findshapes additionally take
// --trace=FILE (Chrome trace-event JSON for Perfetto/chrome://tracing)
// and --metrics=FILE (metrics-registry JSON dump) — see README
// "Observability".

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/timer.h"
#include "chase/chase_engine.h"
#include "core/dynamic_simplification.h"
#include "core/explain.h"
#include "core/is_chase_finite.h"
#include "core/normalize.h"
#include "core/uniform.h"
#include "core/weak_acyclicity.h"
#include "exec/frontier_pool.h"
#include "gen/data_generator.h"
#include "gen/tgd_generator.h"
#include "graph/dependency_graph.h"
#include "graph/dot.h"
#include "index/shape_index.h"
#include "io/binary_io.h"
#include "logic/atom.h"
#include "logic/database.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "logic/schema.h"
#include "logic/shape.h"
#include "logic/tgd.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "pager/buffer_pool.h"
#include "pager/disk_database.h"
#include "pager/disk_shape_source.h"
#include "storage/catalog.h"
#include "storage/shape_finder.h"
#include "storage/shape_source.h"

namespace {

using namespace chase;

// ---------------------------------------------------------------------------
// Small flag parser: positional arguments plus --key=value / --key.

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> flags;

  static Args Parse(int argc, char** argv, int start) {
    Args args;
    for (int i = start; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const size_t eq = arg.find('=');
        if (eq == std::string::npos) {
          args.flags[arg.substr(2)] = "true";
        } else {
          args.flags[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        }
      } else {
        args.positional.push_back(std::move(arg));
      }
    }
    return args;
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return flags.count(key) > 0; }
};

bool IsBinaryPath(const std::string& path) {
  return path.size() > 6 && path.compare(path.size() - 6, 6, ".chbin") == 0;
}

// Parses an integer flag into [lo, hi]; diagnoses and returns false on
// non-numeric, negative, or out-of-range values — every numeric flag goes
// through here, so a malformed value is a diagnosed exit-code-2 failure,
// never an uncaught std::invalid_argument out of a raw conversion.
bool ParseU64Flag(const Args& args, const std::string& key, uint64_t fallback,
                  uint64_t lo, uint64_t hi, uint64_t* out) {
  const std::string raw = args.Get(key, std::to_string(fallback));
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw.c_str(), &end, 10);
  if (raw.empty() || end == raw.c_str() || *end != '\0' || raw[0] == '-' ||
      errno == ERANGE || value < lo || value > hi) {
    std::cerr << "bad --" << key << "=" << raw << " (want an integer in ["
              << lo << ", " << hi << "])\n";
    return false;
  }
  *out = value;
  return true;
}

bool ParseBoundedFlag(const Args& args, const std::string& key,
                      uint64_t fallback, uint64_t lo, uint64_t hi,
                      unsigned* out) {
  uint64_t value = 0;
  if (!ParseU64Flag(args, key, fallback, lo, hi, &value)) return false;
  *out = static_cast<unsigned>(value);
  return true;
}

bool ParseThreads(const Args& args, unsigned* threads) {
  return ParseBoundedFlag(args, "threads", 1, 1, 1024, threads);
}

// Pool size for a disk-backend run: per-shard capacity must cover one
// pinned page per scan worker even if every worker's pin lands in one
// shard, i.e. frames >= threads x shards (auto-sharding splits into at
// most BufferPool::kDefaultShards). Capped so pathological thread counts
// don't balloon memory — past the cap the pool falls back on its bounded
// pin-wait.
uint32_t DiskPoolFrames(unsigned threads) {
  const uint64_t frames = std::max<uint64_t>(
      64, uint64_t{std::max(1u, threads)} * pager::BufferPool::kDefaultShards);
  return static_cast<uint32_t>(std::min<uint64_t>(frames, 1u << 16));
}

// --mode=scan|exists -> the FindShapes query plan.
bool ParseFinderMode(const Args& args, storage::ShapeFinderMode* mode) {
  const std::string raw = args.Get("mode", "scan");
  if (raw == "scan") {
    *mode = storage::ShapeFinderMode::kScan;
  } else if (raw == "exists") {
    *mode = storage::ShapeFinderMode::kExists;
  } else {
    std::cerr << "unknown --mode=" << raw << " (want scan or exists)\n";
    return false;
  }
  return true;
}

StatusOr<Program> LoadAnyProgram(const std::string& path) {
  if (IsBinaryPath(path)) return io::LoadProgram(path);
  return ParseProgramFile(path);
}

Status SaveAnyProgram(const Program& program, const std::string& path) {
  if (IsBinaryPath(path)) {
    return io::SaveProgram(*program.schema, *program.database, program.tgds,
                           path);
  }
  std::ofstream out(path);
  if (!out) return InternalError("cannot create file: " + path);
  PrintDatabase(*program.database, out);
  PrintTgds(*program.schema, program.tgds, out);
  return out.good() ? OkStatus() : InternalError("short write: " + path);
}

int Fail(const Status& status) {
  std::cerr << "error: " << status << "\n";
  return 1;
}

// The shape source of a findshapes or index build run: the in-memory
// catalog, or with --backend=disk a pager store written from the database.
// The store lives at --store, which is kept, or at a per-process scratch
// path under /tmp (so concurrent runs don't stomp each other's heap files),
// which Close removes; the destructor closes, so every exit path does.
class ScanBackend {
 public:
  // `database` must outlive the backend.
  explicit ScanBackend(const Database* database)
      : catalog_(database), memory_(&catalog_) {}
  ~ScanBackend() { Close(); }
  ScanBackend(const ScanBackend&) = delete;
  ScanBackend& operator=(const ScanBackend&) = delete;

  // Selects --backend. Returns 0, or the exit code after printing why: 2
  // for an unknown backend, 1 for a store that could not be written.
  int Open(const Args& args, const std::string& stem, unsigned threads) {
    const std::string backend = args.Get("backend", "memory");
    if (backend == "memory") return 0;
    if (backend != "disk") {
      std::cerr << "unknown --backend=" << backend
                << " (want memory or disk)\n";
      return 2;
    }
    const std::string path = args.Get(
        "store", "/tmp/" + stem + "." + std::to_string(::getpid()) + ".db");
    if (!args.Has("store")) scratch_path_ = path;
    auto created = pager::DiskDatabase::Create(
        path, catalog_.database(), DiskPoolFrames(threads));
    if (!created.ok()) return Fail(created.status());
    disk_db_ = std::move(created).value();
    disk_source_ = std::make_unique<pager::DiskShapeSource>(disk_db_.get());
    return 0;
  }

  const storage::ShapeSource& source() const {
    if (disk_source_ != nullptr) return *disk_source_;
    return memory_;
  }

  // Closes the store (flush + stats quiesce), then removes a scratch one.
  void Close() {
    disk_source_.reset();
    disk_db_.reset();
    if (!scratch_path_.empty()) std::remove(scratch_path_.c_str());
    scratch_path_.clear();
  }

 private:
  storage::Catalog catalog_;
  storage::MemoryShapeSource memory_;
  std::unique_ptr<pager::DiskDatabase> disk_db_;
  std::unique_ptr<pager::DiskShapeSource> disk_source_;
  std::string scratch_path_;  // empty with --store
};

// Loads the shape-index snapshot at `path` and checks that it indexes
// exactly `db`: the tuple count first (cheap), then the content
// fingerprint, so a remove+insert pair that preserves counts is still
// caught. A snapshot of another program fails here, before any of its
// shapes is read against the wrong schema.
StatusOr<index::ShapeIndex> LoadSnapshotOf(const std::string& path,
                                           const Database& db) {
  CHASE_ASSIGN_OR_RETURN(index::ShapeIndex loaded,
                         index::ShapeIndex::Load(path));
  if (loaded.NumIndexedTuples() != db.TotalFacts()) {
    return FailedPreconditionError(
        "snapshot indexes " + std::to_string(loaded.NumIndexedTuples()) +
        " tuples but the database holds " + std::to_string(db.TotalFacts()) +
        " — stale or mismatched snapshot; rebuild with "
        "`chasectl index build`");
  }
  if (loaded.ContentFingerprint() != index::DatabaseFingerprint(db)) {
    return FailedPreconditionError(
        "snapshot content fingerprint does not match the database "
        "(same tuple count, different tuples) — stale or mismatched "
        "snapshot; rebuild with `chasectl index build`");
  }
  return loaded;
}

// ---------------------------------------------------------------------------
// Observability wiring shared by the long-running subcommands:
// --trace=FILE records the run as Chrome trace-event JSON (Perfetto /
// chrome://tracing), --metrics=FILE dumps the metrics registry as JSON.
// Both paths are probed (opened) BEFORE the run, so a typo'd directory is
// a clean up-front failure — not an hour-long chase whose artifact then
// fails to write.

struct ObsSession {
  std::string trace_path;
  std::string metrics_path;

  // Returns 0 when the run may proceed, else the exit code: 2 for a
  // flag-syntax error, 1 for an unwritable path.
  int Begin(const Args& args) {
    if (args.Has("trace") && args.Get("trace", "") == "true") {
      std::cerr << "bad --trace (want --trace=FILE)\n";
      return 2;
    }
    if (args.Has("metrics") && args.Get("metrics", "") == "true") {
      std::cerr << "bad --metrics (want --metrics=FILE)\n";
      return 2;
    }
    trace_path = args.Get("trace", "");
    metrics_path = args.Get("metrics", "");
    for (const std::string& path : {trace_path, metrics_path}) {
      if (path.empty()) continue;
      std::ofstream probe(path, std::ios::trunc);
      if (!probe) {
        return Fail(InternalError("cannot write file: " + path));
      }
    }
    if (!metrics_path.empty()) {
      obs::MetricsRegistry::Get().Reset();
      obs::MetricsRegistry::SetEnabled(true);
    }
    if (!trace_path.empty()) obs::TraceRecorder::Get().Start();
    return 0;
  }

  // Writes the artifacts (stopping the recorders). Returns the exit code.
  int End() {
    if (!trace_path.empty()) {
      obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
      if (Status status = recorder.WriteJsonFile(trace_path); !status.ok()) {
        return Fail(status);
      }
      std::cerr << "wrote trace: " << trace_path << " ("
                << recorder.recorded() << " events, " << recorder.dropped()
                << " dropped)\n";
    }
    if (!metrics_path.empty()) {
      obs::MetricsRegistry::SetEnabled(false);
      std::ofstream out(metrics_path);
      obs::MetricsRegistry::Get().DumpJson(out);
      if (!out.good()) {
        return Fail(InternalError("short write: " + metrics_path));
      }
      std::cerr << "wrote metrics: " << metrics_path << "\n";
    }
    return 0;
  }
};

// --progress[=SECS]: live chase status lines on stderr. Bare --progress
// means a 2-second tick; an explicit value must be a whole number of
// seconds in [1, 86400].
bool ParseProgress(const Args& args,
                   std::optional<std::chrono::seconds>* interval) {
  if (!args.Has("progress")) return true;
  if (args.Get("progress", "") == "true") {  // bare --progress
    *interval = std::chrono::seconds(2);
    return true;
  }
  uint64_t secs = 0;
  if (!ParseU64Flag(args, "progress", 2, 1, 86'400, &secs)) return false;
  *interval = std::chrono::seconds(secs);
  return true;
}

// --metrics-interval=SECS: periodic metrics-registry JSON dumps on stderr
// for watching a live chase. Whole seconds in [1, 86400]; no bare form —
// the flag names a cadence, so a value is required.
bool ParseMetricsInterval(const Args& args,
                          std::optional<std::chrono::seconds>* interval) {
  if (!args.Has("metrics-interval")) return true;
  if (args.Get("metrics-interval", "") == "true") {
    std::cerr << "bad --metrics-interval (want --metrics-interval=SECS)\n";
    return false;
  }
  uint64_t secs = 0;
  if (!ParseU64Flag(args, "metrics-interval", 2, 1, 86'400, &secs)) {
    return false;
  }
  *interval = std::chrono::seconds(secs);
  return true;
}

// ---------------------------------------------------------------------------
// check

int CmdCheck(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: chasectl check <file> [--mode=sl|l] "
                 "[--shapes=mem|db] [--threads=N] "
                 "[--snapshot=path.chidx] [--trace=FILE] [--metrics=FILE]\n";
    return 2;
  }
  ObsSession obs_session;
  if (int rc = obs_session.Begin(args); rc != 0) return rc;

  Timer parse_timer;
  auto program = [&] {
    obs::TraceSpan parse_span("check", "t_parse");
    return LoadAnyProgram(args.positional[0]);
  }();
  if (!program.ok()) return Fail(program.status());
  obs::TimeParams times;
  times.parse_ms = parse_timer.ElapsedMillis();

  const std::string mode =
      args.Get("mode", AllSimpleLinear(program->tgds) ? "sl" : "l");
  Timer timer;
  if (mode == "sl") {
    for (const char* flag : {"shapes", "threads", "snapshot"}) {
      if (args.Has(flag)) {
        std::cerr << "--" << flag << " is L-mode only (--mode=l)\n";
        return 2;
      }
    }
    SlCheckStats stats;
    auto finite = IsChaseFiniteSL(*program->database, program->tgds, &stats);
    if (!finite.ok()) return Fail(finite.status());
    times.graph_ms = stats.graph_ms;
    times.comp_ms = stats.comp_ms + stats.support_ms;
    obs::RecordTimeParams("check", times);
    std::cout << (finite.value() ? "FINITE" : "INFINITE") << "\n"
              << "  algorithm: IsChaseFinite[SL] (Algorithm 1)\n"
              << "  t-parse: " << times.parse_ms << " ms\n"
              << "  t-graph: " << stats.graph_ms << " ms ("
              << stats.graph_nodes << " nodes, " << stats.graph_edges
              << " edges)\n"
              << "  t-comp:  " << stats.comp_ms << " ms ("
              << stats.special_sccs << " special SCCs)\n"
              << "  t-total: " << timer.ElapsedMillis() << " ms\n";
  } else if (mode == "l") {
    LCheckOptions options;
    // One knob drives both parallel components: the db-dependent FindShapes
    // and the dynamic-simplification worklist.
    unsigned threads = 1;
    if (!ParseThreads(args, &threads)) return 2;
    options.shape_threads = threads;
    options.simplify_threads = threads;
    std::vector<Shape> snapshot_shapes;
    double snapshot_ms = 0;  // loading, validating and extracting
    if (args.Has("snapshot")) {
      // The Section 10 deployment: shape(D) comes from a materialized
      // index snapshot of this database, so no shape plan applies. Its
      // t-shapes is the whole cost of getting the shapes: the load, the
      // staleness guard (a full pass over D) and the extraction.
      if (args.Has("shapes")) {
        std::cerr << "--snapshot excludes --shapes\n";
        return 2;
      }
      Timer snapshot_timer;
      auto loaded =
          LoadSnapshotOf(args.Get("snapshot", ""), *program->database);
      if (!loaded.ok()) return Fail(loaded.status());
      snapshot_shapes = loaded->CurrentShapes();
      snapshot_ms = snapshot_timer.ElapsedMillis();
      options.precomputed_shapes = &snapshot_shapes;
    } else {
      const std::string shapes_flag = args.Get("shapes", "mem");
      if (shapes_flag == "mem") {
        options.shape_finder = storage::ShapeFinderMode::kScan;
      } else if (shapes_flag == "db") {
        options.shape_finder = storage::ShapeFinderMode::kExists;
      } else {
        std::cerr << "unknown --shapes=" << shapes_flag
                  << " (want mem or db)\n";
        return 2;
      }
    }
    LCheckStats stats;
    auto finite =
        IsChaseFiniteL(*program->database, program->tgds, options, &stats);
    if (!finite.ok()) return Fail(finite.status());
    stats.shapes_ms += snapshot_ms;
    times.shapes_ms = stats.shapes_ms;
    times.graph_ms = stats.graph_ms;
    times.comp_ms = stats.comp_ms;
    obs::RecordTimeParams("check", times);
    std::cout << (finite.value() ? "FINITE" : "INFINITE") << "\n"
              << "  algorithm: IsChaseFinite[L] (Algorithm 3)\n"
              << "  t-parse:  " << times.parse_ms << " ms\n"
              << "  t-shapes: " << stats.shapes_ms << " ms ("
              << stats.num_initial_shapes << " db shapes, "
              << stats.num_derived_shapes << " derived)\n"
              << "  t-graph:  " << stats.graph_ms << " ms ("
              << stats.num_simplified_tgds << " simplified TGDs, "
              << stats.graph_edges << " edges)\n"
              << "  t-comp:   " << stats.comp_ms << " ms\n"
              << "  t-total:  " << timer.ElapsedMillis() << " ms\n";
  } else {
    std::cerr << "unknown --mode=" << mode << " (want sl or l)\n";
    return 2;
  }
  return obs_session.End();
}

// ---------------------------------------------------------------------------
// chase

int CmdChase(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: chasectl chase <file> [--variant=so|ob|re] "
                 "[--max-atoms=N] [--max-rounds=N] [--checkpoint=FILE] "
                 "[--checkpoint-every=N] [--resume=FILE] "
                 "[--progress[=SECS]] [--trace=FILE] [--metrics=FILE] "
                 "[--metrics-interval=SECS] [--print]\n";
    return 2;
  }
  ObsSession obs_session;
  if (int rc = obs_session.Begin(args); rc != 0) return rc;
  std::optional<std::chrono::seconds> progress_interval;
  if (!ParseProgress(args, &progress_interval)) return 2;
  std::optional<std::chrono::seconds> metrics_interval;
  if (!ParseMetricsInterval(args, &metrics_interval)) return 2;
  if (metrics_interval.has_value() && !args.Has("metrics")) {
    // Interval dumps without a --metrics artifact still need a live
    // registry; start it from zero like ObsSession does.
    obs::MetricsRegistry::Get().Reset();
    obs::MetricsRegistry::SetEnabled(true);
  }

  auto program = LoadAnyProgram(args.positional[0]);
  if (!program.ok()) return Fail(program.status());

  ChaseOptions options;
  const std::string variant = args.Get("variant", "so");
  if (variant == "so") {
    options.variant = ChaseVariant::kSemiOblivious;
  } else if (variant == "ob") {
    options.variant = ChaseVariant::kOblivious;
  } else if (variant == "re") {
    options.variant = ChaseVariant::kRestricted;
  } else {
    std::cerr << "unknown --variant=" << variant << " (want so, ob, re)\n";
    return 2;
  }
  if (!ParseU64Flag(args, "max-atoms", 1'000'000, 1, UINT64_MAX,
                    &options.max_atoms)) {
    return 2;
  }
  if (!ParseU64Flag(args, "max-rounds", UINT64_MAX, 0, UINT64_MAX,
                    &options.max_rounds)) {
    return 2;
  }

  // --checkpoint=FILE [--checkpoint-every=N] / --resume=FILE: the
  // checkpoint/restart protocol (README "Checkpoint & resume").
  // --checkpoint also arms the signal path: SIGUSR1 = checkpoint and
  // continue, SIGTERM = checkpoint and stop ("interrupted", exit 0).
  if (args.Has("checkpoint") && args.Get("checkpoint", "") == "true") {
    std::cerr << "bad --checkpoint (want --checkpoint=FILE)\n";
    return 2;
  }
  if (args.Has("resume") && args.Get("resume", "") == "true") {
    std::cerr << "bad --resume (want --resume=FILE)\n";
    return 2;
  }
  options.checkpoint_path = args.Get("checkpoint", "");
  if (args.Has("checkpoint-every")) {
    if (options.checkpoint_path.empty()) {
      std::cerr << "--checkpoint-every requires --checkpoint=FILE\n";
      return 2;
    }
    if (!ParseU64Flag(args, "checkpoint-every", 1, 1, UINT64_MAX,
                      &options.checkpoint_every_rounds)) {
      return 2;
    }
  }
  if (!options.checkpoint_path.empty()) {
    options.checkpoint_on_signal = true;
    // Probe the temp path of the write-temp-then-rename pair up front,
    // mirroring the --trace/--metrics probes: a typo'd directory is a
    // clean failure now, not an hour into the chase.
    const std::string probe_path = options.checkpoint_path + ".tmp";
    std::ofstream probe(probe_path, std::ios::trunc);
    if (!probe) {
      return Fail(InternalError("cannot write file: " + probe_path));
    }
    probe.close();
    std::remove(probe_path.c_str());
  }
  std::optional<io::ChaseCheckpoint> resume_checkpoint;
  if (args.Has("resume")) {
    auto loaded = io::LoadChaseCheckpoint(args.Get("resume", ""));
    if (!loaded.ok()) return Fail(loaded.status());
    resume_checkpoint.emplace(std::move(loaded).value());
    options.resume = &*resume_checkpoint;
    // Without an explicit --variant the resumed run adopts the
    // checkpoint's (an explicit mismatch is diagnosed by the engine).
    if (!args.Has("variant")) {
      options.variant = static_cast<ChaseVariant>(resume_checkpoint->variant);
    }
  }

  // The reporter samples the sink from its own thread; Stop() before
  // reading the result so the final line lands ahead of the summary.
  obs::ChaseProgressSink progress_sink;
  std::optional<obs::ProgressReporter> reporter;
  if (progress_interval.has_value()) {
    options.progress = &progress_sink;
    reporter.emplace(&std::cerr, &progress_sink, *progress_interval);
  }
  std::optional<obs::MetricsDumper> metrics_dumper;
  if (metrics_interval.has_value()) {
    metrics_dumper.emplace(&std::cerr, *metrics_interval);
  }
  Timer timer;
  auto result = RunChase(*program->database, program->tgds, options);
  const double chase_ms = timer.ElapsedMillis();
  if (metrics_dumper.has_value()) metrics_dumper->Stop();
  if (reporter.has_value()) reporter->Stop();
  if (!result.ok()) return Fail(result.status());
  std::cout << ChaseVariantName(options.variant) << " chase: "
            << ChaseOutcomeName(result->outcome) << " after "
            << result->rounds << " rounds, " << result->triggers_fired
            << " triggers, " << result->instance.NumAtoms() << " atoms, "
            << result->rows_probed << " rows probed, " << chase_ms << " ms\n";
  if (args.Has("print")) {
    result->instance.ForEachAtom([&](const GroundAtom& atom) {
      std::cout << ToString(*program->schema, *program->database, atom)
                << ".\n";
    });
  }
  return obs_session.End();
}

// ---------------------------------------------------------------------------
// simplify

int CmdSimplify(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: chasectl simplify <file> "
                 "[--mode=scan|exists] [--threads=N] [--trace=FILE] "
                 "[--metrics=FILE] [--print]\n";
    return 2;
  }
  ObsSession obs_session;
  if (int rc = obs_session.Begin(args); rc != 0) return rc;
  auto program = LoadAnyProgram(args.positional[0]);
  if (!program.ok()) return Fail(program.status());
  if (!AllLinear(program->tgds)) {
    std::cerr << "simplify requires linear TGDs\n";
    return 2;
  }

  unsigned threads = 1;
  if (!ParseThreads(args, &threads)) return 2;
  storage::ShapeFinderMode finder_mode;
  if (!ParseFinderMode(args, &finder_mode)) return 2;

  storage::Catalog catalog(program->database.get());
  storage::MemoryShapeSource source(&catalog);
  Timer timer;
  auto shapes = storage::FindShapes(
      source, {.mode = finder_mode, .threads = threads});
  if (!shapes.ok()) return Fail(shapes.status());
  const double shapes_ms = timer.ElapsedMillis();

  timer.Restart();
  auto simplified = DynamicSimplificationFromShapes(
      program->database->schema(), program->tgds, *shapes, threads);
  if (!simplified.ok()) return Fail(simplified.status());
  const double simplify_ms = timer.ElapsedMillis();

  const FrontierStats& frontier = simplified->frontier;
  std::cout << simplified->tgds.size() << " simplified TGD(s) from "
            << program->tgds.size() << " rule(s)\n"
            << "  t-shapes:   " << shapes_ms << " ms ("
            << storage::ShapeFinderModeName(finder_mode) << " plan, "
            << threads << " thread(s), " << shapes->size()
            << " db shapes)\n"
            << "  t-simplify: " << simplify_ms << " ms ("
            << simplified->num_initial_shapes << " initial shapes, "
            << simplified->num_derived_shapes << " derived)\n"
            << "  frontier:   " << frontier.depths << " depth(s), "
            << frontier.items_expanded << " expanded, widest "
            << frontier.max_frontier << "\n";
  if (args.Has("print")) {
    for (const Tgd& tgd : simplified->tgds) {
      std::cout << ToString(simplified->shape_schema->schema(), tgd) << "\n";
    }
  }
  return obs_session.End();
}

// ---------------------------------------------------------------------------
// stats

int CmdStats(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: chasectl stats <file>\n";
    return 2;
  }
  auto program = LoadAnyProgram(args.positional[0]);
  if (!program.ok()) return Fail(program.status());

  uint32_t min_arity = UINT32_MAX, max_arity = 0;
  for (PredId pred = 0; pred < program->schema->NumPredicates(); ++pred) {
    min_arity = std::min(min_arity, program->schema->Arity(pred));
    max_arity = std::max(max_arity, program->schema->Arity(pred));
  }
  storage::Catalog catalog(program->database.get());
  storage::MemoryShapeSource shape_source(&catalog);
  // The in-memory scan cannot fail.
  const size_t n_shapes =
      storage::FindShapes(shape_source, {}).value().size();
  std::cout << "n-pred:   " << program->schema->NumPredicates() << "\n"
            << "arity:    [" << (min_arity == UINT32_MAX ? 0 : min_arity)
            << "," << max_arity << "]\n"
            << "n-atoms:  " << program->database->TotalFacts() << "\n"
            << "n-shapes: " << n_shapes << "\n"
            << "n-rules:  " << program->tgds.size() << "\n"
            << "class:    "
            << (AllSimpleLinear(program->tgds)
                    ? "simple-linear"
                    : AllLinear(program->tgds) ? "linear" : "general")
            << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// findshapes

int CmdFindShapes(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: chasectl findshapes <file> "
                 "[--backend=memory|disk] [--mode=scan|exists] "
                 "[--threads=N] [--snapshot=path.chidx] [--store=path.db] "
                 "[--trace=FILE] [--metrics=FILE] [--print]\n";
    return 2;
  }
  ObsSession obs_session;
  if (int rc = obs_session.Begin(args); rc != 0) return rc;

  auto program = LoadAnyProgram(args.positional[0]);
  if (!program.ok()) return Fail(program.status());

  // Snapshot fast path: shape(D) straight out of a persisted index of this
  // program's database, no tuple scan — so no scan flag applies.
  if (args.Has("snapshot")) {
    for (const char* flag : {"mode", "backend", "threads", "store"}) {
      if (args.Has(flag)) {
        std::cerr << "--snapshot excludes --" << flag << "\n";
        return 2;
      }
    }
    // As in `check --snapshot`, t-shapes is the whole cost of getting the
    // shapes: the load, the staleness guard and the extraction.
    Timer timer;
    auto loaded =
        LoadSnapshotOf(args.Get("snapshot", ""), *program->database);
    if (!loaded.ok()) return Fail(loaded.status());
    const std::vector<Shape> shapes = loaded->CurrentShapes();
    std::cout << shapes.size() << " shape(s) over "
              << loaded->NumIndexedTuples() << " indexed tuples\n"
              << "  backend: snapshot\n"
              << "  t-shapes: " << timer.ElapsedMillis() << " ms\n";
    if (args.Has("print")) {
      for (const Shape& shape : shapes) {
        std::cout << ShapeName(*program->schema, shape) << "\n";
      }
    }
    return obs_session.End();
  }

  storage::FindShapesOptions options;
  if (!ParseFinderMode(args, &options.mode)) return 2;
  if (!ParseThreads(args, &options.threads)) return 2;

  ScanBackend backend(program->database.get());
  if (int rc = backend.Open(args, "chasectl_findshapes", options.threads);
      rc != 0) {
    return rc;
  }
  const storage::ShapeSource* source = &backend.source();

  // Io() reports cumulative store-lifetime counters; snapshot before the
  // run so the report excludes the Create-phase load above.
  const storage::IoCounters io_before = source->Io();
  Timer timer;
  auto shapes = storage::FindShapes(*source, options);
  const double elapsed_ms = timer.ElapsedMillis();
  if (!shapes.ok()) return Fail(shapes.status());

  const storage::AccessStats& access = source->stats();
  const storage::IoCounters io = source->Io().Since(io_before);
  // Mirror the per-run access/I-O report into the metrics artifact so a
  // --metrics run is machine-readable without scraping stdout.
  obs::SetGauge("findshapes.t_shapes_ms", elapsed_ms);
  obs::SetGauge("findshapes.exists_queries",
                static_cast<double>(access.exists_queries));
  obs::SetGauge("findshapes.relations_loaded",
                static_cast<double>(access.relations_loaded));
  obs::SetGauge("findshapes.tuples_scanned",
                static_cast<double>(access.tuples_scanned));
  obs::SetGauge("findshapes.pages_read",
                static_cast<double>(io.pages_read));
  obs::SetGauge("findshapes.pool_hits", static_cast<double>(io.pool_hits));
  obs::SetGauge("findshapes.pool_misses",
                static_cast<double>(io.pool_misses));
  std::cout << shapes->size() << " shape(s) over "
            << program->database->TotalFacts() << " tuples\n"
            << "  backend: " << source->Name() << ", plan: "
            << storage::ShapeFinderModeName(options.mode)
            << ", threads: " << std::max(1u, options.threads) << "\n"
            << "  t-shapes: " << elapsed_ms << " ms\n"
            << "  accesses: " << access.exists_queries << " exists queries, "
            << access.relations_loaded << " relation loads, "
            << access.tuples_scanned << " tuples scanned\n"
            << "  io: " << io.pages_read << " pages read, " << io.pool_hits
            << " pool hits / " << io.pool_misses << " misses\n";
  if (args.Has("print")) {
    for (const Shape& shape : *shapes) {
      std::cout << ShapeName(*program->schema, shape) << "\n";
    }
  }
  // Close the pager (flush + stats quiesce) before the trace is written so
  // fault spans from pool teardown are in the artifact.
  backend.Close();
  return obs_session.End();
}

// ---------------------------------------------------------------------------
// index

int CmdIndex(const Args& args) {
  const std::string usage =
      "usage: chasectl index build <file> <out.chidx> "
      "[--backend=memory|disk] [--threads=N] [--store=path.db]\n"
      "       chasectl index stat <snapshot.chidx>\n";
  if (args.positional.empty()) {
    std::cerr << usage;
    return 2;
  }
  const std::string verb = args.positional[0];

  if (verb == "stat") {
    if (args.positional.size() < 2) {
      std::cerr << usage;
      return 2;
    }
    // The flag table is per subcommand; stat reads none of build's flags.
    for (const char* flag : {"backend", "threads", "store"}) {
      if (args.Has(flag)) {
        std::cerr << "index stat takes no --" << flag << "\n";
        return 2;
      }
    }
    auto loaded = index::ShapeIndex::Load(args.positional[1]);
    if (!loaded.ok()) return Fail(loaded.status());
    std::cout << "shapes:        " << loaded->NumShapes() << "\n"
              << "tuples:        " << loaded->NumIndexedTuples() << "\n";
    return 0;
  }

  if (verb != "build" || args.positional.size() < 3) {
    std::cerr << usage;
    return 2;
  }
  auto program = LoadAnyProgram(args.positional[1]);
  if (!program.ok()) return Fail(program.status());

  unsigned threads = 1;
  if (!ParseThreads(args, &threads)) return 2;

  ScanBackend backend(program->database.get());
  if (int rc = backend.Open(args, "chasectl_index", threads); rc != 0) {
    return rc;
  }
  const storage::ShapeSource* source = &backend.source();

  Timer timer;
  auto built = index::ShapeIndex::Build(*source, threads);
  const double build_ms = timer.ElapsedMillis();
  if (!built.ok()) return Fail(built.status());
  if (Status status = built->Save(args.positional[2]); !status.ok()) {
    return Fail(status);
  }
  std::cout << "indexed " << built->NumIndexedTuples() << " tuples ("
            << built->NumShapes() << " shapes) in " << build_ms << " ms ("
            << source->Name() << " backend, " << threads << " threads)\n"
            << "wrote " << args.positional[2] << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// zoo

int CmdZoo(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: chasectl zoo <file>\n";
    return 2;
  }
  auto program = LoadAnyProgram(args.positional[0]);
  if (!program.ok()) return Fail(program.status());
  const Schema& schema = *program->schema;
  const std::vector<Tgd>& tgds = program->tgds;

  auto report = [](const char* name, const char* verdict, double ms) {
    std::cout << "  " << name << ": " << verdict << " (" << ms << " ms)\n";
  };
  std::cout << "uniform termination criteria (database-independent):\n";
  Timer timer;
  const bool wa = IsWeaklyAcyclic(schema, tgds);
  report("weak acyclicity       ", wa ? "acyclic" : "cyclic",
         timer.ElapsedMillis());
  if (AllLinear(tgds) && AllHaveNonEmptyFrontier(tgds) && !tgds.empty()) {
    timer.Restart();
    auto exact = IsChaseFiniteUniform(schema, tgds);
    if (!exact.ok()) return Fail(exact.status());
    report("exact (linear)        ",
           exact.value() ? "terminates for all D" : "diverges for some D",
           timer.ElapsedMillis());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// generate

int CmdGenerate(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: chasectl generate <out> [--preds=N] [--tgds=N] "
                 "[--tuples=N] [--arity=N] [--domain=N] [--class=sl|l] "
                 "[--seed=N]\n";
    return 2;
  }
  // Schema::kMaxArity bounds arity; the other caps only keep pathological
  // flag values from looking like hangs.
  unsigned preds = 0, arity = 0;
  uint64_t domain = 0, tuples = 0, seed = 0, num_tgds = 0;
  if (!ParseBoundedFlag(args, "preds", 20, 1, 1u << 20, &preds) ||
      !ParseBoundedFlag(args, "arity", 5, 1, Schema::kMaxArity, &arity) ||
      !ParseU64Flag(args, "domain", 10'000, 1, UINT64_MAX, &domain) ||
      !ParseU64Flag(args, "tuples", 1'000, 0, UINT64_MAX, &tuples) ||
      !ParseU64Flag(args, "seed", 20230322, 0, UINT64_MAX, &seed) ||
      !ParseU64Flag(args, "tgds", 100, 0, UINT64_MAX, &num_tgds)) {
    return 2;
  }
  DataGenParams data_params;
  data_params.preds = preds;
  data_params.min_arity = 1;
  data_params.max_arity = arity;
  data_params.dsize = domain;
  data_params.rsize = tuples;
  data_params.seed = seed;
  auto data = GenerateData(data_params);
  if (!data.ok()) return Fail(data.status());

  TgdGenParams tgd_params;
  tgd_params.ssize = data_params.preds;
  tgd_params.min_arity = 1;
  tgd_params.max_arity = data_params.max_arity;
  tgd_params.tsize = num_tgds;
  const std::string tgd_class = args.Get("class", "l");
  if (tgd_class != "sl" && tgd_class != "l") {
    std::cerr << "unknown --class=" << tgd_class << " (want sl or l)\n";
    return 2;
  }
  tgd_params.tclass =
      tgd_class == "sl" ? TgdClass::kSimpleLinear : TgdClass::kLinear;
  tgd_params.seed = data_params.seed + 1;
  auto tgds = GenerateTgds(*data->schema, tgd_params);
  if (!tgds.ok()) return Fail(tgds.status());

  Program program;
  program.schema = std::move(data->schema);
  program.database = std::move(data->database);
  program.tgds = std::move(tgds).value();
  if (Status status = SaveAnyProgram(program, args.positional[0]);
      !status.ok()) {
    return Fail(status);
  }
  std::cout << "wrote " << program.database->TotalFacts() << " facts and "
            << program.tgds.size() << " TGDs to " << args.positional[0]
            << "\n";
  return 0;
}

// ---------------------------------------------------------------------------
// explain

int CmdExplain(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: chasectl explain <file>   (simple-linear TGDs)\n";
    return 2;
  }
  auto program = LoadAnyProgram(args.positional[0]);
  if (!program.ok()) return Fail(program.status());
  auto witness = ExplainNonTerminationSL(*program->database, program->tgds);
  if (!witness.ok()) return Fail(witness.status());
  std::cout << "the semi-oblivious chase does not terminate; witness:\n"
            << FormatWitness(*program->schema, *witness, program->tgds);
  return 0;
}

// ---------------------------------------------------------------------------
// graph

int CmdGraph(const Args& args) {
  if (args.positional.empty()) {
    std::cerr << "usage: chasectl graph <file> [--all-nodes] > dg.dot\n";
    return 2;
  }
  auto program = LoadAnyProgram(args.positional[0]);
  if (!program.ok()) return Fail(program.status());
  const DependencyGraph graph =
      BuildDependencyGraph(*program->schema, program->tgds);
  DotOptions options;
  options.skip_isolated_nodes = !args.Has("all-nodes");
  WriteDot(graph, std::cout, options);
  return 0;
}

// ---------------------------------------------------------------------------
// normalize

int CmdNormalize(const Args& args) {
  if (args.positional.size() < 2) {
    std::cerr << "usage: chasectl normalize <in> <out>\n";
    return 2;
  }
  auto program = LoadAnyProgram(args.positional[0]);
  if (!program.ok()) return Fail(program.status());
  auto normalized = NormalizeFrontiers(*program->database, program->tgds);
  if (!normalized.ok()) return Fail(normalized.status());
  Program out;
  out.schema = std::move(program->schema);
  out.database = std::move(normalized->database);
  out.tgds = std::move(normalized->tgds);
  if (Status status = SaveAnyProgram(out, args.positional[1]); !status.ok()) {
    return Fail(status);
  }
  std::cout << "normalized " << args.positional[0] << " -> "
            << args.positional[1] << " (materialized "
            << normalized->rules_materialized << " one-shot rule(s), dropped "
            << normalized->rules_dropped << " inapplicable)\n";
  return 0;
}

// ---------------------------------------------------------------------------
// convert

int CmdConvert(const Args& args) {
  if (args.positional.size() < 2) {
    std::cerr << "usage: chasectl convert <in> <out>\n";
    return 2;
  }
  auto program = LoadAnyProgram(args.positional[0]);
  if (!program.ok()) return Fail(program.status());
  if (Status status = SaveAnyProgram(*program, args.positional[1]);
      !status.ok()) {
    return Fail(status);
  }
  std::cout << "converted " << args.positional[0] << " -> "
            << args.positional[1] << "\n";
  return 0;
}

int Usage() {
  std::cerr <<
      "chasectl — semi-oblivious chase termination toolkit\n"
      "\n"
      "  chasectl check <file> [--mode=sl|l] [--shapes=mem|db] "
      "[--threads=N] [--snapshot=path.chidx]\n"
      "  chasectl explain <file>               (non-termination witness)\n"
      "  chasectl chase <file> [--variant=so|ob|re] [--max-atoms=N] "
      "[--max-rounds=N] [--checkpoint=FILE] "
      "[--checkpoint-every=N] [--resume=FILE] [--progress[=SECS]] "
      "[--metrics-interval=SECS] [--print]\n"
      "  chasectl simplify <file> [--mode=scan|exists] [--threads=N] "
      "[--print]\n"
      "  chasectl findshapes <file> [--backend=memory|disk] "
      "[--mode=scan|exists] [--threads=N] "
      "[--snapshot=path.chidx] [--store=path.db] [--print]\n"
      "  chasectl index build <file> <out.chidx> [--backend=memory|disk] "
      "[--threads=N] [--store=path.db]\n"
      "  chasectl index stat <snapshot.chidx>\n"
      "  chasectl stats <file>\n"
      "  chasectl zoo <file>                   (uniform termination)\n"
      "  chasectl generate <out> [--preds=N] [--tgds=N] [--tuples=N] "
      "[--arity=N] [--domain=N] [--class=sl|l] [--seed=N]\n"
      "  chasectl graph <file> [--all-nodes]   (Graphviz dot on stdout)\n"
      "  chasectl normalize <in> <out>         (eliminate empty frontiers)\n"
      "  chasectl convert <in> <out>\n"
      "\n"
      "Files ending in .chbin use the binary snapshot format, .chidx files\n"
      "are shape-index snapshots; everything else is Datalog± text\n"
      "(see README).\n"
      "\n"
      "check, chase, simplify, and findshapes also take --trace=FILE\n"
      "(Chrome trace-event JSON) and --metrics=FILE (metrics JSON); see\n"
      "README \"Observability\".\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args = Args::Parse(argc, argv, 2);
  // Every subcommand with the flags it reads. Args::Parse accepts any
  // --key, so a flag outside the list (a typo, or a flag the subcommand
  // does not take) is rejected here instead of silently running with the
  // default.
  struct Subcommand {
    const char* name;
    int (*run)(const Args&);
    std::set<std::string> flags;
  };
  const Subcommand subcommands[] = {
      {"check", CmdCheck,
       {"mode", "shapes", "threads", "snapshot", "trace", "metrics"}},
      {"explain", CmdExplain, {}},
      {"chase", CmdChase,
       {"variant", "max-atoms", "max-rounds", "checkpoint",
        "checkpoint-every", "resume", "progress", "metrics-interval",
        "print", "trace", "metrics"}},
      {"simplify", CmdSimplify,
       {"mode", "threads", "print", "trace", "metrics"}},
      {"findshapes", CmdFindShapes,
       {"backend", "mode", "threads", "snapshot", "store", "print", "trace",
        "metrics"}},
      {"index", CmdIndex, {"backend", "threads", "store"}},
      {"stats", CmdStats, {}},
      {"zoo", CmdZoo, {}},
      {"generate", CmdGenerate,
       {"preds", "tgds", "tuples", "arity", "domain", "class", "seed"}},
      {"graph", CmdGraph, {"all-nodes"}},
      {"normalize", CmdNormalize, {}},
      {"convert", CmdConvert, {}},
  };
  for (const Subcommand& subcommand : subcommands) {
    if (command != subcommand.name) continue;
    for (const auto& [flag, value] : args.flags) {
      if (subcommand.flags.count(flag) == 0) {
        std::cerr << "unknown flag --" << flag << " for chasectl " << command
                  << "\n";
        return 2;
      }
    }
    return subcommand.run(args);
  }
  return Usage();
} catch (const std::exception& e) {
  // Backstop: a CLI must never die by uncaught exception (flag validation
  // above diagnoses the expected cases; anything that slips through still
  // exits 2 with the usage text instead of std::terminate).
  std::cerr << "error: " << e.what() << "\n";
  return Usage();
}
