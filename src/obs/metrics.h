// The metrics registry: named counters, gauges, and histograms behind one
// process-wide enable gate, dumpable as JSON.
//
// The paper's whole point is predicting whether a chase terminates — yet a
// chase that runs for hours used to be a black box: timing lived in
// bench-only structs, counters were scattered across IoStats, buffer-pool
// shard stats, FrontierStats, and ChaseResult. This registry is the one
// place they all land (re-homed, like the paper's t-parse/t-graph/t-comp/
// t-shapes via TimeParams below, or mirrored at the layer that owns them:
// the chase engine publishes its result counters, IsChaseFinite its phase
// timings, the pager its pool traffic, the worker pool its busy/wait time).
//
// Overhead discipline: everything is OFF by default. Every hot-path
// publication site is gated on MetricsRegistry::enabled() — a single
// relaxed atomic load — so a disabled run does no clock read, no hash, no
// atomic RMW. When enabled, counters and histograms are sharded padded
// atomics (one stripe per thread hash), so concurrent publication from
// scan workers and pool workers never serializes on a latch and never
// false-shares a cache line. Metric objects live for the process:
// GetCounter/GetHistogram return stable pointers callers may cache, and
// Reset zeroes values without invalidating them.
//
// Naming convention (see README "Observability"): dotted lowercase paths,
// subsystem first — "chase.rounds", "check.t_shapes_ms", "pool.busy_us",
// "pager.pool_hits" — with unit suffixes (_ms, _us, _ns) on time values.

#ifndef CHASE_OBS_METRICS_H_
#define CHASE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>

#include "base/sync.h"

namespace chase {
namespace obs {

// The paper's four time parameters (Sections 7 and 8), re-homed from the
// bench-local TimeBreakdown so the library, the CLI, and the benches all
// account them in one struct and can publish them with RecordTimeParams.
// All values in milliseconds.
struct TimeParams {
  double parse_ms = 0;   // t-parse
  double shapes_ms = 0;  // t-shapes (db-dependent component; linear only)
  double graph_ms = 0;   // t-graph (includes simplification for linear TGDs)
  double comp_ms = 0;    // t-comp

  double TotalMs() const { return parse_ms + graph_ms + comp_ms + shapes_ms; }
  // The paper's t-total for the db-independent component (Section 8).
  double DbIndependentMs() const { return parse_ms + graph_ms + comp_ms; }
};

// A monotonically increasing counter, sharded across cache-line-padded
// relaxed atomics by thread hash so concurrent Add calls from a worker
// pool never contend on one line. Value() folds the shards.
class Counter {
 public:
  static constexpr unsigned kShards = 16;  // power of two (mask-indexed)

  void Add(uint64_t delta);
  uint64_t Value() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  std::array<Shard, kShards> shards_;
};

// A log2-bucketed histogram of non-negative values (bucket b holds values
// whose bit width is b, i.e. upper bounds 0, 1, 3, 7, ... 2^63-1), sharded
// like Counter. Fixed buckets keep Record latch-free and merge-free.
class Histogram {
 public:
  static constexpr unsigned kBuckets = 65;  // bit widths 0..64

  void Record(uint64_t value);
  uint64_t Count() const;
  uint64_t Sum() const;
  // Folded per-bucket counts (index = bit width of the recorded value).
  std::array<uint64_t, kBuckets> Buckets() const;
  void Reset();

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::array<std::atomic<uint64_t>, kBuckets> buckets{};
  };
  std::array<Shard, Counter::kShards> shards_;
};

class MetricsRegistry {
 public:
  // The process-wide registry. First use constructs it; metric pointers
  // stay valid for the life of the process.
  static MetricsRegistry& Get();

  // The global gate every publication site checks first. A single relaxed
  // atomic load: with metrics disabled no site reads a clock, hashes a
  // thread id, or touches an atomic counter.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }
  static void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  // Find-or-create by name. The returned pointer is stable (metrics are
  // never destroyed before process exit) — hot paths look it up once and
  // cache it. Creation takes a latch; lookups of existing names do too,
  // which is why the contract is "cache the pointer".
  Counter* GetCounter(std::string_view name);
  Histogram* GetHistogram(std::string_view name);

  // Gauges: last-writer-wins doubles for run-level results (phase timings,
  // result counts). Latched — publication sites are per-run, not per-item.
  // No-op when the registry is disabled, so callers can publish
  // unconditionally.
  void SetGauge(std::string_view name, double value);
  // Like SetGauge but keeps the larger of the stored and new value — for
  // per-run peaks that should survive across runs of one session (e.g.
  // "frontier.max_frontier").
  void MaxGauge(std::string_view name, double value);

  // Dumps every metric as one JSON object:
  //   {"counters": {name: value, ...},
  //    "gauges": {name: value, ...},
  //    "histograms": {name: {"count": n, "sum": s,
  //                          "buckets": [{"le": bound, "count": c}, ...]}}}
  // Histogram buckets are emitted sparsely (zero-count buckets skipped);
  // "le" is the bucket's inclusive upper bound. Keys are sorted, so output
  // is deterministic for deterministic values.
  void DumpJson(std::ostream& os) const;

  // Zeroes every counter/histogram and clears the gauges. Registered
  // metric pointers stay valid (values reset in place) — tests isolate
  // themselves with this without invalidating cached pointers.
  void Reset();

 private:
  MetricsRegistry() = default;

  static std::atomic<bool> enabled_;

  mutable Mutex mu_;
  // std::map: stable pointers (node-based) and sorted dump order.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mu_);
  std::map<std::string, double, std::less<>> gauges_ GUARDED_BY(mu_);
};

// Convenience wrappers, all no-ops when the registry is disabled.
inline void CounterAdd(Counter* counter, uint64_t delta) {
  if (MetricsRegistry::enabled()) counter->Add(delta);
}
void SetGauge(std::string_view name, double value);

// Publishes `times` as gauges "<prefix>.t_parse_ms", "<prefix>.t_shapes_ms",
// "<prefix>.t_graph_ms", "<prefix>.t_comp_ms", "<prefix>.t_total_ms" — how
// the paper's time parameters reach `chasectl check --metrics`. No-op when
// disabled.
void RecordTimeParams(std::string_view prefix, const TimeParams& times);

}  // namespace obs
}  // namespace chase

#endif  // CHASE_OBS_METRICS_H_
