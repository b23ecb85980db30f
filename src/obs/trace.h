// The trace-span recorder: per-thread lock-free ring buffers of completed
// spans, written out as Chrome trace-event JSON that loads directly in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// Design for a system whose hot loops are worker pools:
//
//  * Recording is OFF by default behind one process-wide atomic. A
//    disabled TraceSpan is a single relaxed load — no clock read, no
//    buffer touch — so instrumented layers (chase rounds, frontier depths,
//    pool epochs, pager faults) cost nothing when nobody is watching.
//  * Each emitting thread owns one ring buffer. Emit is wait-free for the
//    owner: write the slot, then publish it with a release store of the
//    head index. The writer is the only producer of its buffer, so there
//    is no CAS and no latch on the emit path; readers (WriteJson) acquire
//    the head and only read committed slots, so a concurrent snapshot is
//    race-free (it just misses in-flight spans).
//  * A full buffer DROPS new events and counts them (Buffer capacity is
//    fixed at Start) — slots are never recycled, so a late reader can
//    never observe a torn rewrite. The drop count is reported in the
//    artifact ("otherData.droppedEvents") and by dropped().
//
// Span names and categories must be string literals (or otherwise outlive
// the recorder session): events store the pointers, not copies — that is
// what keeps Emit allocation-free. Two optional integer args ride along
// and come out as the event's "args" object.
//
// Start/Stop delimit a session and must not race with in-flight spans
// (enable before spawning instrumented work, write after it quiesces —
// worker pools park between epochs, so any point between chasectl phases
// qualifies). Emit concurrent with WriteJson is safe, as above.

#ifndef CHASE_OBS_TRACE_H_
#define CHASE_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/sync.h"

namespace chase {
namespace obs {

// One completed ("ph":"X") span. POD so ring slots assign cheaply.
struct TraceEvent {
  const char* name = nullptr;  // static string
  const char* cat = nullptr;   // static string
  int64_t ts_us = 0;           // microseconds since session start
  int64_t dur_us = 0;
  const char* arg0_name = nullptr;  // static string or nullptr
  const char* arg1_name = nullptr;
  int64_t arg0 = 0;
  int64_t arg1 = 0;
};

class TraceRecorder {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;  // events per thread

  static TraceRecorder& Get();

  // The gate every span checks first — one relaxed atomic load.
  static bool enabled() {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Begins a session: zeroes the session clock, allocates the calling
  // thread's buffer (`events_per_thread` slots), and enables recording.
  // Other threads get theirs in AttachThread, or else on their first emit.
  // Buffers of earlier sessions are kept until process exit but excluded
  // from WriteJson (a stale thread-local pointer re-registers instead of
  // dangling).
  void Start(size_t events_per_thread = kDefaultCapacity);

  // Allocates the calling thread's buffer for the current session unless it
  // has one, so that the first span it closes does not absorb the
  // allocation and its page faults (about 3 ms for the default capacity).
  // WorkerPool calls it on each worker it starts while recording is on.
  void AttachThread();

  // Disables recording. Events already committed stay readable.
  void Stop();

  // Stops (if still recording) and writes the session as Chrome
  // trace-event JSON: {"displayTimeUnit": "ms", "otherData":
  // {"droppedEvents": "<n>"}, "traceEvents": [...]} with one "M"
  // thread_name metadata event per emitting thread and one "X" complete
  // event per span.
  void WriteJson(std::ostream& os);
  [[nodiscard]] Status WriteJsonFile(const std::string& path);

  // Committed / dropped event counts for the current session.
  uint64_t recorded() const;
  uint64_t dropped() const;

  // Microseconds since session start (steady clock).
  int64_t NowUs() const;

  // Converts a steady_clock point captured earlier into microseconds since
  // session start. Back-dated events (a phase timed with its own clock
  // reads, emitted at the end) must derive BOTH ts and dur through this —
  // mixing a re-read NowUs() with a separately truncated duration shifts
  // the span by a few microseconds, enough to partially overlap a
  // neighboring span and break nesting in the viewer.
  //
  // Reads session_start_ without mu_: the session clock is written only by
  // Start, which must not race with in-flight spans (the file comment's
  // session contract) — that quiescence invariant replaces the latch.
  int64_t ToUs(std::chrono::steady_clock::time_point tp) const
      NO_THREAD_SAFETY_ANALYSIS;

  // Commits one completed span into the calling thread's buffer (wait-free
  // once the buffer exists; a thread without one registers it under a
  // latch). Called by TraceSpan — use that instead.
  void Emit(const TraceEvent& event);

 private:
  struct Buffer {
    Buffer(size_t capacity, uint32_t tid, uint64_t session)
        : slots(capacity), tid(tid), session(session) {}
    std::vector<TraceEvent> slots;
    // Number of committed slots: the owner stores with release after
    // writing slots[head]; readers load with acquire and read below it.
    std::atomic<size_t> head{0};
    std::atomic<uint64_t> dropped{0};
    const uint32_t tid;
    const uint64_t session;
  };

  TraceRecorder() = default;
  Buffer* LocalBuffer();

  static std::atomic<bool> enabled_;

  mutable Mutex mu_;  // guards buffers_, session bookkeeping
  std::vector<std::unique_ptr<Buffer>> buffers_ GUARDED_BY(mu_);
  std::atomic<uint64_t> session_{0};
  size_t capacity_ GUARDED_BY(mu_) = kDefaultCapacity;
  uint32_t next_tid_ GUARDED_BY(mu_) = 1;
  // Written under mu_ (Start); read unlatched by ToUs under the session
  // quiescence contract.
  std::chrono::steady_clock::time_point session_start_ GUARDED_BY(mu_){};
};

// RAII span: records [construction, destruction) as one complete event on
// the calling thread. With the recorder disabled, construction is a single
// relaxed load and destruction a branch. `cat`, `name`, and the arg names
// must be string literals (see file comment).
class TraceSpan {
 public:
  TraceSpan(const char* cat, const char* name,
            const char* arg0_name = nullptr, int64_t arg0 = 0,
            const char* arg1_name = nullptr, int64_t arg1 = 0) {
    if (!TraceRecorder::enabled()) return;
    event_.cat = cat;
    event_.name = name;
    event_.arg0_name = arg0_name;
    event_.arg0 = arg0;
    event_.arg1_name = arg1_name;
    event_.arg1 = arg1;
    event_.ts_us = TraceRecorder::Get().NowUs();
    active_ = true;
  }

  ~TraceSpan() {
    // Spans open across a Stop are dropped (the session they started in is
    // over); the second check keeps that cheap and race-benign.
    if (!active_ || !TraceRecorder::enabled()) return;
    TraceRecorder& recorder = TraceRecorder::Get();
    event_.dur_us = recorder.NowUs() - event_.ts_us;
    recorder.Emit(event_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceEvent event_;
  bool active_ = false;
};

}  // namespace obs
}  // namespace chase

#endif  // CHASE_OBS_TRACE_H_
