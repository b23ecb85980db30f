#include "obs/trace.h"

#include "base/status.h"
#include "base/sync.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>

namespace chase {
namespace obs {
namespace {

// Thread-local handle: the session id the cached buffer belongs to, so a
// buffer from a finished session is abandoned (not reused) and the thread
// re-registers on its first emit of the new session.
struct LocalHandle {
  uint64_t session = 0;
  void* buffer = nullptr;
};
thread_local LocalHandle tls_handle;

}  // namespace

std::atomic<bool> TraceRecorder::enabled_{false};

TraceRecorder& TraceRecorder::Get() {
  static TraceRecorder* const recorder = new TraceRecorder();
  return *recorder;
}

void TraceRecorder::Start(size_t events_per_thread) {
  {
    MutexLock lock(mu_);
    // Old-session buffers are intentionally leaked into buffers_ until
    // process exit: a thread that cached one must be able to dereference
    // it safely even if it emits exactly once more before noticing the
    // session changed. WriteJson filters by session id.
    session_.fetch_add(1, std::memory_order_relaxed);
    capacity_ = events_per_thread == 0 ? 1 : events_per_thread;
    session_start_ = std::chrono::steady_clock::now();
  }
  AttachThread();
  enabled_.store(true, std::memory_order_relaxed);
}

void TraceRecorder::AttachThread() { (void)LocalBuffer(); }

void TraceRecorder::Stop() {
  enabled_.store(false, std::memory_order_relaxed);
}

int64_t TraceRecorder::NowUs() const {
  return ToUs(std::chrono::steady_clock::now());
}

int64_t TraceRecorder::ToUs(std::chrono::steady_clock::time_point tp) const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             tp - session_start_)
      .count();
}

TraceRecorder::Buffer* TraceRecorder::LocalBuffer() {
  const uint64_t session = session_.load(std::memory_order_relaxed);
  if (tls_handle.buffer != nullptr && tls_handle.session == session) {
    return static_cast<Buffer*>(tls_handle.buffer);
  }
  MutexLock lock(mu_);
  buffers_.push_back(std::make_unique<Buffer>(
      capacity_, next_tid_++, session_.load(std::memory_order_relaxed)));
  Buffer* buffer = buffers_.back().get();
  tls_handle = {buffer->session, buffer};
  return buffer;
}

void TraceRecorder::Emit(const TraceEvent& event) {
  Buffer* buffer = LocalBuffer();
  const size_t i = buffer->head.load(std::memory_order_relaxed);
  if (i >= buffer->slots.size()) {
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->slots[i] = event;
  // Publish: a reader that acquires head > i sees the fully written slot.
  buffer->head.store(i + 1, std::memory_order_release);
}

uint64_t TraceRecorder::recorded() const {
  MutexLock lock(mu_);
  const uint64_t session = session_.load(std::memory_order_relaxed);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    if (buffer->session != session) continue;
    total += buffer->head.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t TraceRecorder::dropped() const {
  MutexLock lock(mu_);
  const uint64_t session = session_.load(std::memory_order_relaxed);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    if (buffer->session != session) continue;
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

namespace {

void WriteEventJson(std::ostream& os, const TraceEvent& event, uint32_t tid) {
  os << "{\"name\": \"" << event.name << "\", \"cat\": \"" << event.cat
     << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
     << ", \"ts\": " << event.ts_us << ", \"dur\": " << event.dur_us;
  if (event.arg0_name != nullptr || event.arg1_name != nullptr) {
    os << ", \"args\": {";
    bool first = true;
    if (event.arg0_name != nullptr) {
      os << "\"" << event.arg0_name << "\": " << event.arg0;
      first = false;
    }
    if (event.arg1_name != nullptr) {
      if (!first) os << ", ";
      os << "\"" << event.arg1_name << "\": " << event.arg1;
    }
    os << "}";
  }
  os << "}";
}

}  // namespace

void TraceRecorder::WriteJson(std::ostream& os) {
  Stop();
  MutexLock lock(mu_);
  const uint64_t session = session_.load(std::memory_order_relaxed);
  uint64_t total_dropped = 0;
  os << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [";
  bool first = true;
  for (const auto& buffer : buffers_) {
    if (buffer->session != session) continue;
    total_dropped += buffer->dropped.load(std::memory_order_relaxed);
    // Thread name metadata so Perfetto labels the rows.
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
       << buffer->tid << ", \"args\": {\"name\": \"chase-" << buffer->tid
       << "\"}}";
    const size_t head = buffer->head.load(std::memory_order_acquire);
    for (size_t i = 0; i < head; ++i) {
      os << ",\n";
      WriteEventJson(os, buffer->slots[i], buffer->tid);
    }
  }
  os << "\n],\n\"otherData\": {\"droppedEvents\": \"" << total_dropped
     << "\"}\n}\n";
}

Status TraceRecorder::WriteJsonFile(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return InternalError("cannot open trace output file: " + path);
  }
  WriteJson(out);
  out.flush();
  if (!out) {
    return InternalError("failed writing trace output file: " + path);
  }
  return OkStatus();
}

}  // namespace obs
}  // namespace chase
