// The observability layer's own suite: the metrics registry (sharded
// counters and histograms under concurrent publication, gauges, the JSON
// dump), the trace recorder (wait-free concurrent Emit — this file runs in
// the ThreadSanitizer CI job —, overflow drop accounting, session
// filtering, and a golden check that the emitted artifact parses as JSON
// with well-formed span nesting), the progress reporter, and the
// end-to-end contract that matters most: a chase with tracing and metrics
// ON is bit-identical to the untraced serial run across the thread sweep.
//
// The JSON checks use the minimal recursive-descent parser below rather
// than eyeballing substrings: Perfetto and chrome://tracing are real
// consumers, so "parses as JSON with the documented structure" is the
// contract, not "contains these bytes".

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "chase/chase_engine.h"
#include "logic/parser.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace chase {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON parser: enough of RFC 8259 to validate the artifacts
// (objects, arrays, strings with escapes, numbers, booleans, null).

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool Has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& At(const std::string& key) const {
    static const JsonValue kMissing;
    auto it = object.find(key);
    return it == object.end() ? kMissing : it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  // Parses the whole input; ok() reports success (trailing garbage fails).
  JsonValue Parse() {
    JsonValue value = ParseValue();
    SkipSpace();
    if (pos_ != text_.size()) ok_ = false;
    return value;
  }
  bool ok() const { return ok_; }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    ok_ = false;
    return false;
  }

  JsonValue ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) {
      ok_ = false;
      return {};
    }
    const char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseKeyword();
    if (c == 'n') return ParseKeyword();
    return ParseNumber();
  }

  JsonValue ParseObject() {
    JsonValue value;
    value.kind = JsonValue::kObject;
    Consume('{');
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return value;
    }
    while (ok_) {
      JsonValue key = ParseString();
      Consume(':');
      value.object[key.str] = ParseValue();
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      Consume('}');
      break;
    }
    return value;
  }

  JsonValue ParseArray() {
    JsonValue value;
    value.kind = JsonValue::kArray;
    Consume('[');
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return value;
    }
    while (ok_) {
      value.array.push_back(ParseValue());
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      Consume(']');
      break;
    }
    return value;
  }

  JsonValue ParseString() {
    JsonValue value;
    value.kind = JsonValue::kString;
    if (!Consume('"')) return value;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) break;
        const char esc = text_[pos_++];
        if (esc == 'u') {
          pos_ += 4;  // \uXXXX — validation, not decoding
        } else {
          value.str.push_back(esc);
        }
        continue;
      }
      value.str.push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) {
      ok_ = false;
      return value;
    }
    ++pos_;  // closing quote
    return value;
  }

  JsonValue ParseKeyword() {
    JsonValue value;
    auto match = [&](const char* word) {
      const size_t len = std::strlen(word);
      if (text_.compare(pos_, len, word) == 0) {
        pos_ += len;
        return true;
      }
      return false;
    };
    if (match("true")) {
      value.kind = JsonValue::kBool;
      value.boolean = true;
    } else if (match("false")) {
      value.kind = JsonValue::kBool;
    } else if (match("null")) {
      value.kind = JsonValue::kNull;
    } else {
      ok_ = false;
    }
    return value;
  }

  JsonValue ParseNumber() {
    JsonValue value;
    value.kind = JsonValue::kNumber;
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    value.number = std::strtod(start, &end);
    if (end == start) {
      ok_ = false;
      return value;
    }
    pos_ += static_cast<size_t>(end - start);
    return value;
  }

  const std::string& text_;
  size_t pos_ = 0;
  bool ok_ = true;
};

JsonValue MustParse(const std::string& text) {
  JsonParser parser(text);
  JsonValue value = parser.Parse();
  EXPECT_TRUE(parser.ok()) << "invalid JSON:\n" << text;
  return value;
}

// Every test runs against the process-global registry/recorder, so each
// starts from a clean, disabled slate.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::SetEnabled(false);
    obs::MetricsRegistry::Get().Reset();
    obs::TraceRecorder::Get().Stop();
  }
  void TearDown() override {
    obs::MetricsRegistry::SetEnabled(false);
    obs::TraceRecorder::Get().Stop();
  }
};

// ---------------------------------------------------------------------------
// Metrics registry

TEST_F(ObsTest, CounterConcurrentAddsFold) {
  obs::MetricsRegistry::SetEnabled(true);
  obs::Counter* counter =
      obs::MetricsRegistry::Get().GetCounter("test.concurrent");
  constexpr unsigned kThreads = 8;
  constexpr uint64_t kAdds = 20'000;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([counter] {
      for (uint64_t i = 0; i < kAdds; ++i) obs::CounterAdd(counter, 1);
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(counter->Value(), kThreads * kAdds);
  counter->Reset();
  EXPECT_EQ(counter->Value(), 0u);
}

TEST_F(ObsTest, GetCounterReturnsStablePointers) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  obs::Counter* first = registry.GetCounter("test.stable");
  std::vector<std::thread> workers;
  std::vector<obs::Counter*> seen(8, nullptr);
  for (unsigned t = 0; t < 8; ++t) {
    workers.emplace_back([&registry, &seen, t] {
      seen[t] = registry.GetCounter("test.stable");
    });
  }
  for (std::thread& worker : workers) worker.join();
  for (obs::Counter* pointer : seen) EXPECT_EQ(pointer, first);
}

TEST_F(ObsTest, HistogramCountsSumsAndBuckets) {
  obs::MetricsRegistry::SetEnabled(true);
  obs::Histogram* histogram =
      obs::MetricsRegistry::Get().GetHistogram("test.hist");
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < 4; ++t) {
    workers.emplace_back([histogram] {
      for (uint64_t i = 0; i < 1'000; ++i) histogram->Record(i);
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(histogram->Count(), 4'000u);
  EXPECT_EQ(histogram->Sum(), 4u * (999 * 1'000 / 2));
  const auto buckets = histogram->Buckets();
  EXPECT_EQ(buckets[0], 4u);   // value 0 has bit width 0
  EXPECT_EQ(buckets[1], 4u);   // value 1
  EXPECT_EQ(buckets[2], 8u);   // values 2, 3
  uint64_t total = 0;
  for (uint64_t count : buckets) total += count;
  EXPECT_EQ(total, 4'000u);
}

TEST_F(ObsTest, DisabledRegistryIsInert) {
  // Disabled by SetUp. The gated wrappers must leave no traces: that is
  // the zero-overhead contract every hot path relies on.
  obs::Counter* counter =
      obs::MetricsRegistry::Get().GetCounter("test.disabled");
  obs::CounterAdd(counter, 42);
  obs::SetGauge("test.disabled_gauge", 1.0);
  obs::RecordTimeParams("test", obs::TimeParams{1, 2, 3, 4});
  EXPECT_EQ(counter->Value(), 0u);
  std::ostringstream os;
  obs::MetricsRegistry::Get().DumpJson(os);
  const JsonValue dump = MustParse(os.str());
  EXPECT_EQ(dump.At("gauges").object.size(), 0u);
}

TEST_F(ObsTest, DumpJsonShapeAndTimeParams) {
  obs::MetricsRegistry::SetEnabled(true);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  registry.GetCounter("test.count")->Add(7);
  registry.GetHistogram("test.lat_us")->Record(100);
  obs::TimeParams times;
  times.parse_ms = 1;
  times.shapes_ms = 2;
  times.graph_ms = 3;
  times.comp_ms = 4;
  obs::RecordTimeParams("check", times);

  std::ostringstream os;
  registry.DumpJson(os);
  const JsonValue dump = MustParse(os.str());
  EXPECT_EQ(dump.At("counters").At("test.count").number, 7);
  EXPECT_EQ(dump.At("gauges").At("check.t_parse_ms").number, 1);
  EXPECT_EQ(dump.At("gauges").At("check.t_shapes_ms").number, 2);
  EXPECT_EQ(dump.At("gauges").At("check.t_graph_ms").number, 3);
  EXPECT_EQ(dump.At("gauges").At("check.t_comp_ms").number, 4);
  EXPECT_EQ(dump.At("gauges").At("check.t_total_ms").number, 10);
  const JsonValue& hist = dump.At("histograms").At("test.lat_us");
  EXPECT_EQ(hist.At("count").number, 1);
  EXPECT_EQ(hist.At("sum").number, 100);
  ASSERT_EQ(hist.At("buckets").array.size(), 1u);  // sparse: one bucket hit
  // 100 has bit width 7; the bucket's inclusive upper bound is 2^7 - 1.
  EXPECT_EQ(hist.At("buckets").array[0].At("le").number, 127);
  EXPECT_EQ(hist.At("buckets").array[0].At("count").number, 1);
}

// ---------------------------------------------------------------------------
// Trace recorder

TEST_F(ObsTest, DisabledSpansEmitNothing) {
  {
    obs::TraceSpan span("test", "noop", "arg", 1);
    obs::TraceSpan plain("test", "noop2");
  }
  // Nothing recorded into whatever session existed; a fresh session is
  // empty too.
  obs::TraceRecorder::Get().Start(16);
  obs::TraceRecorder::Get().Stop();
  EXPECT_EQ(obs::TraceRecorder::Get().recorded(), 0u);
  EXPECT_EQ(obs::TraceRecorder::Get().dropped(), 0u);
}

TEST_F(ObsTest, ConcurrentEmitRecordsEverySpan) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
  constexpr unsigned kThreads = 8;
  constexpr unsigned kSpans = 1'000;
  recorder.Start(/*events_per_thread=*/kSpans + 16);
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (unsigned i = 0; i < kSpans; ++i) {
        obs::TraceSpan span("test", "work", "thread",
                            static_cast<int64_t>(t), "i",
                            static_cast<int64_t>(i));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(recorder.recorded(), kThreads * kSpans);
  EXPECT_EQ(recorder.dropped(), 0u);

  std::ostringstream os;
  recorder.WriteJson(os);
  const JsonValue trace = MustParse(os.str());
  EXPECT_EQ(trace.At("displayTimeUnit").str, "ms");
  size_t metadata = 0, complete = 0;
  for (const JsonValue& event : trace.At("traceEvents").array) {
    const std::string& ph = event.At("ph").str;
    if (ph == "M") {
      ++metadata;
      EXPECT_EQ(event.At("name").str, "thread_name");
    } else {
      ASSERT_EQ(ph, "X");
      ++complete;
      EXPECT_TRUE(event.Has("ts"));
      EXPECT_TRUE(event.Has("dur"));
      EXPECT_TRUE(event.Has("tid"));
      EXPECT_EQ(event.At("name").str, "work");
      EXPECT_EQ(event.At("cat").str, "test");
      EXPECT_TRUE(event.At("args").Has("thread"));
      EXPECT_TRUE(event.At("args").Has("i"));
    }
  }
  EXPECT_EQ(metadata, kThreads);
  EXPECT_EQ(complete, kThreads * kSpans);
}

TEST_F(ObsTest, OverflowDropsAndCounts) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
  recorder.Start(/*events_per_thread=*/8);
  for (int i = 0; i < 20; ++i) {
    obs::TraceSpan span("test", "overflow");
  }
  EXPECT_EQ(recorder.recorded(), 8u);
  EXPECT_EQ(recorder.dropped(), 12u);

  std::ostringstream os;
  recorder.WriteJson(os);
  const JsonValue trace = MustParse(os.str());
  EXPECT_EQ(trace.At("otherData").At("droppedEvents").str, "12");
  size_t complete = 0;
  for (const JsonValue& event : trace.At("traceEvents").array) {
    if (event.At("ph").str == "X") ++complete;
  }
  EXPECT_EQ(complete, 8u);
}

TEST_F(ObsTest, RestartExcludesThePreviousSession) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
  recorder.Start(64);
  for (int i = 0; i < 5; ++i) obs::TraceSpan span("test", "old");
  recorder.Stop();
  // New session: the stale thread-local buffer must re-register, and the
  // five old spans must not leak into this artifact.
  recorder.Start(64);
  for (int i = 0; i < 2; ++i) obs::TraceSpan span("test", "fresh");
  EXPECT_EQ(recorder.recorded(), 2u);
  std::ostringstream os;
  recorder.WriteJson(os);
  const JsonValue trace = MustParse(os.str());
  size_t complete = 0;
  for (const JsonValue& event : trace.At("traceEvents").array) {
    if (event.At("ph").str != "X") continue;
    ++complete;
    EXPECT_EQ(event.At("name").str, "fresh");
  }
  EXPECT_EQ(complete, 2u);
}

// Span intervals on one thread must nest: for any two, either disjoint or
// one contains the other. (Partial overlap would mean a torn or misdated
// span — Perfetto renders those as garbage rows.)
void ExpectWellNested(const JsonValue& trace) {
  struct Interval {
    int64_t begin, end;
  };
  std::map<double, std::vector<Interval>> by_tid;
  for (const JsonValue& event : trace.At("traceEvents").array) {
    if (event.At("ph").str != "X") continue;
    const int64_t ts = static_cast<int64_t>(event.At("ts").number);
    const int64_t dur = static_cast<int64_t>(event.At("dur").number);
    ASSERT_GE(ts, 0);
    ASSERT_GE(dur, 0);
    by_tid[event.At("tid").number].push_back({ts, ts + dur});
  }
  for (auto& [tid, intervals] : by_tid) {
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin != b.begin ? a.begin < b.begin : a.end > b.end;
              });
    std::vector<Interval> stack;
    for (const Interval& interval : intervals) {
      while (!stack.empty() && stack.back().end <= interval.begin) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        EXPECT_LE(interval.end, stack.back().end)
            << "span [" << interval.begin << ", " << interval.end
            << ") partially overlaps [" << stack.back().begin << ", "
            << stack.back().end << ") on tid " << tid;
      }
      stack.push_back(interval);
    }
  }
}

TEST_F(ObsTest, NestedSpansAreWellFormedInTheArtifact) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
  recorder.Start(256);
  for (int round = 0; round < 3; ++round) {
    obs::TraceSpan outer("test", "outer", "round", round);
    for (int task = 0; task < 4; ++task) {
      obs::TraceSpan inner("test", "inner", "task", task);
      obs::TraceSpan innermost("test", "leaf");
    }
  }
  std::ostringstream os;
  recorder.WriteJson(os);
  const JsonValue trace = MustParse(os.str());
  ExpectWellNested(trace);
}

// ---------------------------------------------------------------------------
// Progress reporter

TEST_F(ObsTest, ProgressReporterPrintsAFinalLine) {
  obs::ChaseProgressSink sink;
  sink.Update(3, 1'234, 56, 789);
  std::ostringstream os;
  {
    // A huge interval: the line we see is the final one Stop() prints, so
    // the test never sleeps.
    obs::ProgressReporter reporter(&os, &sink, std::chrono::seconds(3600));
  }
  const std::string out = os.str();
  EXPECT_NE(out.find("[chase] round 3"), std::string::npos) << out;
  EXPECT_NE(out.find("atoms 1234"), std::string::npos) << out;
  EXPECT_NE(out.find("nulls 56"), std::string::npos) << out;
  EXPECT_NE(out.find("triggers 789"), std::string::npos) << out;
}

// ---------------------------------------------------------------------------
// End to end: tracing must observe, never perturb.

TEST_F(ObsTest, ChaseIsBitIdenticalWithTracingOn) {
  // Non-linear transitive closure plus an existential fan-out: exercises
  // rounds, the budgeted parallel homomorphism engine, and waves.
  auto program = ParseProgram(
      "e(a,b). e(b,c). e(c,d). e(d,f). e(f,g).\n"
      "e(X,Y), e(Y,Z) -> e(X,Z).\n"
      "e(X,Y) -> p(X,W).\n");
  ASSERT_TRUE(program.ok()) << program.status();

  ChaseOptions serial_options;
  serial_options.max_atoms = 50'000;
  auto baseline = RunChase(*program->database, program->tgds, serial_options);
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  std::vector<GroundAtom> baseline_atoms;
  baseline->instance.ForEachAtom(
      [&](const GroundAtom& atom) { baseline_atoms.push_back(atom); });
  ASSERT_GT(baseline->rounds, 1u);

  for (unsigned threads : {1u, 2u, 4u}) {
    obs::MetricsRegistry::Get().Reset();
    obs::MetricsRegistry::SetEnabled(true);
    obs::TraceRecorder::Get().Start();

    ChaseOptions options = serial_options;
    options.frontier_threads = threads;
    options.hom_budget = 3;  // tight budget: many waves
    auto traced = RunChase(*program->database, program->tgds, options);
    obs::TraceRecorder::Get().Stop();
    obs::MetricsRegistry::SetEnabled(false);
    ASSERT_TRUE(traced.ok()) << traced.status();

    const std::string label = "threads " + std::to_string(threads);
    EXPECT_EQ(traced->outcome, baseline->outcome) << label;
    EXPECT_EQ(traced->rounds, baseline->rounds) << label;
    EXPECT_EQ(traced->triggers_fired, baseline->triggers_fired) << label;
    std::vector<GroundAtom> traced_atoms;
    traced->instance.ForEachAtom(
        [&](const GroundAtom& atom) { traced_atoms.push_back(atom); });
    EXPECT_EQ(traced_atoms, baseline_atoms) << label;

    // The artifact is valid Chrome trace JSON, well nested, and carries
    // the chase's structural spans.
    std::ostringstream os;
    obs::TraceRecorder::Get().WriteJson(os);
    const JsonValue trace = MustParse(os.str());
    ExpectWellNested(trace);
    std::map<std::string, size_t> names;
    for (const JsonValue& event : trace.At("traceEvents").array) {
      if (event.At("ph").str == "X") ++names[event.At("name").str];
    }
    EXPECT_GE(names["run"], 1u) << label;
    EXPECT_EQ(names["round"], baseline->rounds) << label;
    // Serial and parallel rounds both span each fragment they enumerate,
    // under the same name.
    EXPECT_GE(names["hom_task"], 1u) << label;
    EXPECT_EQ(names["rule"], 0u) << label;
    if (threads > 1) {
      // The parallel non-linear engine announces its budgeted windows.
      EXPECT_GE(names["wave"], 1u) << label;
    }

    // The registry mirrors the result counters as gauges.
    std::ostringstream metrics_os;
    obs::MetricsRegistry::Get().DumpJson(metrics_os);
    const JsonValue dump = MustParse(metrics_os.str());
    EXPECT_EQ(dump.At("gauges").At("chase.rounds").number,
              static_cast<double>(traced->rounds))
        << label;
    EXPECT_EQ(dump.At("gauges").At("chase.triggers_fired").number,
              static_cast<double>(traced->triggers_fired))
        << label;
    EXPECT_EQ(dump.At("gauges").At("chase.atoms").number,
              static_cast<double>(traced->instance.NumAtoms()))
        << label;
  }
}

TEST_F(ObsTest, ChaseReportsTheThreadsItEnumeratedOn) {
  // ChaseResult::enum_threads, the chase.enum_threads gauge and the
  // chase/run span's `threads` argument carry one value: the requested
  // threads where rounds go to the worker pool (a two-atom body), 1 where
  // a linear semi-oblivious chase enumerates inline.
  for (const bool linear : {true, false}) {
    auto program = ParseProgram(
        linear ? "e(a,b). e(b,c).\ne(X,Y) -> p(Y,Z).\n"
               : "e(a,b). e(b,c).\ne(X,Y), e(Y,Z) -> p(X,Z).\n");
    ASSERT_TRUE(program.ok()) << program.status();
    obs::MetricsRegistry::Get().Reset();
    obs::MetricsRegistry::SetEnabled(true);
    obs::TraceRecorder::Get().Start();
    ChaseOptions options;
    options.frontier_threads = 4;
    auto result = RunChase(*program->database, program->tgds, options);
    obs::TraceRecorder::Get().Stop();
    obs::MetricsRegistry::SetEnabled(false);
    ASSERT_TRUE(result.ok()) << result.status();

    const unsigned expected = linear ? 1 : 4;
    const std::string label = linear ? "linear" : "two-atom body";
    EXPECT_EQ(result->enum_threads, expected) << label;
    std::ostringstream metrics_os;
    obs::MetricsRegistry::Get().DumpJson(metrics_os);
    EXPECT_EQ(MustParse(metrics_os.str())
                  .At("gauges")
                  .At("chase.enum_threads")
                  .number,
              expected)
        << label;
    std::ostringstream trace_os;
    obs::TraceRecorder::Get().WriteJson(trace_os);
    const JsonValue trace = MustParse(trace_os.str());
    size_t runs = 0;
    for (const JsonValue& event : trace.At("traceEvents").array) {
      if (event.At("cat").str == "chase" && event.At("name").str == "run") {
        ++runs;
        EXPECT_EQ(event.At("args").At("threads").number, expected) << label;
      }
    }
    EXPECT_EQ(runs, 1u) << label;
  }
}

}  // namespace
}  // namespace chase
