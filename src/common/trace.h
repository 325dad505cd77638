#ifndef NLIDB_COMMON_TRACE_H_
#define NLIDB_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace nlidb {
namespace trace {

/// Monotonic wall clock in nanoseconds, relative to process start.
///
/// This is the single sanctioned timing source for library code: the
/// raw-timing lint rule forbids std::chrono clocks everywhere outside
/// trace.cc and bench/, so stage timing, histograms and benches that
/// live in src/ all read time through here. Relative-to-epoch keeps the
/// values small enough to subtract without overflow concerns.
uint64_t NowNs();

/// One finished span, as delivered to a `TraceSink`.
///
/// Spans form a tree per request: `parent_id` is the span that was
/// current on the emitting thread (or installed via `ScopedParent` for
/// serving workers) when the span was opened, and 0 means root. Ids are
/// process-unique and monotonically increasing, so sorting by id
/// recovers creation order.
struct SpanRecord {
  std::string name;         // stage name, e.g. "pipeline.annotate"
  uint64_t start_ns = 0;    // NowNs() at construction
  uint64_t duration_ns = 0; // NowNs() delta at destruction
  int span_id = 0;
  int parent_id = 0;        // 0 = root
  int thread_id = 0;        // dense per-thread id (see metrics.h)
  std::vector<std::pair<std::string, std::string>> annotations;
};

/// Receives finished spans. Implementations must be thread-safe:
/// `OnSpanEnd` is called concurrently from pool workers.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnSpanEnd(const SpanRecord& record) = 0;
};

/// True when a sink is installed. One relaxed atomic load.
bool Enabled();

/// Installs (or, with nullptr, removes) the process-wide sink. The
/// previous sink is returned so tests can restore it. Spans already in
/// flight when the sink is swapped are delivered to whichever sink is
/// current when they close.
std::shared_ptr<TraceSink> SetSink(std::shared_ptr<TraceSink> sink);

/// The currently installed sink (may be null).
std::shared_ptr<TraceSink> CurrentSink();

/// Reads NLIDB_TRACE once. "stderr" installs no sink: the span
/// histograms (`<name>_ns` lines of `MetricsRegistry::RenderText()`) are
/// printed to stderr at exit. Anything else is a JSON-lines file path,
/// installed as the sink unless one is installed already. Called lazily
/// from the first `TraceSpan`; safe to call directly (e.g. from tool
/// main()s that want tracing before the first span).
void InitFromEnv();

/// The id of the span currently open on this thread (0 if none).
/// Captured when a request is queued and re-installed on the serving
/// worker via `ScopedParent` so worker spans parent under the submitter.
int CurrentSpanId();

/// RAII: makes `parent_id` the current parent on this thread for the
/// scope's lifetime. The serving engine uses it to stitch a worker's
/// spans into the submitting request's tree.
class ScopedParent {
 public:
  explicit ScopedParent(int parent_id);
  ~ScopedParent();
  ScopedParent(const ScopedParent&) = delete;
  ScopedParent& operator=(const ScopedParent&) = delete;

 private:
  int saved_;
};

/// Wall time of one stage, forming a per-request tree. A `TraceSpan`
/// given a node appends its own timing as a child, so the tree mirrors
/// the span tree a sink would see but travels with the caller's result.
struct StageTiming {
  std::string name;
  uint64_t wall_ns = 0;
  std::vector<StageTiming> children;

  /// The direct child named `child_name`, or nullptr.
  const StageTiming* Child(const std::string& child_name) const;
};

/// RAII span, the one stage timer. Construction reads the clock and,
/// when tracing is enabled, makes the span the thread's current parent.
/// Closing it reads the clock once more, and that one duration feeds:
///   - the `<name>_ns` histogram in `MetricsRegistry::Global()`, always;
///   - a child of `tree` named after the last dotted component of `name`
///     ("pipeline.annotate" -> "annotate"), when `tree` is non-null;
///   - a `SpanRecord` to the sink, when tracing is enabled.
/// Cost without sink or tree: two clock reads and one histogram record;
/// the histogram comes from a per-thread cache, so no lock is taken once
/// a thread has seen the name.
class TraceSpan {
 public:
  /// `name` must be a string literal: the histogram cache is keyed on
  /// its address.
  explicit TraceSpan(const char* name, StageTiming* tree = nullptr);
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Closes the span now and returns its duration; later calls return
  /// the same duration and the destructor emits nothing more. The span
  /// stays the thread's current parent until it is destroyed, so spans
  /// still open inside it keep their place in the tree.
  uint64_t End();

  /// Attaches a key/value pair to the span (no-op when disabled).
  void Annotate(const char* key, std::string value);
  void Annotate(const char* key, int64_t value);

  /// True when this span is live (tracing was enabled at construction).
  bool active() const { return active_; }

 private:
  bool active_;
  bool ended_ = false;
  const char* name_;
  StageTiming* tree_;
  uint64_t start_ns_ = 0;
  uint64_t duration_ns_ = 0;
  int span_id_ = 0;
  int parent_id_ = 0;
  std::vector<std::pair<std::string, std::string>> annotations_;
};

/// Appends one JSON object per finished span to a file. Thread-safe;
/// flushed and closed on destruction.
class JsonLinesSink : public TraceSink {
 public:
  explicit JsonLinesSink(const std::string& path);
  ~JsonLinesSink() override;
  void OnSpanEnd(const SpanRecord& record) override;

  /// False if the file could not be opened (records are then dropped).
  bool ok() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Buffers records in memory for tests.
class InMemorySink : public TraceSink {
 public:
  InMemorySink();
  ~InMemorySink() override;
  void OnSpanEnd(const SpanRecord& record) override;

  /// Snapshot of all records received so far, in completion order.
  std::vector<SpanRecord> Records() const;
  void Clear();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace trace
}  // namespace nlidb

#endif  // NLIDB_COMMON_TRACE_H_
