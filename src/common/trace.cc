#include "common/trace.h"

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <sstream>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace nlidb {
namespace trace {

namespace {

// Process epoch: captured on the first NowNs() call so span timestamps
// stay small. steady_clock is sanctioned here and nowhere else in src/
// (the raw-timing lint rule funnels all timing through this function).
std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

// Tracing toggles once per process at most (env init) plus explicit
// test-driven SetSink calls; the hot path only ever reads g_enabled.
std::atomic<bool> g_enabled{false};
std::atomic<int> g_next_span_id{1};

struct SinkState {
  Mutex mu{"trace.sink"};
  std::shared_ptr<TraceSink> sink NLIDB_GUARDED_BY(mu);
};

// Leaked so pool workers closing spans during process shutdown never
// touch a destroyed mutex; the env-installed sink is still flushed via
// the atexit hook registered in InitFromEnv.
SinkState& GlobalSinkState() {
  static SinkState* state = new SinkState;
  return *state;
}

// The span currently open on this thread; 0 = root. TraceSpan pushes
// itself here, ScopedParent re-installs a submitter's span id on
// serving workers.
thread_local int tls_current_parent = 0;

void FlushEnvSinkAtExit() { SetSink(nullptr); }

// NLIDB_TRACE=stderr: every span already feeds its `<name>_ns`
// histogram, so the summary is those lines of the registry dump.
void PrintSpanHistogramsAtExit() {
  std::istringstream lines(metrics::MetricsRegistry::Global().RenderText());
  std::fputs("\n=== nlidb trace summary ===\n", stderr);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("_ns count=") != std::string::npos) {
      std::fprintf(stderr, "%s\n", line.c_str());
    }
  }
}

// The `<name>_ns` histogram of a span name. Span names are string
// literals, so each thread keeps a small open-addressing table keyed on
// the name's address; only a thread's first span of a given name goes
// through the registry and its lock.
metrics::Histogram& HistogramFor(const char* name) {
  struct Slot {
    const char* name = nullptr;
    metrics::Histogram* histogram = nullptr;
  };
  constexpr size_t kSlots = 64;  // well above the number of span names
  thread_local std::array<Slot, kSlots> cache;
  // Fibonacci hash: the product's top 6 bits pick one of the 64 slots.
  size_t i = static_cast<size_t>(
      (reinterpret_cast<uintptr_t>(name) * 0x9E3779B97F4A7C15ull) >> 58);
  auto lookup = [name] {
    return &metrics::MetricsRegistry::Global().GetHistogram(
        std::string(name) + "_ns");
  };
  for (size_t probe = 0; probe < kSlots; ++probe, i = (i + 1) % kSlots) {
    if (cache[i].name == nullptr) cache[i] = {name, lookup()};
    if (cache[i].name == name) return *cache[i].histogram;
  }
  return *lookup();  // table full: still correct, just locks
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - ProcessEpoch())
          .count());
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::shared_ptr<TraceSink> SetSink(std::shared_ptr<TraceSink> sink) {
  SinkState& state = GlobalSinkState();
  MutexLock lock(state.mu);
  std::shared_ptr<TraceSink> previous = std::move(state.sink);
  state.sink = std::move(sink);
  g_enabled.store(state.sink != nullptr, std::memory_order_relaxed);
  return previous;
}

std::shared_ptr<TraceSink> CurrentSink() {
  SinkState& state = GlobalSinkState();
  MutexLock lock(state.mu);
  return state.sink;
}

void InitFromEnv() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* env = std::getenv("NLIDB_TRACE");
    if (env == nullptr || env[0] == '\0') return;
    if (std::string(env) == "stderr") {
      std::atexit(PrintSpanHistogramsAtExit);
      return;
    }
    if (CurrentSink() != nullptr) return;  // explicit sink wins
    auto sink = std::make_shared<JsonLinesSink>(env);
    if (!sink->ok()) {
      std::fprintf(stderr, "nlidb: NLIDB_TRACE: cannot open '%s'\n", env);
      return;
    }
    SetSink(std::move(sink));
    // Static-destruction order is unreliable across TUs; flush the
    // env-installed sink explicitly before static teardown begins.
    std::atexit(FlushEnvSinkAtExit);
  });
}

int CurrentSpanId() { return tls_current_parent; }

ScopedParent::ScopedParent(int parent_id) : saved_(tls_current_parent) {
  tls_current_parent = parent_id;
}

ScopedParent::~ScopedParent() { tls_current_parent = saved_; }

const StageTiming* StageTiming::Child(const std::string& child_name) const {
  for (const StageTiming& child : children) {
    if (child.name == child_name) return &child;
  }
  return nullptr;
}

TraceSpan::TraceSpan(const char* name, StageTiming* tree)
    : name_(name), tree_(tree) {
  InitFromEnv();
  active_ = Enabled();
  if (active_) {
    span_id_ = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
    parent_id_ = tls_current_parent;
    tls_current_parent = span_id_;
  }
  start_ns_ = NowNs();
}

TraceSpan::~TraceSpan() {
  End();
  if (active_) tls_current_parent = parent_id_;
}

uint64_t TraceSpan::End() {
  if (ended_) return duration_ns_;
  ended_ = true;
  duration_ns_ = NowNs() - start_ns_;
  HistogramFor(name_).Record(duration_ns_);
  if (tree_ != nullptr) {
    const char* dot = std::strrchr(name_, '.');
    tree_->children.push_back(
        StageTiming{dot != nullptr ? dot + 1 : name_, duration_ns_, {}});
  }
  if (!active_) return duration_ns_;
  std::shared_ptr<TraceSink> sink = CurrentSink();
  if (sink == nullptr) return duration_ns_;  // removed while the span was open
  SpanRecord record;
  record.name = name_;
  record.start_ns = start_ns_;
  record.duration_ns = duration_ns_;
  record.span_id = span_id_;
  record.parent_id = parent_id_;
  record.thread_id = metrics::DenseThreadId();
  record.annotations = std::move(annotations_);
  sink->OnSpanEnd(record);
  return duration_ns_;
}

void TraceSpan::Annotate(const char* key, std::string value) {
  if (!active_) return;
  annotations_.emplace_back(key, std::move(value));
}

void TraceSpan::Annotate(const char* key, int64_t value) {
  if (!active_) return;
  annotations_.emplace_back(key, std::to_string(value));
}

// ---------------------------------------------------------------------------
// JsonLinesSink

struct JsonLinesSink::Impl {
  Mutex mu{"trace.json_sink"};
  std::FILE* file NLIDB_GUARDED_BY(mu) = nullptr;
};

JsonLinesSink::JsonLinesSink(const std::string& path)
    : impl_(std::make_unique<Impl>()) {
  MutexLock lock(impl_->mu);
  impl_->file = std::fopen(path.c_str(), "w");
}

JsonLinesSink::~JsonLinesSink() {
  MutexLock lock(impl_->mu);
  if (impl_->file != nullptr) std::fclose(impl_->file);
}

bool JsonLinesSink::ok() const {
  MutexLock lock(impl_->mu);
  return impl_->file != nullptr;
}

void JsonLinesSink::OnSpanEnd(const SpanRecord& record) {
  MutexLock lock(impl_->mu);
  if (impl_->file == nullptr) return;
  std::fprintf(impl_->file,
               "{\"name\":\"%s\",\"span\":%d,\"parent\":%d,\"thread\":%d,"
               "\"start_ns\":%llu,\"duration_ns\":%llu",
               JsonEscape(record.name).c_str(), record.span_id,
               record.parent_id, record.thread_id,
               static_cast<unsigned long long>(record.start_ns),
               static_cast<unsigned long long>(record.duration_ns));
  if (!record.annotations.empty()) {
    std::fputs(",\"annotations\":{", impl_->file);
    for (size_t i = 0; i < record.annotations.size(); ++i) {
      std::fprintf(impl_->file, "%s\"%s\":\"%s\"", i == 0 ? "" : ",",
                   JsonEscape(record.annotations[i].first).c_str(),
                   JsonEscape(record.annotations[i].second).c_str());
    }
    std::fputc('}', impl_->file);
  }
  std::fputs("}\n", impl_->file);
}

// ---------------------------------------------------------------------------
// InMemorySink

struct InMemorySink::Impl {
  mutable Mutex mu{"trace.mem_sink"};
  std::vector<SpanRecord> records NLIDB_GUARDED_BY(mu);
};

InMemorySink::InMemorySink() : impl_(std::make_unique<Impl>()) {}
InMemorySink::~InMemorySink() = default;

void InMemorySink::OnSpanEnd(const SpanRecord& record) {
  MutexLock lock(impl_->mu);
  impl_->records.push_back(record);
}

std::vector<SpanRecord> InMemorySink::Records() const {
  MutexLock lock(impl_->mu);
  return impl_->records;
}

void InMemorySink::Clear() {
  MutexLock lock(impl_->mu);
  impl_->records.clear();
}

}  // namespace trace
}  // namespace nlidb
