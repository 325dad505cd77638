#include "common/lockdep.h"

#include <execinfo.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/file_io.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/trace.h"

namespace nlidb {
namespace lockdep {

namespace internal {

/// lockdep.cc is a friend of `Mutex`; everything else goes through the
/// public wrapper API.
struct MutexAccess {
  static std::mutex& Raw(Mutex* mu) { return mu->mu_; }
  static const char* Name(const Mutex* mu) { return mu->name_; }
  static const char* File(const Mutex* mu) { return mu->file_; }
  static int Line(const Mutex* mu) { return mu->line_; }
};

}  // namespace internal

namespace {

using internal::MutexAccess;

constexpr int kMaxStackDepth = 24;
constexpr char kUnnamed[] = "<unnamed>";

struct RawStack {
  void* frames[kMaxStackDepth] = {};
  int depth = 0;
};

RawStack CaptureStack() {
  RawStack s;
  s.depth = backtrace(s.frames, kMaxStackDepth);
  return s;
}

/// Symbolizes lazily — only when a report actually fires, never on the
/// per-acquisition path (backtrace_symbols allocates).
std::string SymbolizeStack(const RawStack& s) {
  if (s.depth <= 0) return "    <stack unavailable>\n";
  char** syms = backtrace_symbols(const_cast<void* const*>(s.frames), s.depth);
  if (syms == nullptr) return "    <stack unavailable>\n";
  std::ostringstream out;
  for (int i = 0; i < s.depth; ++i) {
    out << "    #" << i << " " << syms[i] << "\n";
  }
  std::free(syms);
  return out.str();
}

struct ClassInstruments {
  metrics::Histogram* held_ns = nullptr;
  metrics::Histogram* wait_ns = nullptr;
  metrics::Counter* contended = nullptr;
};

struct ClassInfo {
  std::string name;
  std::string site;  // "file:line" of the first-registered instance
  ClassInstruments instruments;
  std::set<int> out;  // recorded orderings: this class held -> edge target
};

/// The stacks evidencing a recorded ordering: where `to` was acquired
/// while `from` was held.
struct EdgeInfo {
  RawStack acquire_stack;
};

/// Process-global lock-order graph. `mu` is a LEAF lock: nothing that
/// can take another lock (MetricsRegistry in particular locks its own
/// Mutex) may be called while it is held — that would be an ABBA inside
/// the ABBA detector. Class registration is two-phase for this reason.
struct Graph {
  std::mutex mu;  // nlidb-lint: disable(mutex-unguarded)
  std::map<std::string, int> class_ids;
  std::vector<ClassInfo*> classes;
  std::map<std::pair<int, int>, EdgeInfo> edges;
  std::vector<Report> reports;
  std::set<std::pair<int, int>> reported_pairs;  // unordered-pair dedup
  std::set<std::string> reported_stuck;          // per-name dedup
};

Graph& G() {
  static Graph* g = new Graph;  // leaked: outlives every static mutex
  return *g;
}

/// One still-held acquisition in the calling thread's lock set.
struct HeldLock {
  const Mutex* mu = nullptr;
  int class_id = -1;
  uint64_t acquired_ns = 0;
  metrics::Histogram* held_hist = nullptr;
};

/// Re-entrancy guard: locks taken *by the hooks themselves* (metrics
/// registry, allocator-internal paths) degrade to the plain operation
/// instead of recursing into the detector.
thread_local bool tls_in_hook = false;

/// The calling thread's held set. The main thread's dies before static
/// destructors that still lock (the global ThreadPool's), so teardown
/// leaves the thread "in a hook" for good: later locks are plain.
struct HeldSet {
  std::vector<HeldLock> locks;
  ~HeldSet() { tls_in_hook = true; }
};
thread_local HeldSet tls_held;

std::atomic<int> g_watchdog_ms{30000};

int InitModeFromEnv() {
  const char* v = std::getenv("NLIDB_DEADLOCK");
  if (v == nullptr) {
#ifdef NLIDB_DEADLOCK_DEFAULT_ON
    return 1;
#else
    return 0;
#endif
  }
  const std::string s(v);
  if (s == "fatal") return 2;
  if (s == "on" || s == "1" || s == "true") return 1;
  return 0;
}

const char* g_report_path = nullptr;

void DumpReportsAtExit() {
  const std::string text = RenderReports();
  if (text.empty() || g_report_path == nullptr) return;
  const Status s = io::WriteFileAtomic(g_report_path, text, "lockdep");
  if (!s.ok()) {
    std::fprintf(stderr, "lockdep: failed to write report to %s\n",
                 g_report_path);
  }
}

struct EnvInit {
  EnvInit() {
    internal::g_mode.store(InitModeFromEnv(), std::memory_order_relaxed);
    if (const char* ms = std::getenv("NLIDB_CONDVAR_WATCHDOG_MS")) {
      g_watchdog_ms.store(std::atoi(ms), std::memory_order_relaxed);
    }
    g_report_path = std::getenv("NLIDB_DEADLOCK_REPORT");
    if (g_report_path != nullptr) std::atexit(DumpReportsAtExit);
  }
};
EnvInit g_env_init;

std::string SiteOf(const Mutex* mu) {
  const char* file = MutexAccess::File(mu);
  if (file == nullptr) return "<unknown site>";
  std::ostringstream out;
  out << file << ":" << MutexAccess::Line(mu);
  return out.str();
}

/// The detector's own counters, resolved once. Like ClassIdFor's
/// instrument creation, the first call locks the metrics registry — so
/// it must only ever run at a point where the calling thread does NOT
/// hold the mutex being instrumented (LockSlow resolves both *before*
/// acquiring the raw lock). Otherwise instrumenting the registry's own
/// `metrics.registry` mutex recurses into the held registry and
/// self-deadlocks.
struct GlobalCounters {
  metrics::Counter* acquisitions;
  metrics::Counter* inversions;
  metrics::Counter* stuck_waits;
};
GlobalCounters& Counters() {
  static GlobalCounters c = [] {
    metrics::MetricsRegistry& reg = metrics::MetricsRegistry::Global();
    return GlobalCounters{&reg.GetCounter("lockdep.acquisitions"),
                          &reg.GetCounter("lockdep.inversions"),
                          &reg.GetCounter("lockdep.stuck_waits")};
  }();
  return c;
}

/// Two-phase class lookup. Phase 1: id lookup under the graph lock.
/// Phase 2 (first sighting of a name only): create the metrics
/// instruments OUTSIDE the graph lock — MetricsRegistry locks its own
/// Mutex, and calling it under `G().mu` would record a false (and in
/// fatal mode, process-killing) registry<->graph ordering — then
/// double-checked insert. Callers must not hold the mutex being
/// classified (see GlobalCounters above); this relies on the registry
/// never acquiring another instrumented mutex while holding its own.
int ClassIdFor(Mutex* mu, ClassInstruments* instruments) {
  const char* n = MutexAccess::Name(mu);
  const std::string name = n != nullptr ? n : kUnnamed;
  Graph& g = G();
  {
    std::lock_guard<std::mutex> lock(g.mu);
    auto it = g.class_ids.find(name);
    if (it != g.class_ids.end()) {
      *instruments = g.classes[it->second]->instruments;
      return it->second;
    }
  }
  ClassInstruments created;
  metrics::MetricsRegistry& reg = metrics::MetricsRegistry::Global();
  created.held_ns = &reg.GetHistogram("mutex." + name + ".held_ns");
  created.wait_ns = &reg.GetHistogram("mutex." + name + ".wait_ns");
  created.contended = &reg.GetCounter("mutex." + name + ".contended");
  std::lock_guard<std::mutex> lock(g.mu);
  auto [it, inserted] =
      g.class_ids.try_emplace(name, static_cast<int>(g.classes.size()));
  if (inserted) {
    ClassInfo* info = new ClassInfo;
    info->name = name;
    info->site = SiteOf(mu);
    info->instruments = created;
    g.classes.push_back(info);
  }
  *instruments = g.classes[it->second]->instruments;
  return it->second;
}

/// DFS over recorded orderings: is `to` already able to reach `from`?
/// If so the about-to-be-added edge (from, to) closes a cycle; `path`
/// receives the class ids from `to` to `from` inclusive. Caller holds
/// the graph lock.
bool FindPath(const Graph& g, int to, int from, std::vector<int>* path) {
  std::map<int, int> parent;
  std::vector<int> stack{to};
  parent[to] = to;
  while (!stack.empty()) {
    const int node = stack.back();
    stack.pop_back();
    if (node == from) {
      for (int n = from; n != to; n = parent[n]) path->push_back(n);
      path->push_back(to);
      std::reverse(path->begin(), path->end());
      return true;
    }
    for (int next : g.classes[node]->out) {
      if (parent.emplace(next, node).second) stack.push_back(next);
    }
  }
  return false;
}

std::string RenderReportLocked(size_t index, const Report& r) {
  std::ostringstream out;
  out << "[" << index << "] "
      << (r.kind == Report::Kind::kOrderInversion ? "lock-order inversion"
                                                  : "condvar stuck wait")
      << "\n  " << r.message << "\n";
  if (r.kind == Report::Kind::kOrderInversion) {
    out << "  previously: '" << r.first_mutex << "' held, then '"
        << r.second_mutex << "' ... '" << r.first_mutex << "' acquired at:\n"
        << r.first_stack;
    out << "  now: '" << r.first_mutex << "' held, acquiring '"
        << r.second_mutex << "' at:\n"
        << r.second_stack;
  } else if (!r.second_stack.empty()) {
    out << "  waiting at:\n" << r.second_stack;
  }
  return out.str();
}

void EmitInversionReport(Graph& g, int held_id, int new_id,
                         const std::vector<int>& path,
                         const RawStack& prior_stack,
                         const RawStack& current_stack) {
  // Assembled outside the graph lock (symbolization allocates); the
  // dedup marker was already planted under the lock.
  Report r;
  r.kind = Report::Kind::kOrderInversion;
  r.first_mutex = g.classes[held_id]->name;
  r.second_mutex = g.classes[new_id]->name;
  r.first_stack = SymbolizeStack(prior_stack);
  r.second_stack = SymbolizeStack(current_stack);
  std::ostringstream cycle;
  cycle << g.classes[held_id]->name;
  for (int id : path) cycle << " -> " << g.classes[id]->name;
  r.cycle = cycle.str();
  std::ostringstream msg;
  msg << "potential deadlock: acquiring '" << r.second_mutex << "' ("
      << g.classes[new_id]->site << ") while holding '" << r.first_mutex
      << "' (" << g.classes[held_id]->site
      << ") inverts the recorded lock order; cycle: " << r.cycle;
  r.message = msg.str();

  // Counters() is already resolved: the LockSlow that found this cycle
  // called it before acquiring, so this is an atomic increment — safe
  // even though we may be holding the registry's own mutex right now.
  Counters().inversions->Increment();

  bool fatal = internal::g_mode.load(std::memory_order_relaxed) == 2;
  std::string rendered;
  {
    std::lock_guard<std::mutex> lock(g.mu);
    g.reports.push_back(r);
    if (fatal) rendered = RenderReportLocked(g.reports.size(), r);
  }
  if (fatal) {
    std::fprintf(stderr, "%s", rendered.c_str());
    std::fflush(stderr);
    DumpReportsAtExit();
    std::abort();
  }
}

/// Folds the acquisition of `new_id` (with `acquired` held-set context)
/// into the graph; fires a report when a new edge closes a cycle.
void RecordEdges(int new_id, const RawStack& current_stack) {
  Graph& g = G();
  for (const HeldLock& held : tls_held.locks) {
    // Same-class edges are skipped: instances of one class share a
    // node, so A1->A2 would self-loop (documented blind spot).
    if (held.class_id == new_id) continue;
    bool report_cycle = false;
    std::vector<int> path;
    RawStack prior_stack;
    {
      std::lock_guard<std::mutex> lock(g.mu);
      ClassInfo& from = *g.classes[held.class_id];
      if (from.out.count(new_id) != 0) continue;  // known ordering
      if (FindPath(g, new_id, held.class_id, &path)) {
        const std::pair<int, int> key =
            std::minmax(held.class_id, new_id);
        if (g.reported_pairs.insert(key).second) {
          report_cycle = true;
          // The evidentiary prior edge is the one that enters the held
          // class on the found path: where `held` was acquired while
          // the previous class on the path was held.
          const int prev = path.size() >= 2 ? path[path.size() - 2] : new_id;
          auto it = g.edges.find({prev, held.class_id});
          if (it != g.edges.end()) prior_stack = it->second.acquire_stack;
        }
      }
      from.out.insert(new_id);
      g.edges.emplace(std::make_pair(held.class_id, new_id),
                      EdgeInfo{current_stack});
    }
    if (report_cycle) {
      EmitInversionReport(g, held.class_id, new_id, path, prior_stack,
                          current_stack);
    }
  }
}

}  // namespace

namespace internal {

std::atomic<int> g_mode{0};

void LockSlow(Mutex* mu) {
  std::mutex& raw = MutexAccess::Raw(mu);
  if (tls_in_hook) {
    raw.lock();
    return;
  }
  tls_in_hook = true;
  // All metrics-registry interaction happens BEFORE acquiring `raw`:
  // when `mu` is the registry's own mutex, creating its instruments (or
  // first-resolving the global counters) re-enters the registry, and
  // doing that while already holding `raw` would self-deadlock.
  ClassInstruments instruments;
  const int cid = ClassIdFor(mu, &instruments);
  GlobalCounters& counters = Counters();

  bool contended = false;
  uint64_t wait_ns = 0;
  if (!raw.try_lock()) {
    contended = true;
    const uint64_t t0 = trace::NowNs();
    raw.lock();
    wait_ns = trace::NowNs() - t0;
  }
  if (contended) {
    instruments.contended->Increment();
    instruments.wait_ns->Record(wait_ns);
  }
  counters.acquisitions->Increment();

  if (!tls_held.locks.empty()) {
    // Stack capture only on nested acquisitions: single-lock sections
    // (the overwhelmingly common case) never pay for backtrace().
    RecordEdges(cid, CaptureStack());
  }
  tls_held.locks.push_back(
      HeldLock{mu, cid, trace::NowNs(), instruments.held_ns});
  tls_in_hook = false;
}

void UnlockSlow(Mutex* mu) {
  std::mutex& raw = MutexAccess::Raw(mu);
  if (tls_in_hook) {
    raw.unlock();
    return;
  }
  tls_in_hook = true;
  std::vector<HeldLock>& held = tls_held.locks;
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (it->mu == mu) {
      if (it->held_hist != nullptr) {
        it->held_hist->Record(trace::NowNs() - it->acquired_ns);
      }
      held.erase(std::next(it).base());
      break;
    }
    // No entry: acquired while the detector was off (or inside a hook);
    // nothing to unwind.
  }
  raw.unlock();
  tls_in_hook = false;
}

void ReportStuckWait(const char* mutex_name, int waited_ms) {
  const std::string name = mutex_name != nullptr ? mutex_name : kUnnamed;
  // The caller holds the mutex it waited on, never the registry's, so
  // first-resolving Counters() here cannot recurse into a held lock.
  Counters().stuck_waits->Increment();
  Graph& g = G();
  RawStack stack = CaptureStack();
  {
    std::lock_guard<std::mutex> lock(g.mu);
    if (!g.reported_stuck.insert(name).second) return;  // one per name
  }
  Report r;
  r.kind = Report::Kind::kStuckWait;
  r.first_mutex = name;
  r.second_stack = SymbolizeStack(stack);
  std::ostringstream msg;
  msg << "condvar wait on '" << name << "' exceeded " << waited_ms
      << "ms watchdog; possible lost notify or stuck producer "
         "(informational: idle waits are legitimate, never fatal)";
  r.message = msg.str();
  std::lock_guard<std::mutex> lock(g.mu);
  g.reports.push_back(std::move(r));
}

}  // namespace internal

bool FatalReports() {
  return internal::g_mode.load(std::memory_order_relaxed) == 2;
}

void SetEnabled(bool on) {
  internal::g_mode.store(on ? 1 : 0, std::memory_order_relaxed);
  if (!on) tls_held.locks.clear();  // the caller is quiescent by contract
}

int WatchdogTimeoutMs() {
  return g_watchdog_ms.load(std::memory_order_relaxed);
}

void SetWatchdogTimeoutMs(int ms) {
  g_watchdog_ms.store(ms, std::memory_order_relaxed);
}

std::vector<Report> Reports() {
  Graph& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  return g.reports;
}

void ClearReports() {
  Graph& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  g.reports.clear();
  g.reported_pairs.clear();
  g.reported_stuck.clear();
}

void ResetGraphForTest() {
  Graph& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  g.class_ids.clear();
  for (ClassInfo* c : g.classes) delete c;
  g.classes.clear();
  g.edges.clear();
  g.reports.clear();
  g.reported_pairs.clear();
  g.reported_stuck.clear();
  tls_held.locks.clear();
}

std::string RenderReports() {
  Graph& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  if (g.reports.empty()) return std::string();
  std::ostringstream out;
  out << "=== nlidb lockdep: " << g.reports.size() << " report(s) ===\n";
  for (size_t i = 0; i < g.reports.size(); ++i) {
    out << RenderReportLocked(i + 1, g.reports[i]);
  }
  return out.str();
}

}  // namespace lockdep
}  // namespace nlidb
