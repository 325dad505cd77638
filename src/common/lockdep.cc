#include "common/lockdep.h"

#include <execinfo.h>
#include <unistd.h>

#include <algorithm>
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
#include "common/mutex.h"

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

struct ClassInfo {
  std::string name;
  std::string site;  // "file:line" of the first-registered instance
  std::set<int> out;  // recorded orderings: this class held -> edge target
};

/// The stacks evidencing a recorded ordering: where `to` was acquired
/// while `from` was held.
struct EdgeInfo {
  RawStack acquire_stack;
};

/// Process-global lock-order graph. `mu` is a LEAF lock: nothing called
/// while it is held takes another lock.
struct Graph {
  std::mutex mu;  // nlidb-lint: disable(mutex-unguarded)
  std::map<std::string, int> class_ids;
  std::vector<ClassInfo> classes;
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
};

/// Set once the calling thread's held set is destroyed. The main
/// thread's dies before static destructors that still lock (the global
/// ThreadPool's), so from then on its locks take the plain path.
thread_local bool tls_held_destroyed = false;

struct HeldSet {
  std::vector<HeldLock> locks;
  ~HeldSet() { tls_held_destroyed = true; }
};
thread_local HeldSet tls_held;

std::atomic<int> g_watchdog_ms{30000};

const char* g_report_path = nullptr;

/// Each process writes `<path>.<pid>`, so processes sharing one
/// NLIDB_DEADLOCK_REPORT (ctest -j) never overwrite each other's reports.
void DumpReportsAtExit() {
  const std::string text = RenderReports();
  if (text.empty()) return;
  const std::string path =
      std::string(g_report_path) + "." + std::to_string(getpid());
  const Status s = io::WriteFileAtomic(path, text, "lockdep");
  if (!s.ok()) {
    std::fprintf(stderr, "lockdep: failed to write report to %s\n",
                 path.c_str());
  }
}

struct EnvInit {
  EnvInit() {
    const char* v = std::getenv("NLIDB_DEADLOCK");
    const std::string mode = v != nullptr ? v : "";
    internal::g_enabled.store(mode == "on" || mode == "1" || mode == "true",
                              std::memory_order_relaxed);
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

/// The lock class of `mu`, registered on first sighting of its name.
int ClassIdFor(const Mutex* mu) {
  const char* n = MutexAccess::Name(mu);
  const std::string name = n != nullptr ? n : kUnnamed;
  Graph& g = G();
  std::lock_guard<std::mutex> lock(g.mu);
  auto [it, inserted] =
      g.class_ids.try_emplace(name, static_cast<int>(g.classes.size()));
  if (inserted) g.classes.push_back(ClassInfo{name, SiteOf(mu), {}});
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
    for (int next : g.classes[node].out) {
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
  // Symbolized outside the graph lock (it is slow); the dedup marker
  // was already planted under the lock.
  Report r;
  r.kind = Report::Kind::kOrderInversion;
  r.first_stack = SymbolizeStack(prior_stack);
  r.second_stack = SymbolizeStack(current_stack);
  std::lock_guard<std::mutex> lock(g.mu);
  const ClassInfo& held = g.classes[held_id];
  const ClassInfo& acquired = g.classes[new_id];
  r.first_mutex = held.name;
  r.second_mutex = acquired.name;
  std::ostringstream cycle;
  cycle << held.name;
  for (int id : path) cycle << " -> " << g.classes[id].name;
  r.cycle = cycle.str();
  std::ostringstream msg;
  msg << "potential deadlock: acquiring '" << r.second_mutex << "' ("
      << acquired.site << ") while holding '" << r.first_mutex << "' ("
      << held.site << ") inverts the recorded lock order; cycle: "
      << r.cycle;
  r.message = msg.str();
  g.reports.push_back(std::move(r));
}

/// Folds the acquisition of `new_id` (with the calling thread's held
/// set as context) into the graph; fires a report when a new edge
/// closes a cycle.
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
      ClassInfo& from = g.classes[held.class_id];
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

std::atomic<bool> g_enabled{false};

void LockSlow(Mutex* mu) {
  std::mutex& raw = MutexAccess::Raw(mu);
  if (tls_held_destroyed) {
    raw.lock();
    return;
  }
  const int cid = ClassIdFor(mu);
  raw.lock();
  if (!tls_held.locks.empty()) {
    // Stack capture only on nested acquisitions: single-lock sections
    // (the overwhelmingly common case) never pay for backtrace().
    RecordEdges(cid, CaptureStack());
  }
  tls_held.locks.push_back(HeldLock{mu, cid});
}

void UnlockSlow(Mutex* mu) {
  if (!tls_held_destroyed) {
    std::vector<HeldLock>& held = tls_held.locks;
    for (auto it = held.rbegin(); it != held.rend(); ++it) {
      if (it->mu == mu) {
        held.erase(std::next(it).base());
        break;
      }
    }
    // No entry: acquired while the detector was off; nothing to unwind.
  }
  MutexAccess::Raw(mu).unlock();
}

void ReportStuckWait(const char* mutex_name, int waited_ms) {
  const std::string name = mutex_name != nullptr ? mutex_name : kUnnamed;
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
         "(informational: idle waits are legitimate)";
  r.message = msg.str();
  std::lock_guard<std::mutex> lock(g.mu);
  g.reports.push_back(std::move(r));
}

}  // namespace internal

void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
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
