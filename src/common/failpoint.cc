#include "common/failpoint.h"

#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/mutex.h"
#include "common/strings.h"
#include "common/thread_annotations.h"

namespace nlidb {
namespace failpoint {

namespace internal {
std::atomic<int> g_active{0};
}  // namespace internal

namespace {

// Leaked (like the trace sink state) so failpoints fired from atexit
// hooks or static destructors never touch a destroyed registry.
struct Registry {
  Mutex mu;
  std::map<std::string, Action> sites NLIDB_GUARDED_BY(mu);
  bool random_delay NLIDB_GUARDED_BY(mu) = false;
  uint64_t random_seed NLIDB_GUARDED_BY(mu) = 0;
  std::map<std::string, uint64_t> hits NLIDB_GUARDED_BY(mu);
};

Registry& GetRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

// The count of activation sources (explicit sites + random-delay mode),
// kept in sync with the registry under its mutex.
void PublishActive(int n) {
  internal::g_active.store(n, std::memory_order_relaxed);
}

int ActiveCount(const Registry& r) NLIDB_EXCLUSIVE_LOCKS_REQUIRED(r.mu) {
  return static_cast<int>(r.sites.size()) + (r.random_delay ? 1 : 0);
}

StatusOr<Action> ParseSpec(const std::string& spec) {
  Action action;
  if (spec == "error") {
    action.kind = ActionKind::kError;
  } else if (spec == "torn_write") {
    action.kind = ActionKind::kTornWrite;
  } else if (spec == "crash") {
    action.kind = ActionKind::kCrash;
  } else if (StartsWith(spec, "delay:")) {
    action.kind = ActionKind::kDelay;
    action.delay_ms = std::atoi(spec.c_str() + 6);
    if (action.delay_ms < 0) {
      return Status::InvalidArgument("negative failpoint delay: " + spec);
    }
  } else {
    return Status::InvalidArgument("unknown failpoint action: " + spec);
  }
  return action;
}

void SleepMs(int ms) {
  if (ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// splitmix64: decorrelates (seed, site, hit) into a uniform draw.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

Action Fire(const char* site) {
  if (!AnyActive()) return Action{};
  Registry& r = GetRegistry();
  Action action;
  {
    MutexLock lock(r.mu);
    auto it = r.sites.find(site);
    if (it != r.sites.end()) {
      action = it->second;
    } else if (r.random_delay) {
      const uint64_t hit = r.hits[site]++;
      const uint64_t h = Mix(r.random_seed ^ Mix(Fnv1aHash(site) + hit));
      if (h % 8 == 0) {
        action.kind = ActionKind::kDelay;
        action.delay_ms = static_cast<int>((h >> 8) % 3);
      }
    }
  }
  if (action.kind == ActionKind::kNone) return action;
  metrics::MetricsRegistry::Global().GetCounter("failpoint.fired").Increment();
  metrics::MetricsRegistry::Global()
      .GetCounter(std::string("failpoint.") + site)
      .Increment();
  if (action.kind == ActionKind::kDelay) SleepMs(action.delay_ms);
  return action;
}

namespace internal {

Status Evaluate(const char* site) {
  const Action action = Fire(site);
  switch (action.kind) {
    case ActionKind::kNone:
    case ActionKind::kDelay:  // Fire already slept
      return Status::Ok();
    case ActionKind::kError:
    case ActionKind::kTornWrite:
      return Status::IoError(std::string("injected failpoint error at ") +
                             site);
    case ActionKind::kCrash:
      NLIDB_LOG(Error) << "failpoint crash at " << site;
      std::_Exit(134);  // hard death: no destructors, no atexit flush
  }
  return Status::Ok();
}

}  // namespace internal

Status Activate(const std::string& site, const std::string& spec) {
  StatusOr<Action> action = ParseSpec(spec);
  if (!action.ok()) return action.status();
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  r.sites[site] = *action;
  PublishActive(ActiveCount(r));
  return Status::Ok();
}

void ActivateRandomDelay(uint64_t seed) {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  r.random_delay = true;
  r.random_seed = seed;
  r.hits.clear();
  PublishActive(ActiveCount(r));
}

void Deactivate(const std::string& site) {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  r.sites.erase(site);
  PublishActive(ActiveCount(r));
}

void DeactivateAll() {
  Registry& r = GetRegistry();
  MutexLock lock(r.mu);
  r.sites.clear();
  r.random_delay = false;
  r.hits.clear();
  PublishActive(0);
}

void InitFromEnv() {
  static std::once_flag once;
  std::call_once(once, [] {
    const char* env = std::getenv("NLIDB_FAILPOINTS");
    if (env == nullptr || env[0] == '\0') return;
    for (const std::string& token : Split(env, ',')) {
      const std::string t = Strip(token);
      if (t.empty()) continue;
      if (StartsWith(t, "random-delay:")) {
        const uint64_t seed = std::strtoull(t.c_str() + 13, nullptr, 10);
        ActivateRandomDelay(seed);
        NLIDB_LOG(Info) << "failpoint random-delay schedule, seed " << seed;
        continue;
      }
      const size_t eq = t.find('=');
      if (eq == std::string::npos) {
        NLIDB_LOG(Warning) << "NLIDB_FAILPOINTS: ignoring token '" << t << "'";
        continue;
      }
      Status s = Activate(t.substr(0, eq), t.substr(eq + 1));
      if (!s.ok()) {
        NLIDB_LOG(Warning) << "NLIDB_FAILPOINTS: " << s.ToString();
      } else {
        NLIDB_LOG(Info) << "failpoint active: " << t;
      }
    }
  });
}

}  // namespace failpoint
}  // namespace nlidb
