#ifndef NLIDB_COMMON_FAILPOINT_H_
#define NLIDB_COMMON_FAILPOINT_H_

// Fault-injection framework (DESIGN.md "Fault-tolerance architecture").
//
// Library code marks recoverable failure boundaries with named sites:
//
//   NLIDB_RETURN_IF_ERROR(NLIDB_FAILPOINT("checkpoint/after_header"));
//
// and control-flow sites (where the reaction is a fallback, not a
// Status) consult `failpoint::Fire(site)` directly. Sites are inert in
// production: with nothing activated the macro costs exactly one
// relaxed atomic load, the same discipline as trace::Enabled().
//
// Activation is programmatic (`Activate`, `ScopedFailpoint` in tests)
// or via the environment:
//
//   NLIDB_FAILPOINTS="checkpoint/commit=error,seq2seq/beam_exhausted=error"
//   NLIDB_FAILPOINTS="random-delay:12345"   # randomized CI schedule
//
// Actions: `error` (the site returns an injected IoError), `torn_write`
// (the checked-I/O layer commits a truncated file without fsync —
// elsewhere treated like `error`), `delay:<ms>` (sleep, for schedule
// perturbation), `crash` (std::_Exit, skipping destructors and atexit
// hooks — a process death mid-operation). `random-delay:<seed>` is a
// schedule mode, not a per-site action: every site hit gets a
// pseudo-random (seed, site, hit-count)-derived 0-2ms delay with
// probability 1/8. Delays never change results, so the full test suite
// must stay green under any seed.
//
// Every fire increments `failpoint.fired` and `failpoint.<site>` in the
// MetricsRegistry, so tests can assert a site was actually reached.

#include <atomic>
#include <string>

#include "common/status.h"

namespace nlidb {
namespace failpoint {

enum class ActionKind {
  kNone = 0,
  kError,      // site fails with an injected Status
  kTornWrite,  // checked-I/O commit truncates + skips fsync (else kError)
  kDelay,      // sleep delay_ms, then proceed
  kCrash,      // std::_Exit: hard process death at the site
};

struct Action {
  ActionKind kind = ActionKind::kNone;
  int delay_ms = 0;
};

namespace internal {
// Non-zero while any site is activated or random-delay mode is on. The
// relaxed load in AnyActive() is the entire cost of an inactive site.
extern std::atomic<int> g_active;

/// Slow path behind NLIDB_FAILPOINT: fires the site and converts the
/// action to a Status (kError/kTornWrite -> injected IoError, kDelay ->
/// sleep then Ok, kCrash -> process exit).
Status Evaluate(const char* site);
}  // namespace internal

/// True when any failpoint (or the random-delay schedule) is active.
inline bool AnyActive() {
  return internal::g_active.load(std::memory_order_relaxed) != 0;
}

/// Fires `site` and returns the configured action (kNone when inactive
/// or unconfigured). Increments the site's counter; executes kDelay
/// sleeps itself (returning the action afterwards) so control-flow
/// callers only need to branch on kind. Does NOT execute kCrash — the
/// caller decides; `Evaluate` and the checked-I/O layer do.
Action Fire(const char* site);

/// Activates `site` with a spec: "error" | "torn_write" | "crash" |
/// "delay:<ms>". InvalidArgument on a malformed spec.
Status Activate(const std::string& site, const std::string& spec);

/// Activates the random-delay schedule mode programmatically — the same
/// mode NLIDB_FAILPOINTS="random-delay:<seed>" enables from the
/// environment. Resets the per-site hit counts, so a seed replays the
/// same fire pattern. Deactivated by DeactivateAll().
void ActivateRandomDelay(uint64_t seed);

/// Deactivates one site / all sites (and random-delay mode).
void Deactivate(const std::string& site);
void DeactivateAll();

/// Parses NLIDB_FAILPOINTS once (comma-separated site=spec tokens plus
/// the optional "random-delay:<seed>" mode). Safe to call repeatedly
/// from every site-hosting entry point; malformed tokens are logged and
/// skipped rather than aborting startup.
void InitFromEnv();

/// RAII activation for tests: activates in the constructor, deactivates
/// in the destructor.
class ScopedFailpoint {
 public:
  ScopedFailpoint(std::string site, const std::string& spec)
      : site_(std::move(site)) {
    Status s = Activate(site_, spec);
    Status::IgnoreError(s);  // malformed specs are programming errors in tests
  }
  ~ScopedFailpoint() { Deactivate(site_); }
  ScopedFailpoint(const ScopedFailpoint&) = delete;
  ScopedFailpoint& operator=(const ScopedFailpoint&) = delete;

 private:
  std::string site_;
};

}  // namespace failpoint
}  // namespace nlidb

/// Status-returning injection site. One relaxed atomic load when no
/// failpoint is active.
#define NLIDB_FAILPOINT(site)                  \
  (::nlidb::failpoint::AnyActive()             \
       ? ::nlidb::failpoint::internal::Evaluate(site) \
       : ::nlidb::Status::Ok())

#endif  // NLIDB_COMMON_FAILPOINT_H_
