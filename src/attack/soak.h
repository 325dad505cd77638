#ifndef NLIDB_ATTACK_SOAK_H_
#define NLIDB_ATTACK_SOAK_H_

// Open-loop adversarial soak over the ServingEngine.
//
// RunSoak replays a mutated corpus as paced open-loop traffic — Poisson
// arrivals, mixed deadline tiers, optional random-delay failpoint
// schedule — through a fresh engine, triaging every resolved ticket into
// the per-mutator × per-stage AttackMatrix as it completes. A sliding
// ticket window keeps memory bounded, so `queries` scales from the
// 10k-query acceptance run to millions with the same knobs
// (NLIDB_ATTACK_*, see README.md).
//
// The run doubles as a correctness gate: afterwards the serving counter
// decomposition must balance exactly (submitted == admitted +
// rejected_*; admitted == completed + shed + cancelled) and, when the
// lockdep detector is live, zero inversion reports may have fired.

#include <cstdint>
#include <string>
#include <vector>

#include "attack/mutator.h"
#include "attack/triage.h"
#include "core/pipeline.h"

namespace nlidb {
namespace attack {

struct SoakOptions {
  /// Total queries to replay (the corpus is cycled as needed).
  uint64_t queries = 20000;

  // Engine shape (mirrors ServingOptions).
  int workers = 4;
  int queue_capacity = 256;

  /// Offered load. 0 auto-calibrates: a short sequential pilot measures
  /// the mean service time and the soak offers ~1.1x the worker pool's
  /// resulting capacity — enough overload that shedding and queue
  /// pressure stay exercised without sheds dominating.
  double offered_qps = 0.0;

  /// Deadline tier mix (fractions of traffic; the remainder is the
  /// infeasibly tight tier). Generous = 400x service, tight = service/4.
  double frac_no_deadline = 0.35;
  double frac_generous = 0.50;

  /// Arrival-schedule / tier-assignment seed.
  uint64_t seed = 7;

  /// When non-zero, activates the failpoint random-delay schedule for
  /// the duration of the run (unless the environment already did).
  uint64_t random_delay_seed = 0;

  /// Defaults overridden by NLIDB_ATTACK_QUERIES / _WORKERS /
  /// _QUEUE_CAP / _QPS / _SEED / _DELAY_SEED.
  static SoakOptions FromEnv();
};

struct SoakReport {
  AttackMatrix matrix;

  // Serving counters after shutdown.
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t rejected_queue_full = 0;
  int64_t rejected_shutdown = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t cancelled = 0;
  int64_t deadline_misses = 0;

  /// Both decomposition identities held exactly.
  bool counters_balanced = false;

  /// Lockdep findings during the run (-1: detector not enabled).
  int lockdep_reports = -1;

  /// Failpoint fires observed during the run (0 when no schedule).
  int64_t failpoints_fired = 0;

  double wall_s = 0.0;
  double qps = 0.0;            // resolved queries / wall_s
  uint64_t service_ns = 0;     // calibrated sequential service time
  double offered_qps = 0.0;    // what the plan actually offered

  std::string ToString() const;
};

/// Replays `corpus` (round-robin) through a fresh engine on `pipeline`.
/// Resets the global metrics registry at entry; exports `attack.*`
/// metrics from the final matrix before returning. The caller should
/// pin ThreadPool::SetGlobalParallelism(1) around serving runs (the
/// engine's workers are the concurrency under test).
SoakReport RunSoak(const core::NlidbPipeline& pipeline,
                   const std::vector<Mutant>& corpus,
                   const SoakOptions& options);

}  // namespace attack
}  // namespace nlidb

#endif  // NLIDB_ATTACK_SOAK_H_
