#ifndef NLIDB_ATTACK_SOAK_H_
#define NLIDB_ATTACK_SOAK_H_

// Open-loop adversarial soak over the ServingEngine (DESIGN.md §16).
//
// RunSoak replays a mutated corpus through the shared open-loop driver
// (serving/open_loop.h), optionally under a random-delay failpoint
// schedule, and triages every resolved ticket into the per-mutator ×
// per-stage AttackMatrix. The run doubles as a correctness gate: the
// serving counters must balance exactly. Callers set SoakOptions in code;
// bench_attack scales the run length with NLIDB_ATTACK_QUERIES.

#include <cstdint>
#include <string>
#include <vector>

#include "attack/mutator.h"
#include "attack/triage.h"
#include "core/pipeline.h"
#include "serving/open_loop.h"

namespace nlidb {
namespace attack {

struct SoakOptions {
  /// Total queries to replay (the corpus is cycled as needed).
  uint64_t queries = 20000;

  // Engine shape (mirrors ServingOptions).
  int workers = 4;
  int queue_capacity = 256;

  /// Arrival-schedule / tier-assignment seed.
  uint64_t seed = 7;

  /// When non-zero, activates the failpoint random-delay schedule for
  /// the duration of the run (unless the environment already did).
  uint64_t random_delay_seed = 0;
};

/// The driver's counter snapshot plus what the soak adds on top.
struct SoakReport : serving::OpenLoopReport {
  AttackMatrix matrix;

  /// Failpoint fires observed during the run (0 when no schedule).
  int64_t failpoints_fired = 0;

  double qps = 0.0;            // resolved queries / wall_s
  uint64_t service_ns = 0;     // calibrated sequential service time
  double offered_qps = 0.0;    // what the plan actually offered

  std::string ToString() const;
};

/// Replays `corpus` (round-robin) through the shared driver on
/// `pipeline` and exports `attack.*` metrics from the final matrix.
SoakReport RunSoak(const core::NlidbPipeline& pipeline,
                   const std::vector<Mutant>& corpus,
                   const SoakOptions& options);

}  // namespace attack
}  // namespace nlidb

#endif  // NLIDB_ATTACK_SOAK_H_
