#ifndef NLIDB_SERVING_OPEN_LOOP_H_
#define NLIDB_SERVING_OPEN_LOOP_H_

// The open-loop load driver over the ServingEngine (DESIGN.md §13) that
// the adversarial soak (attack/soak.h) replays its traffic through: one
// generator thread, an absolute-time Poisson schedule, deadline tiers
// 35% none / 50% generous (400x service) / 15% infeasibly tight
// (service/4), and a bounded in-flight window. Callers pin
// ThreadPool::SetGlobalParallelism(1): the engine's workers are the
// concurrency under test.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "serving/serving.h"

namespace nlidb {
namespace serving {

/// Serving counters after shutdown, plus the run's wall clock.
struct OpenLoopReport {
  int64_t submitted = 0;
  int64_t admitted = 0;
  int64_t rejected_queue_full = 0;
  int64_t rejected_shutdown = 0;
  int64_t completed = 0;
  int64_t shed = 0;
  int64_t cancelled = 0;
  int64_t deadline_misses = 0;

  /// submitted == admitted + rejected_*, and
  /// admitted == completed + shed + cancelled.
  bool counters_balanced = false;

  double wall_s = 0.0;    // schedule start -> last ticket resolved
  double submit_s = 0.0;  // schedule start -> last submit returned

  /// The two identities with their values, one line.
  std::string ToString() const;
};

/// Mean sequential `pipeline.Query` time over the first 32 requests;
/// scales offered loads and deadline tiers (and warms caches).
uint64_t CalibrateServiceNs(const core::NlidbPipeline& pipeline,
                            const std::vector<core::QueryRequest>& requests);

/// Submits `count` requests, cycling through `requests`, to a fresh
/// engine at Poisson rate `offered_qps` drawn from `seed`. `service_ns`
/// (at least 1) scales the deadline tiers. `on_result(i, r)`
/// runs on the generator thread for every request, `i` indexing
/// `requests`. Resets the global metrics registry at entry.
OpenLoopReport RunOpenLoop(
    const core::NlidbPipeline& pipeline,
    const std::vector<core::QueryRequest>& requests, uint64_t count,
    const ServingOptions& engine_options, double offered_qps, uint64_t seed,
    uint64_t service_ns,
    const std::function<void(size_t, const ServedResult&)>& on_result);

}  // namespace serving
}  // namespace nlidb

#endif  // NLIDB_SERVING_OPEN_LOOP_H_
