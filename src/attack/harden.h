#ifndef NLIDB_ATTACK_HARDEN_H_
#define NLIDB_ATTACK_HARDEN_H_

// The hardening half of the adversarial flywheel: measure accuracy
// under attack, pick the worst mutator buckets, retrain with those
// mutations applied to the training corpus as augmentation, and
// re-measure — the before/after curve BENCH_attack.json commits.

#include <memory>
#include <vector>

#include "attack/mutator.h"
#include "attack/triage.h"
#include "core/pipeline.h"
#include "eval/metrics.h"

namespace nlidb {
namespace attack {

/// Deterministic offline accuracy-under-attack: sequential
/// pipeline.Query over every mutant, triaged into a matrix. No serving
/// engine, no deadlines — this isolates model robustness from load
/// effects.
AttackMatrix EvaluateUnderAttack(const core::NlidbPipeline& pipeline,
                                 const std::vector<Mutant>& mutants);

struct HardenOptions {
  /// How many of the worst mutator buckets feed back into training.
  int buckets = 2;

  /// A bucket qualifies only with at least this many answered queries.
  uint64_t min_bucket_samples = 20;

  /// Independently-salted mutation passes over the training corpus per
  /// chosen bucket. Each copy perturbs different sites/choices, so more
  /// copies mean more diverse adversarial training signal.
  int augment_copies = 2;

  /// Salt for the augmentation mutation streams, so augmentation
  /// mutants differ from the evaluation mutants even on the same seed.
  uint64_t augment_salt = 0xA06;
};

struct HardenReport {
  /// The buckets chosen for retraining (worst accuracy first).
  std::vector<MutatorKind> hardened_kinds;

  AttackMatrix baseline;          // attack matrix before hardening
  AttackMatrix hardened;          // attack matrix after hardening
  eval::AccuracyReport clean_baseline;  // clean-corpus accuracy before
  eval::AccuracyReport clean_hardened;  // clean-corpus accuracy after

  /// The retrained pipeline (same config/provider as the baseline),
  /// for callers that want to keep attacking it.
  std::unique_ptr<core::NlidbPipeline> hardened_pipeline;
};

/// Runs one flywheel turn. `baseline` must already be trained on
/// `train`; the hardened pipeline is a fresh model trained on `train`
/// plus the worst buckets' mutations of `train` (via
/// core::AugmentDataset). `attack_eval` are the evaluation mutants
/// (typically MutateCorpus over a held-out split) and `eval_clean` the
/// unmutated control split for the no-regression check.
HardenReport Harden(const core::NlidbPipeline& baseline,
                    std::shared_ptr<text::EmbeddingProvider> provider,
                    const data::Dataset& train,
                    const data::Dataset& eval_clean,
                    const std::vector<Mutant>& attack_eval,
                    const MutationEngine& engine,
                    const HardenOptions& options = HardenOptions());

}  // namespace attack
}  // namespace nlidb

#endif  // NLIDB_ATTACK_HARDEN_H_
