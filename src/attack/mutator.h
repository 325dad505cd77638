#ifndef NLIDB_ATTACK_MUTATOR_H_
#define NLIDB_ATTACK_MUTATOR_H_

// Deterministic question-mutation engine (DESIGN.md "Adversarial
// robustness architecture").
//
// Each mutator takes a generated example — whose gold SQL and mention
// spans are known — and produces a perturbed copy whose spans and gold
// query stay consistent, so a mutant is simultaneously (a) adversarial
// serving traffic, (b) an evaluation record scoreable against its gold,
// and (c) a training example for the hardening loop (GoldAnnotation
// works on it unchanged).
//
// Every mutator is tagged with whether it preserves the gold answer:
// an answer-preserving mutation rewrites only the question surface
// (synonyms, dropped tokens, noise, typos), so executing the mutant's
// gold query returns exactly the original rows — the invariant
// mutator_test enforces on the seed corpus. kCounterfactualValue is the
// one non-preserving mutator: it substitutes a different cell value
// into both the question and the gold condition, changing the answer by
// design.
//
// Determinism contract: mutation draws come from per-(example, kind)
// Rng streams derived from the engine seed alone, so MutateCorpus
// yields a byte-identical mutant stream regardless of thread count,
// call order, or how many other corpora were mutated first.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "data/example.h"

namespace nlidb {
namespace attack {

/// The composable perturbation operators.
enum class MutatorKind : int {
  kSynonymSwap = 0,     // column mention -> non-canonical synonym (P_c)
  kMorphInflect,        // column mention inflected (plural-ish toggle)
  kTokenDrop,           // underspecification: a carrier token removed
  kImplicitColumn,      // explicit column wording deleted entirely
  kCounterfactualValue, // condition value swapped for another cell value
  kFillerNoise,         // filler phrases injected around the question
  kTypoCasing,          // casing flip or adjacent-char typo in a token
  kCount,
};

inline constexpr int kNumMutators = static_cast<int>(MutatorKind::kCount);

const char* MutatorName(MutatorKind kind);

/// All mutator kinds in enum order (the default attack surface).
const std::vector<MutatorKind>& AllMutators();

/// One mutated example. `example` is a full deep copy: tokens, question
/// text, mention spans, and (for non-preserving mutators) the gold query
/// are all rewritten consistently. When `applied` is false the mutator
/// found nothing to perturb and `example` equals the source.
struct Mutant {
  data::Example example;
  MutatorKind kind = MutatorKind::kSynonymSwap;
  size_t source_index = 0;  // index of the source example in its corpus
  bool applied = false;
};

struct MutationConfig {
  uint64_t seed = 1;
};

class MutationEngine {
 public:
  /// Builds the synonym lexicon (column name -> mention phrases) from
  /// every in-tree domain, so kSynonymSwap works on any generated table.
  explicit MutationEngine(MutationConfig config = MutationConfig());

  /// Applies one mutator, drawing from `rng`. Pure function of
  /// (example, kind, rng state); never mutates its input.
  Mutant Mutate(const data::Example& example, MutatorKind kind,
                Rng& rng) const;

  /// Expands a corpus into len(examples) x len(kinds) mutants, ordered
  /// example-major. Each mutant draws from an Rng seeded by
  /// (engine seed, salt, kind, example index) only — the stream is
  /// byte-identical across thread counts and call sites. `salt` makes
  /// independent expansions of the same corpus (hardening copies).
  std::vector<Mutant> MutateCorpus(const data::Dataset& dataset,
                                   const std::vector<MutatorKind>& kinds,
                                   uint64_t salt = 0) const;

  const MutationConfig& config() const { return config_; }

 private:
  std::vector<std::string> SynonymsFor(const std::string& column_name) const;

  MutationConfig config_;
  std::unordered_map<std::string, std::vector<std::string>> synonyms_;
};

/// One-kind corpus transform: every example mutated with `kind`
/// (examples the mutator cannot touch are carried over unmodified, so
/// the result has the same size and tables as `dataset`). The
/// paraphrase-bench categories and the hardening augmentation both use
/// this shape.
data::Dataset MutateDataset(const MutationEngine& engine,
                            const data::Dataset& dataset, MutatorKind kind,
                            uint64_t salt = 0);

}  // namespace attack
}  // namespace nlidb

#endif  // NLIDB_ATTACK_MUTATOR_H_
