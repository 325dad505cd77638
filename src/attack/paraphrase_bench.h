#ifndef NLIDB_ATTACK_PARAPHRASE_BENCH_H_
#define NLIDB_ATTACK_PARAPHRASE_BENCH_H_

#include <string>
#include <vector>

#include "attack/mutator.h"
#include "data/generator.h"

namespace nlidb {
namespace attack {

/// A ParaphraseBench-style corpus (Utama et al. [40]): the same patients
/// domain asked in six linguistic-variation categories. The paper
/// evaluates its WikiSQL-trained model zero-shot per category
/// (Table IV(b)); the expected degradation order is
/// naive > syntactic > morphological > lexical > semantic >> missing.
///
/// The naive, syntactic and semantic categories come from the question
/// generator's styles; lexical, morphological and missing are the
/// mutation engine's synonym-swap, inflection and implicit-column
/// mutators applied to the naive corpus — the same operators the
/// hardening loop attacks with, so the benchmark and the attack surface
/// cannot drift apart.
struct ParaphraseBenchCorpus {
  struct Category {
    data::QuestionStyle style = data::QuestionStyle::kNaive;
    data::Dataset dataset;
  };
  std::vector<Category> categories;
};

/// Generates all six categories; `config.num_tables` tables and
/// `config.questions_per_table` questions per category.
ParaphraseBenchCorpus GenerateParaphraseBench(
    const data::GeneratorConfig& config);

}  // namespace attack
}  // namespace nlidb

#endif  // NLIDB_ATTACK_PARAPHRASE_BENCH_H_
