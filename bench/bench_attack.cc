// Adversarial hardening benchmark (DESIGN.md "Adversarial robustness
// architecture"): mutate a held-out corpus with every attack operator,
// triage every offline answer into the per-mutator x per-stage matrix,
// then run one hardening turn and report the before/after
// accuracy-under-attack curve.
//
// Reports, and writes to BENCH_attack.json:
//   - the offline per-mutator x per-stage failure matrices and accuracy
//     under attack per mutator, before and after hardening;
//   - the hardening curve: per-mutator accuracy baseline vs hardened,
//     worst-bucket before/after, and the clean-corpus control.
//
//   ./build/bench/bench_attack [--smoke]
//
// --smoke scales everything down (small corpus, one hardening turn with
// a low sample floor): CI's fault leg runs it under the random-delay
// failpoint schedule and uploads the JSON artifact. The committed
// BENCH_attack.json comes from a full run of the `bench_json` target.
//
// Exit status: nonzero only when the JSON cannot be written. Accuracy
// numbers are reported, not gated, since they move with seeds.

#include "bench/bench_util.h"

#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "attack/harden.h"
#include "attack/mutator.h"
#include "attack/triage.h"
#include "common/failpoint.h"

namespace nlidb {
namespace bench {
namespace {

/// Accuracy-under-attack keys for one offline matrix.
void ExportMatrix(FlatJson& json, const std::string& prefix,
                  const attack::AttackMatrix& matrix) {
  for (int r = 0; r < attack::kNumMutators; ++r) {
    if (matrix.RowTotal(r) == 0) continue;
    const std::string row =
        attack::MutatorName(static_cast<attack::MutatorKind>(r));
    for (int s = 0; s < attack::kNumStages; ++s) {
      if (matrix.counts[r][s] == 0) continue;
      json.Set(prefix + "_" + row + "_" +
                   attack::StageName(static_cast<attack::FailStage>(s)),
               static_cast<long long>(matrix.counts[r][s]));
    }
    const double acc = matrix.RowAccuracy(r);
    if (acc >= 0.0) json.Set(prefix + "_acc_" + row, acc);
  }
}

int Run(bool smoke) {
  PrintHeader("Adversarial flywheel: offline attack + hardening");
  // Nothing on this path writes a file, so arm NLIDB_FAILPOINTS here
  // (CI's fault leg runs this bench under a random-delay schedule).
  failpoint::InitFromEnv();

  BenchEnv env;
  env.provider = std::make_shared<text::EmbeddingProvider>();
  data::RegisterDomainClusters(*env.provider);
  data::GeneratorConfig gc;
  gc.num_tables = smoke ? 8 : EnvTables(24);
  gc.questions_per_table = smoke ? 4 : 8;
  gc.seed = 1;
  env.splits = data::GenerateWikiSqlSplits(gc);
  env.config = core::ModelConfig::Tiny();
  env.config.word_dim = env.provider->dim();
  auto pipeline = TrainPipeline(env);

  const attack::MutationEngine engine(attack::MutationConfig{13});

  FlatJson json;
  SetMachineKeys(json);

  // One flywheel turn on the offline matrices.
  attack::HardenOptions harden_options;
  if (smoke) harden_options.min_bucket_samples = 3;
  // Several independently-salted expansions of the held-out split: with
  // ~40 test examples a single pass puts only ~40 samples in each
  // mutator row, far too noisy to resolve a hardening delta.
  std::vector<attack::Mutant> attack_eval;
  for (uint64_t salt = 5; salt < (smoke ? 6u : 9u); ++salt) {
    std::vector<attack::Mutant> pass =
        engine.MutateCorpus(env.splits.test, attack::AllMutators(), salt);
    attack_eval.insert(attack_eval.end(),
                       std::make_move_iterator(pass.begin()),
                       std::make_move_iterator(pass.end()));
  }
  // The clean control pools both held-out splits: the no-regression
  // check needs tighter error bars than either split alone provides.
  data::Dataset clean_control = env.splits.dev;
  clean_control.tables.insert(clean_control.tables.end(),
                              env.splits.test.tables.begin(),
                              env.splits.test.tables.end());
  clean_control.examples.insert(clean_control.examples.end(),
                                env.splits.test.examples.begin(),
                                env.splits.test.examples.end());
  std::printf("\n[harden] baseline vs retrained on worst %d buckets "
              "(augmenting %zu train examples)\n",
              harden_options.buckets, env.splits.train.size());
  const attack::HardenReport harden =
      attack::Harden(*pipeline, env.provider, env.splits.train,
                     clean_control, attack_eval, engine, harden_options);

  std::printf("baseline under attack:\n%s",
              harden.baseline.Render().c_str());
  std::printf("hardened under attack:\n%s", harden.hardened.Render().c_str());
  std::printf("clean control: baseline %s | hardened %s\n",
              harden.clean_baseline.ToString().c_str(),
              harden.clean_hardened.ToString().c_str());

  std::string kinds;
  for (attack::MutatorKind kind : harden.hardened_kinds) {
    if (!kinds.empty()) kinds += ",";
    kinds += attack::MutatorName(kind);
  }
  json.SetString("attack_hardened_kinds", kinds);
  ExportMatrix(json, "attack_baseline", harden.baseline);
  ExportMatrix(json, "attack_hardened", harden.hardened);
  json.Set("attack_acc_clean_qm_baseline",
           static_cast<double>(harden.clean_baseline.acc_qm));
  json.Set("attack_acc_clean_qm_hardened",
           static_cast<double>(harden.clean_hardened.acc_qm));
  json.Set("attack_acc_clean_ex_baseline",
           static_cast<double>(harden.clean_baseline.acc_ex));
  json.Set("attack_acc_clean_ex_hardened",
           static_cast<double>(harden.clean_hardened.acc_ex));

  // The curve the flywheel exists for: the worst baseline bucket's
  // accuracy before vs after retraining, with the clean control.
  bool improved = !harden.hardened_kinds.empty();
  if (!harden.hardened_kinds.empty()) {
    const attack::MutatorKind worst = harden.hardened_kinds.front();
    const double before = harden.baseline.Accuracy(worst);
    const double after = harden.hardened.Accuracy(worst);
    improved = after >= before;
    std::printf("\nworst bucket %s: %.1f%% -> %.1f%% under attack  [%s]\n",
                attack::MutatorName(worst), 100.0 * before, 100.0 * after,
                after >= before ? "improved" : "REGRESSED");
    json.SetString("attack_worst_bucket", attack::MutatorName(worst));
    json.Set("attack_worst_acc_baseline", before);
    json.Set("attack_worst_acc_hardened", after);
  }
  const bool clean_held =
      harden.clean_hardened.acc_qm >= harden.clean_baseline.acc_qm - 0.02f;
  std::printf("clean control %s (qm %.1f%% -> %.1f%%)\n",
              clean_held ? "held" : "REGRESSED",
              100.0 * harden.clean_baseline.acc_qm,
              100.0 * harden.clean_hardened.acc_qm);
  std::printf("flywheel: %s\n",
              improved && clean_held ? "PASS" : "reported (not gated)");

  if (!json.Save(AttackJsonPath())) {
    std::printf("cannot write %s\n", AttackJsonPath());
    return 1;
  }
  std::printf("wrote %s (%zu keys)\n", AttackJsonPath(), json.size());
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace nlidb

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return nlidb::bench::Run(smoke);
}
