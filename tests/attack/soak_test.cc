// Adversarial soak acceptance test: a scaled-down version of the
// bench_attack soak — mutated traffic, Poisson pacing, mixed deadline
// tiers, random-delay failpoint schedule — with the full correctness
// gate asserted: every submitted query triaged exactly once, the
// serving counter decomposition exactly balanced.

#include "attack/soak.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/pipeline.h"
#include "data/generator.h"

namespace nlidb {
namespace attack {
namespace {

#if defined(NLIDB_SANITIZER_BUILD)
constexpr uint64_t kQueries = 600;
#else
constexpr uint64_t kQueries = 2000;
#endif

class SoakTest : public ::testing::Test {
 protected:
  void SetUp() override {
    provider_ = std::make_shared<text::EmbeddingProvider>();
    data::RegisterDomainClusters(*provider_);
    data::GeneratorConfig gc;
    gc.num_tables = 2;
    gc.questions_per_table = 3;
    gc.seed = 41;
    splits_ = std::make_unique<data::Splits>(data::GenerateWikiSqlSplits(gc));
    core::ModelConfig config = core::ModelConfig::Tiny();
    config.word_dim = provider_->dim();
    pipeline_ = std::make_unique<core::NlidbPipeline>(config, provider_);
    pipeline_->Train(splits_->train);
  }

  std::shared_ptr<text::EmbeddingProvider> provider_;
  std::unique_ptr<data::Splits> splits_;
  std::unique_ptr<core::NlidbPipeline> pipeline_;
};

TEST_F(SoakTest, SoakBalancesCountersAndTriagesEveryQuery) {
  const MutationEngine engine(MutationConfig{3});
  const std::vector<Mutant> corpus =
      engine.MutateCorpus(splits_->train, AllMutators(), /*salt=*/0);
  ASSERT_FALSE(corpus.empty());

  // 4 workers is the soak's default; 1 and 8 keep the open-loop
  // driver's counter balance covered at both ends of the engine's size.
  for (int workers : {1, 4, 8}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    SoakOptions options;
    options.queries = kQueries;
    options.workers = workers;
    options.queue_capacity = 64;
    options.seed = 19;
    options.random_delay_seed = 11;
    const SoakReport report = RunSoak(*pipeline_, corpus, options);

    // Open-loop accounting: every planned arrival was submitted, and the
    // serving decomposition identities hold exactly.
    EXPECT_EQ(report.submitted, static_cast<int64_t>(kQueries));
    EXPECT_TRUE(report.counters_balanced) << report.ToString();
    EXPECT_EQ(report.submitted, report.admitted + report.rejected_queue_full +
                                    report.rejected_shutdown);
    EXPECT_EQ(report.admitted,
              report.completed + report.shed + report.cancelled);
    EXPECT_GT(report.completed, 0) << report.ToString();

    // Every submitted query was triaged into exactly one matrix cell; the
    // clean row stays empty (this run replays only mutants).
    uint64_t triaged = 0;
    for (int r = 0; r < kNumMutators; ++r) {
      triaged += report.matrix.RowTotal(r);
    }
    EXPECT_EQ(triaged, kQueries);
    EXPECT_EQ(report.matrix.RowTotal(AttackMatrix::kCleanRow), 0u);

    // The calibration pilot ran and the pacing plan was real.
    EXPECT_GT(report.service_ns, 0u);
    EXPECT_GT(report.offered_qps, 0.0);
    EXPECT_GT(report.wall_s, 0.0);

    // The random-delay schedule perturbed at least one failpoint site
    // over thousands of site hits (p=1/8 per hit).
    EXPECT_GT(report.failpoints_fired, 0) << report.ToString();
  }
}

TEST_F(SoakTest, EmptyInputsYieldEmptyReport) {
  const SoakReport no_corpus = RunSoak(*pipeline_, {}, SoakOptions());
  EXPECT_EQ(no_corpus.submitted, 0);
  EXPECT_FALSE(no_corpus.counters_balanced);

  const MutationEngine engine(MutationConfig{3});
  const std::vector<Mutant> corpus =
      engine.MutateCorpus(splits_->train, {MutatorKind::kFillerNoise}, 0);
  SoakOptions zero;
  zero.queries = 0;
  EXPECT_EQ(RunSoak(*pipeline_, corpus, zero).submitted, 0);
}

}  // namespace
}  // namespace attack
}  // namespace nlidb
