// Serving fault-injection suite: failpoints and schedule perturbation
// against the ServingEngine. Demonstrates that under injected decode
// errors, injected decode delays, racing cancels and expired deadlines,
// the engine never aborts — every fault surfaces in-band (shed /
// Status) — and the serving.* counters stay consistent:
//   serving.submitted == admitted + rejected_queue_full
//                        + rejected_shutdown
//   serving.admitted  == completed + shed + cancelled
//
// Like failpoint_test, this suite manages failpoints explicitly and
// starts from a clean registry so its exact-count assertions hold under
// the randomized-delay CI leg with any seed. (That leg's random-delay
// schedule still soaks the OTHER serving binaries — the equivalence and
// stress suites do not deactivate it.)

#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "data/generator.h"
#include "serving/serving.h"
#include "testing/threads.h"

namespace nlidb {
namespace {

#if defined(NLIDB_SANITIZER_BUILD)
constexpr int kScale = 2;
#else
constexpr int kScale = 8;
#endif

class CleanFailpointEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    failpoint::InitFromEnv();
    failpoint::DeactivateAll();
  }
};
const auto* const kCleanEnv =
    ::testing::AddGlobalTestEnvironment(new CleanFailpointEnv);

class ServingFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::MetricsRegistry::Global().ResetAll();
    provider_ = std::make_shared<text::EmbeddingProvider>();
    data::RegisterDomainClusters(*provider_);
    data::GeneratorConfig gc;
    gc.num_tables = 2;
    gc.questions_per_table = 2;
    gc.seed = 55;
    splits_ = std::make_unique<data::Splits>(data::GenerateWikiSqlSplits(gc));
    core::ModelConfig config = core::ModelConfig::Tiny();
    config.word_dim = provider_->dim();
    pipeline_ = std::make_unique<core::NlidbPipeline>(config, provider_);
  }

  void TearDown() override { failpoint::DeactivateAll(); }

  core::QueryRequest Request() const {
    const data::Example& ex = splits_->train.examples.front();
    core::QueryRequest request;
    request.schema_ref = core::SchemaRef::Table(ex.table.get());
    request.tokens = ex.tokens;
    return request;
  }

  static uint64_t Count(const char* name) {
    return metrics::MetricsRegistry::Global().GetCounter(name).Value();
  }

  static void ExpectCountersConsistent() {
    EXPECT_EQ(Count("serving.submitted"),
              Count("serving.admitted") + Count("serving.rejected_queue_full") +
                  Count("serving.rejected_shutdown"));
    EXPECT_EQ(Count("serving.admitted"),
              Count("serving.completed") + Count("serving.shed") +
                  Count("serving.cancelled"));
  }

  std::shared_ptr<text::EmbeddingProvider> provider_;
  std::unique_ptr<data::Splits> splits_;
  std::unique_ptr<core::NlidbPipeline> pipeline_;
};

TEST_F(ServingFaultTest, DecodeErrorFailsEveryTicketInBand) {
  failpoint::ScopedFailpoint fp("seq2seq/decode", "error");

  serving::ServingOptions options;
  options.num_workers = 2;
  serving::ServingEngine engine(*pipeline_, options);
  std::vector<std::shared_ptr<serving::ServingEngine::Ticket>> tickets;
  for (int i = 0; i < 4; ++i) tickets.push_back(engine.Submit(Request()));
  for (auto& ticket : tickets) {
    serving::ServedResult served = ticket->Take();
    // The injected status comes back on the ticket: no retry, no abort.
    EXPECT_EQ(served.status.code(), StatusCode::kIoError);
    EXPECT_NE(served.status.message().find("seq2seq/decode"),
              std::string::npos)
        << served.status.message();
  }
  EXPECT_EQ(Count("failpoint.seq2seq/decode"), 4u);
  engine.Shutdown();
  EXPECT_EQ(Count("serving.completed"), 4u);
  ExpectCountersConsistent();
}

TEST_F(ServingFaultTest, DelaySoakWithRacingCancelsStaysInBand) {
  // Perturb the decode schedule at the decode site (every decode hits
  // it) while submitters race cancels and tight deadlines: the serving
  // analogue of the CI random-delay leg, with the injected delay pinned
  // so the test is seed-independent.
  ASSERT_TRUE(failpoint::Activate("seq2seq/decode", "delay:1").ok());

  serving::ServingOptions options;
  options.num_workers = 4;
  options.queue_capacity = 1024;
  serving::ServingEngine engine(*pipeline_, options);

  const int kThreads = kScale;
  const int kPerThread = 12;
  std::atomic<bool> cancel{false};
  std::atomic<int> in_band{0};
  testing::RunOnThreads(kThreads, [&](int t) {
    Rng rng(900 + static_cast<uint64_t>(t));
    for (int i = 0; i < kPerThread; ++i) {
      core::QueryRequest request = Request();
      const float roll = rng.NextFloat();
      if (roll < 0.25f) {
        request.deadline = Deadline::AfterMillis(1 + (i % 3));
      } else if (roll < 0.5f) {
        request.cancel = &cancel;
      }
      serving::ServedResult served = engine.Query(std::move(request));
      const StatusCode code = served.status.code();
      if (served.status.ok() || code == StatusCode::kDeadlineExceeded ||
          code == StatusCode::kUnavailable) {
        in_band.fetch_add(1, std::memory_order_relaxed);
      } else {
        ADD_FAILURE() << "out-of-band status: " << served.status.message();
      }
      if (t == 0 && i == kPerThread / 2) {
        cancel.store(true, std::memory_order_relaxed);
      }
    }
  });
  engine.Shutdown();

  EXPECT_EQ(in_band.load(), kThreads * kPerThread);
  EXPECT_GT(Count("failpoint.seq2seq/decode"), 0u);
  ExpectCountersConsistent();
}

TEST_F(ServingFaultTest, CountersDecomposeExactlyOverMixedOutcomes) {
  serving::ServingOptions options;
  options.num_workers = 0;  // manual control over every outcome class
  options.queue_capacity = 3;
  auto engine =
      std::make_unique<serving::ServingEngine>(*pipeline_, options);

  // One shed at admission (expired deadline).
  core::QueryRequest expired = Request();
  expired.deadline = Deadline::AfterNanos(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(engine->Query(std::move(expired)).status.code(),
            StatusCode::kDeadlineExceeded);

  // Three queued, one bounced off the full queue.
  std::vector<std::shared_ptr<serving::ServingEngine::Ticket>> queued;
  for (int i = 0; i < 3; ++i) queued.push_back(engine->Submit(Request()));
  EXPECT_EQ(engine->Query(Request()).status.code(), StatusCode::kUnavailable);

  // Shutdown drains the three as cancelled; one more bounces off the
  // shut-down engine.
  engine->Shutdown();
  for (auto& ticket : queued) {
    EXPECT_EQ(ticket->Take().status.code(), StatusCode::kUnavailable);
  }
  EXPECT_EQ(engine->Query(Request()).status.code(), StatusCode::kUnavailable);
  engine.reset();

  EXPECT_EQ(Count("serving.submitted"), 6u);
  EXPECT_EQ(Count("serving.admitted"), 4u);  // 1 shed + 3 queued
  EXPECT_EQ(Count("serving.rejected_queue_full"), 1u);
  EXPECT_EQ(Count("serving.rejected_shutdown"), 1u);
  EXPECT_EQ(Count("serving.completed"), 0u);
  EXPECT_EQ(Count("serving.shed"), 1u);
  EXPECT_EQ(Count("serving.cancelled"), 3u);
  EXPECT_EQ(Count("serving.deadline_misses"), 1u);
  ExpectCountersConsistent();
}

}  // namespace
}  // namespace nlidb
