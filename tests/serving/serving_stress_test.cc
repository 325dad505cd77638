// Serving concurrency battery, aimed at the TSan CI leg: racing
// submits, cancels and shutdowns against the ServingEngine's admission
// queue and worker pool. The engine promise under test: EVERY ticket
// resolves exactly once — completed, shed, cancelled, rejected or
// drained — no matter how submits interleave with shutdown, and the
// serving.* counter invariant holds afterwards.
//
// The pipeline here is deliberately untrained: queries resolve fast
// (ok, with any recovery failure reported in-band), which maximizes
// scheduler churn per second and keeps the suite cheap under
// sanitizers. Result correctness is the equivalence test's job.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "common/lockdep.h"
#include "common/metrics.h"
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

class ServingStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::MetricsRegistry::Global().ResetAll();
    provider_ = std::make_shared<text::EmbeddingProvider>();
    data::RegisterDomainClusters(*provider_);
    data::GeneratorConfig gc;
    gc.num_tables = 2;
    gc.questions_per_table = 2;
    gc.seed = 77;
    splits_ = std::make_unique<data::Splits>(data::GenerateWikiSqlSplits(gc));
    core::ModelConfig config = core::ModelConfig::Tiny();
    config.word_dim = provider_->dim();
    pipeline_ =
        std::make_unique<core::NlidbPipeline>(config, provider_);
  }

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

  /// serving.submitted == admitted + rejected_queue_full +
  /// rejected_shutdown, and admitted == completed + shed + cancelled.
  /// Valid whenever no submit is in flight (all tickets resolved).
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

TEST_F(ServingStressTest, RacingSubmitsAndCancelsAllResolve) {
  serving::ServingOptions options;
  options.num_workers = 4;
  options.queue_capacity = 1024;
  serving::ServingEngine engine(*pipeline_, options);

  const int kThreads = kScale;
  const int kPerThread = 16;
  std::atomic<bool> cancel{false};
  std::atomic<int> resolved{0};
  testing::RunOnThreads(kThreads, [&](int t) {
    for (int i = 0; i < kPerThread; ++i) {
      core::QueryRequest request = Request();
      // Odd submissions share a cancel flag that flips mid-run, so
      // dequeue-time cancellation races live traffic.
      if ((t + i) % 2 == 1) request.cancel = &cancel;
      serving::ServedResult served = engine.Query(std::move(request));
      // Any in-band resolution is legal under the race; what must
      // never happen is a hang (test timeout) or a crash.
      resolved.fetch_add(1, std::memory_order_relaxed);
      if (i == kPerThread / 2 && t == 0) {
        cancel.store(true, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(resolved.load(), kThreads * kPerThread);
  engine.Shutdown();
  ExpectCountersConsistent();
  EXPECT_EQ(Count("serving.submitted"),
            static_cast<uint64_t>(kThreads * kPerThread));
}

TEST_F(ServingStressTest, ZeroWorkersQueueFillsThenDrainsOnShutdown) {
  serving::ServingOptions options;
  options.num_workers = 0;  // nothing dequeues; pure admission testing
  options.queue_capacity = 4;
  serving::ServingEngine engine(*pipeline_, options);

  std::vector<std::shared_ptr<serving::ServingEngine::Ticket>> tickets;
  for (int i = 0; i < 6; ++i) tickets.push_back(engine.Submit(Request()));

  // Capacity 4: the last two submits bounce with queue-full.
  EXPECT_EQ(Count("serving.rejected_queue_full"), 2u);
  serving::ServedResult fifth = tickets[4]->Take();
  EXPECT_EQ(fifth.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(fifth.status.message(), "serving queue is full");

  // Shutdown must drain the four queued requests as cancelled, in-band.
  engine.Shutdown();
  for (int i = 0; i < 4; ++i) {
    serving::ServedResult drained = tickets[i]->Take();
    EXPECT_EQ(drained.status.code(), StatusCode::kUnavailable) << i;
    EXPECT_EQ(drained.status.message(),
              "serving engine shut down with request queued")
        << i;
  }
  EXPECT_EQ(Count("serving.cancelled"), 4u);
  EXPECT_EQ(Count("serving.completed"), 0u);
  ExpectCountersConsistent();
}

TEST_F(ServingStressTest, SubmitAfterShutdownRejectsInBand) {
  serving::ServingEngine engine(*pipeline_, serving::ServingOptions());
  engine.Shutdown();
  serving::ServedResult served = engine.Query(Request());
  EXPECT_EQ(served.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(served.status.message(), "serving engine is shut down");
  EXPECT_EQ(Count("serving.rejected_shutdown"), 1u);
  ExpectCountersConsistent();
}

TEST_F(ServingStressTest, ShutdownMidFlightResolvesEveryTicket) {
  serving::ServingOptions options;
  options.num_workers = 2;
  options.queue_capacity = 1024;
  auto engine =
      std::make_unique<serving::ServingEngine>(*pipeline_, options);

  const int kInFlight = 32 * kScale;
  std::vector<std::shared_ptr<serving::ServingEngine::Ticket>> tickets;
  for (int i = 0; i < kInFlight; ++i) {
    tickets.push_back(engine->Submit(Request()));
  }
  // Shut down while workers are still chewing through the queue; some
  // requests complete, the rest drain — every ticket must resolve.
  engine->Shutdown();
  for (auto& ticket : tickets) {
    const Status status = ticket->Take().status;
    EXPECT_TRUE(status.ok() ||
                status.code() == StatusCode::kUnavailable ||
                status.code() == StatusCode::kFailedPrecondition)
        << status.message();
  }
  engine.reset();  // destructor path: second Shutdown is a no-op
  ExpectCountersConsistent();
}

TEST_F(ServingStressTest, ConcurrentShutdownIsIdempotent) {
  serving::ServingOptions options;
  options.num_workers = 2;
  serving::ServingEngine engine(*pipeline_, options);
  for (int i = 0; i < 8; ++i) engine.Submit(Request());

  testing::RunOnThreads(4, [&engine](int) { engine.Shutdown(); });
  ExpectCountersConsistent();
}

TEST_F(ServingStressTest, ExpiredDeadlineShedsAtAdmission) {
  serving::ServingOptions options;
  options.num_workers = 1;
  serving::ServingEngine engine(*pipeline_, options);

  core::QueryRequest request = Request();
  request.deadline = Deadline::AfterNanos(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  serving::ServedResult served = engine.Query(std::move(request));
  EXPECT_EQ(served.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(served.status.message(),
            "request shed at admission: deadline cannot be met");
  EXPECT_EQ(Count("serving.shed"), 1u);
  EXPECT_EQ(Count("serving.deadline_misses"), 1u);
  engine.Shutdown();
  ExpectCountersConsistent();
}

TEST_F(ServingStressTest, InfeasibleDeadlineShedsOnServiceEstimate) {
  serving::ServingOptions options;
  options.num_workers = 1;
  serving::ServingEngine engine(*pipeline_, options);

  // One served request seeds the EWMA service estimate; its e2e time
  // bounds the service time from above.
  const serving::ServedResult seed = engine.Query(Request());
  ASSERT_EQ(Count("serving.completed"), 1u);
  ASSERT_GT(seed.e2e_ns, 0u);

  // A live deadline of ~1/8 of that request is under half the estimate:
  // shed at admission without queueing.
  core::QueryRequest tight = Request();
  tight.deadline = Deadline::AfterNanos(seed.e2e_ns / 8);
  const serving::ServedResult shed = engine.Query(std::move(tight));
  EXPECT_EQ(shed.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(shed.status.message(),
            "request shed at admission: deadline cannot be met");
  EXPECT_EQ(Count("serving.shed"), 1u);

  // A generous budget is admitted and runs to completion.
  core::QueryRequest generous = Request();
  generous.deadline = Deadline::AfterMillis(60000);
  const serving::ServedResult served = engine.Query(std::move(generous));
  EXPECT_NE(served.status.code(), StatusCode::kDeadlineExceeded)
      << served.status.message();
  EXPECT_EQ(Count("serving.completed"), 2u);
  EXPECT_EQ(Count("serving.shed"), 1u);
  engine.Shutdown();
  ExpectCountersConsistent();
}

TEST_F(ServingStressTest, TightDeadlinesUnderLoadStayInBand) {
  serving::ServingOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1024;
  serving::ServingEngine engine(*pipeline_, options);

  // One worker, a burst of short-deadline requests: some get served,
  // stragglers expire while queued and must be shed at dequeue — all
  // in-band, never a crash or a stuck ticket.
  const int kBurst = 16 * kScale;
  std::vector<std::shared_ptr<serving::ServingEngine::Ticket>> tickets;
  for (int i = 0; i < kBurst; ++i) {
    core::QueryRequest request = Request();
    request.deadline = Deadline::AfterMillis(2);
    tickets.push_back(engine.Submit(std::move(request)));
  }
  for (auto& ticket : tickets) {
    const Status status = ticket->Take().status;
    EXPECT_TRUE(status.ok() ||
                status.code() == StatusCode::kDeadlineExceeded ||
                status.code() == StatusCode::kFailedPrecondition)
        << status.message();
  }
  engine.Shutdown();
  ExpectCountersConsistent();
}

// Runs last: when the suite executes with NLIDB_DEADLOCK=on (the
// serving_stress_lockdep ctest entry and the TSan/fault CI legs), the
// whole battery above fed the lock-order graph — serving.queue,
// serving.ticket, pool.*, metrics.registry — and none of it may have
// produced an order-inversion report. Guards against
// detector false positives on the real locking discipline as much as
// against real inversions sneaking into serving.
TEST(ServingLockDiscipline, NoInversionReportsAcrossSuite) {
  if (!lockdep::Enabled()) {
    GTEST_SKIP() << "lock-discipline analyzer disabled";
  }
  for (const lockdep::Report& r : lockdep::Reports()) {
    EXPECT_NE(r.kind, lockdep::Report::Kind::kOrderInversion)
        << r.message << "\n" << r.cycle << "\n" << r.first_stack << "\n"
        << r.second_stack;
  }
}

}  // namespace
}  // namespace nlidb
