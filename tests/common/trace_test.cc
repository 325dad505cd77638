// Tests for the RAII tracing substrate (src/common/trace.h): disabled
// no-op behavior, span nesting, parent re-installation, sink swapping,
// the JSON-lines sink's output format, and the one-timer contract (one
// duration feeds record, stage tree and histogram).

#include "common/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace nlidb {
namespace trace {
namespace {

// Every test restores the no-sink default so suites compose.
class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override { SetSink(nullptr); }
};

TEST_F(TraceTest, DisabledSpansAreInertAndFree) {
  ASSERT_EQ(CurrentSink(), nullptr);
  EXPECT_FALSE(Enabled());
  TraceSpan span("test.disabled");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(CurrentSpanId(), 0);  // disabled spans never become parent
  span.Annotate("key", std::string("value"));
  span.Annotate("count", int64_t{7});
}

TEST_F(TraceTest, EnabledWhenSinkInstalled) {
  auto sink = std::make_shared<InMemorySink>();
  SetSink(sink);
  EXPECT_TRUE(Enabled());
  { TraceSpan span("test.enabled"); EXPECT_TRUE(span.active()); }
  SetSink(nullptr);
  EXPECT_FALSE(Enabled());
  ASSERT_EQ(sink->Records().size(), 1u);
  EXPECT_EQ(sink->Records()[0].name, "test.enabled");
}

TEST_F(TraceTest, NestedSpansFormATree) {
  auto sink = std::make_shared<InMemorySink>();
  SetSink(sink);
  int outer_id = 0;
  {
    TraceSpan outer("test.outer");
    outer_id = CurrentSpanId();
    EXPECT_GT(outer_id, 0);
    {
      TraceSpan inner("test.inner");
      EXPECT_NE(CurrentSpanId(), outer_id);
      inner.Annotate("depth", int64_t{2});
    }
    EXPECT_EQ(CurrentSpanId(), outer_id);  // parent restored
  }
  EXPECT_EQ(CurrentSpanId(), 0);
  const auto records = sink->Records();
  ASSERT_EQ(records.size(), 2u);  // completion order: inner first
  EXPECT_EQ(records[0].name, "test.inner");
  EXPECT_EQ(records[0].parent_id, outer_id);
  ASSERT_EQ(records[0].annotations.size(), 1u);
  EXPECT_EQ(records[0].annotations[0].first, "depth");
  EXPECT_EQ(records[0].annotations[0].second, "2");
  EXPECT_EQ(records[1].name, "test.outer");
  EXPECT_EQ(records[1].span_id, outer_id);
  EXPECT_EQ(records[1].parent_id, 0);
  EXPECT_GT(records[1].span_id, 0);
  EXPECT_NE(records[0].span_id, records[1].span_id);
  // The outer span covers the inner one.
  EXPECT_LE(records[1].start_ns, records[0].start_ns);
  EXPECT_GE(records[1].start_ns + records[1].duration_ns,
            records[0].start_ns + records[0].duration_ns);
}

TEST_F(TraceTest, ScopedParentInstallsAndRestores) {
  EXPECT_EQ(CurrentSpanId(), 0);
  {
    ScopedParent parent(42);
    EXPECT_EQ(CurrentSpanId(), 42);
    {
      ScopedParent nested(7);
      EXPECT_EQ(CurrentSpanId(), 7);
    }
    EXPECT_EQ(CurrentSpanId(), 42);
  }
  EXPECT_EQ(CurrentSpanId(), 0);
}

TEST_F(TraceTest, SetSinkReturnsPreviousSink) {
  auto first = std::make_shared<InMemorySink>();
  auto second = std::make_shared<InMemorySink>();
  EXPECT_EQ(SetSink(first), nullptr);
  EXPECT_EQ(SetSink(second), first);
  { TraceSpan span("test.second"); }
  EXPECT_EQ(SetSink(nullptr), second);
  EXPECT_TRUE(first->Records().empty());
  ASSERT_EQ(second->Records().size(), 1u);
}

TEST_F(TraceTest, InMemorySinkClear) {
  auto sink = std::make_shared<InMemorySink>();
  SetSink(sink);
  { TraceSpan span("test.one"); }
  ASSERT_EQ(sink->Records().size(), 1u);
  sink->Clear();
  EXPECT_TRUE(sink->Records().empty());
}

TEST_F(TraceTest, JsonLinesSinkWritesOneObjectPerSpan) {
  const std::string path =
      std::string(::testing::TempDir()) + "/trace_test_spans.jsonl";
  {
    auto sink = std::make_shared<JsonLinesSink>(path);
    ASSERT_TRUE(sink->ok());
    SetSink(sink);
    {
      TraceSpan span("test.json");
      span.Annotate("quoted", std::string("a \"b\" c"));
    }
    SetSink(nullptr);  // drops the last reference: flush + close
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"name\":\"test.json\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"duration_ns\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"quoted\":\"a \\\"b\\\" c\""), std::string::npos)
      << line;
  EXPECT_FALSE(std::getline(in, line)) << "expected exactly one span line";
  std::remove(path.c_str());
}

TEST_F(TraceTest, JsonLinesSinkReportsUnopenableFile) {
  JsonLinesSink sink("/nonexistent_dir_xyz/trace.jsonl");
  EXPECT_FALSE(sink.ok());
  SpanRecord record;
  record.name = "dropped";
  sink.OnSpanEnd(record);  // must not crash
}

metrics::Histogram& HistogramNamed(const char* name) {
  return metrics::MetricsRegistry::Global().GetHistogram(name);
}

TEST_F(TraceTest, OneDurationFeedsRecordTreeAndHistogram) {
  metrics::Histogram& hist = HistogramNamed("test.one_timer_ns");
  const int64_t count_before = hist.Count();
  const int64_t sum_before = hist.SumNs();
  auto sink = std::make_shared<InMemorySink>();
  SetSink(sink);
  StageTiming tree;
  { TraceSpan span("test.one_timer", &tree); }
  SetSink(nullptr);

  const auto records = sink->Records();
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(tree.children.size(), 1u);
  EXPECT_EQ(tree.children[0].name, "one_timer");  // last dotted component
  EXPECT_EQ(tree.children[0].wall_ns, records[0].duration_ns);
  EXPECT_EQ(hist.Count(), count_before + 1);
  EXPECT_EQ(static_cast<uint64_t>(hist.SumNs() - sum_before),
            records[0].duration_ns);
}

TEST_F(TraceTest, SpanWithoutSinkOrTreeStillFeedsItsHistogram) {
  ASSERT_FALSE(Enabled());
  metrics::Histogram& hist = HistogramNamed("test.untraced_ns");
  const int64_t before = hist.Count();
  { TraceSpan span("test.untraced"); }
  EXPECT_EQ(hist.Count(), before + 1);
  { TraceSpan span("test.untraced"); }  // cached histogram, same instance
  EXPECT_EQ(hist.Count(), before + 2);
}

TEST_F(TraceTest, EndClosesOnceAndKeepsTheSpanAsParent) {
  metrics::Histogram& hist = HistogramNamed("test.ended_ns");
  const int64_t before = hist.Count();
  auto sink = std::make_shared<InMemorySink>();
  SetSink(sink);
  StageTiming tree;
  int ended_id = 0;
  {
    TraceSpan span("test.ended", &tree);
    ended_id = CurrentSpanId();
    const uint64_t duration = span.End();
    EXPECT_EQ(span.End(), duration);
    // Still the current parent: a span opened after End nests under it.
    EXPECT_EQ(CurrentSpanId(), ended_id);
    { TraceSpan inner("test.after_end"); }
  }
  EXPECT_EQ(CurrentSpanId(), 0);
  SetSink(nullptr);

  EXPECT_EQ(hist.Count(), before + 1);
  EXPECT_EQ(tree.children.size(), 1u);
  const auto records = sink->Records();
  ASSERT_EQ(records.size(), 2u);  // End emitted the outer span first
  EXPECT_EQ(records[0].name, "test.ended");
  EXPECT_EQ(records[1].name, "test.after_end");
  EXPECT_EQ(records[1].parent_id, ended_id);
}

TEST_F(TraceTest, NowNsIsMonotonic) {
  const uint64_t a = NowNs();
  const uint64_t b = NowNs();
  EXPECT_GE(b, a);
}

}  // namespace
}  // namespace trace
}  // namespace nlidb
