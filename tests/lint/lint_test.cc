// Rule-fixture tests for the nlidb_lint checker (tools/lint_rules.cc).
//
// Every rule is exercised three ways against committed fixture files in
// tests/lint/fixtures/: a positive hit, the same violation waived by a
// `nlidb-lint: disable(rule)` comment, and a clean file. The suite ends
// by asserting the real tree lints clean, which is the same gate CI
// applies through the `nlidb_lint_tree` ctest entry.

#include "tools/lint_rules.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace nlidb {
namespace lint {
namespace {

std::string RepoRoot() { return std::string(NLIDB_TEST_SOURCE_DIR) + "/.."; }

// `rel` is repo-relative ("tests/lint/fixtures/clean.cc"); findings use
// the same relative path the CLI would print.
SourceFile Load(const std::string& rel) {
  SourceFile file;
  const bool ok = LoadSourceFile(RepoRoot() + "/" + rel, rel, &file);
  EXPECT_TRUE(ok) << "cannot read fixture " << rel;
  return file;
}

std::vector<Finding> Lint(const std::vector<std::string>& rels) {
  std::vector<SourceFile> files;
  for (const std::string& rel : rels) files.push_back(Load(rel));
  return LintFiles(files);
}

std::vector<std::string> Rules(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

int CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  const std::vector<std::string> rules = Rules(findings);
  return static_cast<int>(std::count(rules.begin(), rules.end(), rule));
}

TEST(LintTest, CleanFileHasNoFindings) {
  // clean.cc names std::thread / rand() / #pragma once in comments and
  // string literals only; the stripper must keep those from firing.
  EXPECT_TRUE(Lint({"tests/lint/fixtures/clean.cc"}).empty());
}

TEST(LintTest, RawThreadHit) {
  const auto findings = Lint({"tests/lint/fixtures/raw_thread_hit.cc"});
  EXPECT_EQ(CountRule(findings, "raw-thread"), 3);  // thread, async, pthread_
  EXPECT_EQ(static_cast<int>(findings.size()),
            CountRule(findings, "raw-thread"));
}

TEST(LintTest, RawThreadScopeAndExemptions) {
  const std::string spawn =
      "#include <thread>\n"
      "void F() { std::thread t([] {}); t.join(); }\n";
  // The serving engine and the test helper own every thread.
  for (const char* path :
       {"src/serving/serving.h", "tests/testing/threads.h"}) {
    EXPECT_EQ(CountRule(LintFiles({LoadSource(path, spawn)}), "raw-thread"),
              0)
        << path;
  }
  // Every other file, tests and benches included, may not.
  for (const char* path :
       {"src/serving/serving.cc", "src/tensor/tensor.cc",
        "tests/testing/trace.cc", "bench/bench_foo.cc"}) {
    EXPECT_EQ(CountRule(LintFiles({LoadSource(path, spawn)}), "raw-thread"),
              1)
        << path;
  }
}

TEST(LintTest, RawThreadSuppressedSameLineAndPrecedingLine) {
  EXPECT_TRUE(Lint({"tests/lint/fixtures/raw_thread_suppressed.cc"}).empty());
}

TEST(LintTest, RawRandomHit) {
  const auto findings = Lint({"tests/lint/fixtures/raw_random_hit.cc"});
  EXPECT_EQ(CountRule(findings, "raw-random"), 3);  // device, srand, rand
}

TEST(LintTest, RawRandomSuppressed) {
  EXPECT_TRUE(Lint({"tests/lint/fixtures/raw_random_suppressed.cc"}).empty());
}

TEST(LintTest, MutexUnguardedHit) {
  const auto findings = Lint({"tests/lint/fixtures/mutex_unguarded_hit.h"});
  ASSERT_EQ(CountRule(findings, "mutex-unguarded"), 1);
  // The same bare field is also a coverage gap of the owning class.
  EXPECT_EQ(CountRule(findings, "mutex-coverage"), 1);
  for (const Finding& f : findings) {
    if (f.rule == "mutex-unguarded") {
      EXPECT_NE(f.message.find("mu_"), std::string::npos);
    }
  }
}

TEST(LintTest, MutexUnguardedSuppressedAndAnnotatedClean) {
  EXPECT_TRUE(
      Lint({"tests/lint/fixtures/mutex_unguarded_suppressed.h"}).empty());
  EXPECT_TRUE(Lint({"tests/lint/fixtures/mutex_guarded_clean.h"}).empty());
}

TEST(LintTest, NakedLockHit) {
  const auto findings = Lint({"tests/lint/fixtures/naked_lock_hit.cc"});
  // Lock(), Unlock(), lock(), unlock() — one finding each.
  EXPECT_EQ(CountRule(findings, "naked-lock"), 4);
  EXPECT_EQ(static_cast<int>(findings.size()),
            CountRule(findings, "naked-lock"));
}

TEST(LintTest, NakedLockSuppressedSameLineAndPrecedingLine) {
  EXPECT_TRUE(Lint({"tests/lint/fixtures/naked_lock_suppressed.cc"}).empty());
}

TEST(LintTest, NakedLockExemptsMutexWrapper) {
  const std::string body = "void F(std::mutex& m) { m.lock(); m.unlock(); }\n";
  EXPECT_EQ(CountRule(LintFiles({LoadSource("src/common/mutex.h", body)}),
                      "naked-lock"),
            0);
  EXPECT_EQ(CountRule(LintFiles({LoadSource("src/serving/serving.cc", body)}),
                      "naked-lock"),
            1);
}

TEST(LintTest, MutexCoverageHit) {
  const auto findings = Lint({"tests/lint/fixtures/mutex_coverage_hit.h"});
  // pending_ and label_ lack annotations; total_ is covered.
  ASSERT_EQ(CountRule(findings, "mutex-coverage"), 2);
  EXPECT_EQ(static_cast<int>(findings.size()),
            CountRule(findings, "mutex-coverage"));
  for (const Finding& f : findings) {
    EXPECT_NE(f.message.find("Ledger"), std::string::npos);
  }
}

TEST(LintTest, MutexCoverageSuppressedAndClean) {
  EXPECT_TRUE(
      Lint({"tests/lint/fixtures/mutex_coverage_suppressed.h"}).empty());
  EXPECT_TRUE(Lint({"tests/lint/fixtures/mutex_coverage_clean.h"}).empty());
}

TEST(LintTest, IncludeGuardMissing) {
  const auto findings = Lint({"tests/lint/fixtures/guard_missing.h"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-guard");
  EXPECT_EQ(findings[0].line, 1);
}

TEST(LintTest, IncludeGuardPragmaOnce) {
  const auto findings = Lint({"tests/lint/fixtures/guard_pragma_once.h"});
  EXPECT_EQ(CountRule(findings, "include-guard"), 2);  // pragma + no guard
}

TEST(LintTest, IncludeGuardWrongName) {
  const auto findings = Lint({"tests/lint/fixtures/guard_wrong_name.h"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-guard");
  EXPECT_NE(findings[0].message.find("SOME_OTHER_GUARD_H"),
            std::string::npos);
}

TEST(LintTest, IncludeGuardSuppressed) {
  EXPECT_TRUE(Lint({"tests/lint/fixtures/guard_suppressed.h"}).empty());
}

TEST(LintTest, KernelWallClockHit) {
  const auto findings =
      Lint({"tests/lint/fixtures/wallclock_hit/gemm_tiles.h"});
  EXPECT_GE(CountRule(findings, "kernel-wall-clock"), 2);  // chrono + time()
}

TEST(LintTest, KernelWallClockSuppressed) {
  EXPECT_TRUE(
      Lint({"tests/lint/fixtures/wallclock_suppressed/gemm_tiles.h"})
          .empty());
}

TEST(LintTest, RawTimingHit) {
  const auto findings = Lint({"tests/lint/fixtures/raw_timing_hit.cc"});
  // steady_clock, system_clock, high_resolution_clock.
  EXPECT_EQ(CountRule(findings, "raw-timing"), 3);
  EXPECT_EQ(static_cast<int>(findings.size()),
            CountRule(findings, "raw-timing"));
}

TEST(LintTest, RawTimingSuppressed) {
  EXPECT_TRUE(Lint({"tests/lint/fixtures/raw_timing_suppressed.cc"}).empty());
}

TEST(LintTest, RawTimingExemptsTraceBenchAndKernelTus) {
  const std::string clock_read =
      "#include <chrono>\n"
      "long Stamp() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n";
  // trace.cc hosts NowNs(); bench TUs time themselves deliberately.
  for (const char* path : {"src/common/trace.cc", "bench/bench_foo.cc"}) {
    const auto findings = LintFiles({LoadSource(path, clock_read)});
    EXPECT_EQ(CountRule(findings, "raw-timing"), 0) << path;
  }
  // Kernel TUs report through the stricter kernel-wall-clock rule only.
  const auto findings =
      LintFiles({LoadSource("src/tensor/gemm_tiles.cc", clock_read)});
  EXPECT_EQ(CountRule(findings, "raw-timing"), 0);
  EXPECT_GE(CountRule(findings, "kernel-wall-clock"), 1);
}

// raw-file-write and raw-getenv are scoped to src/, so their fixtures
// are linted under a virtual src/core/ path.
SourceFile LoadAs(const std::string& rel, const std::string& virtual_path) {
  SourceFile file;
  EXPECT_TRUE(LoadSourceFile(RepoRoot() + "/" + rel, virtual_path, &file))
      << "cannot read fixture " << rel;
  return file;
}

TEST(LintTest, RawFileWriteHit) {
  const auto findings =
      LintFiles({LoadAs("tests/lint/fixtures/raw_filewrite_hit.cc",
                        "src/core/raw_filewrite_hit.cc")});
  EXPECT_EQ(CountRule(findings, "raw-file-write"), 2);  // ofstream, fopen
  EXPECT_EQ(static_cast<int>(findings.size()),
            CountRule(findings, "raw-file-write"));
}

TEST(LintTest, RawFileWriteSuppressed) {
  EXPECT_TRUE(
      LintFiles({LoadAs("tests/lint/fixtures/raw_filewrite_suppressed.cc",
                        "src/core/raw_filewrite_suppressed.cc")})
          .empty());
}

TEST(LintTest, RawFileWriteScopeAndExemptions) {
  const std::string write =
      "#include <fstream>\n"
      "void F(const char* p) { std::ofstream out(p); }\n";
  // The sanctioned writer, the streaming trace sink, and everything
  // outside src/ may write files directly.
  for (const char* path :
       {"src/common/file_io.cc", "src/common/file_io.h",
        "src/common/trace.cc", "tests/core/foo_test.cc", "tools/gen.cc",
        "bench/bench_foo.cc"}) {
    EXPECT_EQ(CountRule(LintFiles({LoadSource(path, write)}),
                        "raw-file-write"),
              0)
        << path;
  }
  EXPECT_EQ(CountRule(
                LintFiles({LoadSource("src/data/serialization.cc", write)}),
                "raw-file-write"),
            1);
}

TEST(LintTest, RawGetenvHit) {
  const auto findings =
      LintFiles({LoadAs("tests/lint/fixtures/raw_getenv_hit.cc",
                        "src/core/raw_getenv_hit.cc")});
  EXPECT_EQ(CountRule(findings, "raw-getenv"), 2);  // std::getenv, ::getenv
  EXPECT_EQ(static_cast<int>(findings.size()),
            CountRule(findings, "raw-getenv"));
}

TEST(LintTest, RawGetenvSuppressed) {
  EXPECT_TRUE(LintFiles({LoadAs("tests/lint/fixtures/raw_getenv_suppressed.cc",
                                "src/core/raw_getenv_suppressed.cc")})
                  .empty());
}

TEST(LintTest, RawGetenvScopeAndExemptions) {
  const std::string read =
      "#include <cstdlib>\n"
      "const char* F() { return std::getenv(\"X\"); }\n";
  // The three process-switch readers, and everything outside src/, may
  // read the environment.
  for (const char* path :
       {"src/tensor/tensor.cc", "src/common/trace.cc",
        "src/common/failpoint.cc", "tests/core/foo_test.cc", "tools/gen.cc",
        "bench/bench_foo.cc"}) {
    EXPECT_EQ(CountRule(LintFiles({LoadSource(path, read)}), "raw-getenv"),
              0)
        << path;
  }
  // Same-named files elsewhere in src/ get no exemption.
  for (const char* path :
       {"src/schema/registry.cc", "src/core/seq2seq.cc",
        "src/serving/trace.cc"}) {
    EXPECT_EQ(CountRule(LintFiles({LoadSource(path, read)}), "raw-getenv"),
              1)
        << path;
  }
}

TEST(LintTest, GemmLiteralDriftHit) {
  const auto findings =
      Lint({"tests/lint/fixtures/drift_hit/gemm_kernels_base.cc",
            "tests/lint/fixtures/drift_hit/gemm_kernels_avx2.cc"});
  // 1.5f exists only in base, 2.5f only in avx2: one finding per TU.
  EXPECT_EQ(CountRule(findings, "gemm-literal-drift"), 2);
}

TEST(LintTest, GemmLiteralDriftCleanAndSuppressed) {
  EXPECT_TRUE(
      Lint({"tests/lint/fixtures/drift_clean/gemm_kernels_base.cc",
            "tests/lint/fixtures/drift_clean/gemm_kernels_avx2.cc"})
          .empty());
  EXPECT_TRUE(
      Lint({"tests/lint/fixtures/drift_suppressed/gemm_kernels_base.cc",
            "tests/lint/fixtures/drift_suppressed/gemm_kernels_avx2.cc"})
          .empty());
}

TEST(LintTest, ExpectedGuardDerivation) {
  EXPECT_EQ(ExpectedGuard("src/common/status.h"), "NLIDB_COMMON_STATUS_H_");
  EXPECT_EQ(ExpectedGuard("tests/testing/golden.h"),
            "NLIDB_TESTS_TESTING_GOLDEN_H_");
  EXPECT_EQ(ExpectedGuard("bench/bench_json.h"), "NLIDB_BENCH_BENCH_JSON_H_");
}

TEST(LintTest, DefaultTreeSkipsFixturesAndFindsSources) {
  const auto tree = DefaultTree(RepoRoot());
  EXPECT_GT(tree.size(), 150u);
  for (const std::string& path : tree) {
    EXPECT_EQ(path.rfind("tests/lint/fixtures/", 0), std::string::npos)
        << path;
  }
  EXPECT_TRUE(std::count(tree.begin(), tree.end(), "src/common/status.h"));
  EXPECT_TRUE(std::count(tree.begin(), tree.end(), "tools/nlidb_lint.cc"));
}

TEST(LintTest, AuditSuppressionsListsEveryDisableComment) {
  const std::string src =
      "void F() {\n"
      "  int x = 0;  // nlidb-lint: disable(raw-thread)\n"
      "  // nlidb-lint: disable(naked-lock, mutex-coverage)\n"
      "  int y = 0;\n"
      "}\n";
  const auto sups = AuditSuppressions({LoadSource("src/a.cc", src)});
  ASSERT_EQ(sups.size(), 3u);
  EXPECT_EQ(sups[0].line, 2);
  EXPECT_EQ(sups[0].rule, "raw-thread");
  // Line 3 names two rules; entries come out (file, line, rule)-sorted.
  EXPECT_EQ(sups[1].line, 3);
  EXPECT_EQ(sups[1].rule, "mutex-coverage");
  EXPECT_EQ(sups[2].line, 3);
  EXPECT_EQ(sups[2].rule, "naked-lock");
}

TEST(LintTest, AuditCountsRawGetenvSuppressions) {
  const auto sups = AuditSuppressions({LoadSource(
      "src/a.cc", "int x = 0;  // nlidb-lint: disable(raw-getenv)\n")});
  ASSERT_EQ(sups.size(), 1u);
  EXPECT_EQ(sups[0].rule, "raw-getenv");
}

TEST(LintTest, ParseAllowlistAcceptsEntriesAndRejectsMalformed) {
  std::vector<std::string> errors;
  const auto budgets = ParseAllowlist(
      "# comment\n"
      "\n"
      "src/a.cc raw-thread 2\n"
      "src/b.cc naked-lock 1\n",
      &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(budgets.size(), 2u);
  EXPECT_EQ(budgets[0].file, "src/a.cc");
  EXPECT_EQ(budgets[0].rule, "raw-thread");
  EXPECT_EQ(budgets[0].max_count, 2);

  errors.clear();
  ParseAllowlist("src/a.cc raw-thread\n", &errors);  // missing count
  EXPECT_EQ(errors.size(), 1u);
  errors.clear();
  ParseAllowlist("src/a.cc raw-thread zero\n", &errors);  // not a number
  EXPECT_EQ(errors.size(), 1u);
  errors.clear();
  ParseAllowlist("src/a.cc raw-thread 0\n", &errors);  // must be positive
  EXPECT_EQ(errors.size(), 1u);
}

TEST(LintTest, SuppressionBudgetFlagsOverBudgetAndStaleEntries) {
  const std::vector<Suppression> sups = {
      {"src/a.cc", 10, "raw-thread"},
      {"src/a.cc", 20, "raw-thread"},
      {"src/b.cc", 5, "naked-lock"},
  };
  std::vector<std::string> errors;
  const auto budgets = ParseAllowlist(
      "src/a.cc raw-thread 2\n"
      "src/b.cc naked-lock 3\n",
      &errors);
  ASSERT_TRUE(errors.empty());

  // Within budget: no violations; the over-granted naked-lock entry is
  // reported as stale.
  std::vector<std::string> stale;
  EXPECT_TRUE(CheckSuppressionBudget(sups, budgets, &stale).empty());
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_NE(stale[0].find("src/b.cc"), std::string::npos);

  // A suppression with no allowlist entry at all is over budget 0.
  std::vector<Suppression> extra = sups;
  extra.push_back({"src/c.cc", 1, "mutex-coverage"});
  const auto violations = CheckSuppressionBudget(extra, budgets, nullptr);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("src/c.cc"), std::string::npos);
  EXPECT_NE(violations[0].find("mutex-coverage"), std::string::npos);
}

// The suppression-budget gate CI enforces (also exposed as the
// standalone `nlidb_lint_suppression_audit` ctest entry): every
// `nlidb-lint: disable(...)` in the tree is covered by a reviewed entry
// in tools/lint_suppressions.txt.
TEST(LintTest, RealTreeSuppressionsWithinBudget) {
  const std::string root = RepoRoot();
  std::vector<SourceFile> files;
  for (const std::string& rel : DefaultTree(root)) {
    SourceFile file;
    ASSERT_TRUE(LoadSourceFile(root + "/" + rel, rel, &file)) << rel;
    files.push_back(std::move(file));
  }
  SourceFile allowlist;
  ASSERT_TRUE(LoadSourceFile(root + "/tools/lint_suppressions.txt",
                             "tools/lint_suppressions.txt", &allowlist));
  std::string contents;
  for (const std::string& line : allowlist.raw) contents += line + "\n";
  std::vector<std::string> errors;
  const auto budgets = ParseAllowlist(contents, &errors);
  for (const std::string& e : errors) ADD_FAILURE() << e;
  for (const std::string& v :
       CheckSuppressionBudget(AuditSuppressions(files), budgets, nullptr)) {
    ADD_FAILURE() << v;
  }
}

// The gate CI enforces: the committed tree has zero findings. Any new
// violation fails here (and in the standalone `nlidb_lint_tree` ctest
// run) with the exact file:line: rule: message the CLI prints.
TEST(LintTest, RealTreeLintsClean) {
  const std::string root = RepoRoot();
  std::vector<SourceFile> files;
  for (const std::string& rel : DefaultTree(root)) {
    SourceFile file;
    ASSERT_TRUE(LoadSourceFile(root + "/" + rel, rel, &file)) << rel;
    files.push_back(std::move(file));
  }
  const auto findings = LintFiles(files);
  for (const Finding& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": " << f.rule << ": "
                  << f.message;
  }
}

}  // namespace
}  // namespace lint
}  // namespace nlidb
