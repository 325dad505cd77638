#ifndef NLIDB_TOOLS_LINT_RULES_H_
#define NLIDB_TOOLS_LINT_RULES_H_

// Project-rule checker behind the `nlidb_lint` CLI (DESIGN.md "Static
// contract architecture").
//
// Enforces the contracts the compiler cannot: only the serving engine
// starts threads (tests through testing/threads.h), all randomness goes
// through common/rng, GEMM kernel TUs stay wall-clock-free and
// literal-identical across ISA tiers, every mutex member names the state
// it guards, lock acquisition is RAII-only
// (naked-lock), every class owning a mutex annotates its mutable fields
// (mutex-coverage), and headers carry path-derived include guards.
// Token/regex level on comment- and string-stripped source —
// deliberately no libclang dependency so the checker builds everywhere
// the library does.
//
// Suppression: a finding on line L is dropped when line L or L-1
// contains `nlidb-lint: disable(<rule-id>)` in a comment; several rules
// may share one comment as `disable(rule-a, rule-b)`. Every suppression
// in the tree is budgeted: `nlidb_lint --suppression-audit --allowlist
// tools/lint_suppressions.txt` (a ctest gate) fails when a suppression
// appears that the committed allowlist does not cover, so waiving a
// rule is a reviewed, diffable act rather than a drive-by comment.

#include <string>
#include <vector>

namespace nlidb {
namespace lint {

/// One rule violation, formatted by the CLI as
/// `file:line: rule-id: message`.
struct Finding {
  std::string file;  // repo-relative, '/'-separated
  int line = 0;      // 1-based
  std::string rule;
  std::string message;
};

/// A source file prepared for linting: the raw lines (used for
/// suppression comments and include-guard checks) plus a parallel
/// vector with comments and string/char literals blanked out, so rule
/// patterns never fire on prose or on the rule definitions themselves.
struct SourceFile {
  std::string path;
  std::vector<std::string> raw;
  std::vector<std::string> code;
};

/// Splits `contents` into lines and computes the stripped view.
SourceFile LoadSource(std::string path, const std::string& contents);

/// Reads `abs_path` from disk and prepares it; `rel_path` is the
/// repo-relative name used in findings and path-keyed rules. Returns
/// false when the file cannot be read.
bool LoadSourceFile(const std::string& abs_path, const std::string& rel_path,
                    SourceFile* out);

/// Runs every rule over the file set. Cross-file rules (the GEMM
/// literal-drift check) compare files within the same directory, so a
/// call must include sibling tier TUs together to check them.
std::vector<Finding> LintFiles(const std::vector<SourceFile>& files);

/// Repo-relative paths of the lintable tree under `root`: every
/// .h/.cc/.cpp/.inc file below src/, tests/, tools/ and bench/, except
/// the deliberately-violating rule fixtures under tests/lint/fixtures/
/// (lint those by passing them explicitly). Sorted for stable output.
std::vector<std::string> DefaultTree(const std::string& root);

/// `rule-id: summary` lines for --list-rules.
std::vector<std::string> RuleDescriptions();

/// One `nlidb-lint: disable(...)` occurrence in the tree (one entry per
/// rule named in the comment).
struct Suppression {
  std::string file;  // repo-relative
  int line = 0;      // 1-based line of the comment
  std::string rule;
};

/// Every suppression comment in `files`, in (file, line, rule) order.
/// Reads the raw lines, so suppressions inside comments are found (that
/// is where they live).
std::vector<Suppression> AuditSuppressions(
    const std::vector<SourceFile>& files);

/// One allowlist entry: at most `max_count` suppressions of `rule` in
/// `file`. Parsed from tools/lint_suppressions.txt, format
/// `<file> <rule> <max_count>` per line, '#' comments.
struct SuppressionBudget {
  std::string file;
  std::string rule;
  int max_count = 0;
};

/// Parses allowlist text; malformed lines are reported into `errors`
/// (empty vector on clean parse).
std::vector<SuppressionBudget> ParseAllowlist(const std::string& contents,
                                              std::vector<std::string>* errors);

/// Budget check: returns one human-readable violation per (file, rule)
/// whose suppression count exceeds its allowlist budget (missing entry =
/// budget 0), plus a note per allowlist entry that is no longer used at
/// its full budget (stale entries are reported but are not violations —
/// the caller decides). Violations come first; the second vector holds
/// the stale-entry notes.
std::vector<std::string> CheckSuppressionBudget(
    const std::vector<Suppression>& suppressions,
    const std::vector<SuppressionBudget>& budgets,
    std::vector<std::string>* stale_notes);

/// The include guard mandated for a header at `rel_path`:
/// "common/status.h" (the leading "src/" is dropped first) maps to
/// "NLIDB_COMMON_STATUS_H_".
std::string ExpectedGuard(const std::string& rel_path);

}  // namespace lint
}  // namespace nlidb

#endif  // NLIDB_TOOLS_LINT_RULES_H_
