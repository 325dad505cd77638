#include "tools/lint_rules.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace nlidb {
namespace lint {

namespace {

namespace fs = std::filesystem;

bool StartsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

std::string Dirname(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::string Trimmed(const std::string& s) {
  size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return std::string();
  size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Blanks comments and string/char literal contents, preserving line
/// structure, so rule regexes only ever see code tokens.
std::string StripCommentsAndStrings(const std::string& src) {
  std::string out;
  out.reserve(src.size());
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar };
  State state = State::kCode;
  for (size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out += "  ";
          ++i;
        } else if (c == '"') {
          state = State::kString;
          out += ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out += ' ';
        } else {
          out += c;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
      case State::kString:
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out += "  ";
          ++i;
        } else if ((state == State::kString && c == '"') ||
                   (state == State::kChar && c == '\'')) {
          state = State::kCode;
          out += ' ';
        } else {
          out += c == '\n' ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> SplitLines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

/// The rule ids named by `nlidb-lint: disable(a, b, ...)` comments on
/// this raw line (possibly several comments; possibly several rules per
/// comment, comma-separated).
std::vector<std::string> DisabledRulesOn(const std::string& raw_line) {
  static const std::string kMarker = "nlidb-lint: disable(";
  std::vector<std::string> rules;
  size_t pos = 0;
  while ((pos = raw_line.find(kMarker, pos)) != std::string::npos) {
    const size_t open = pos + kMarker.size();
    const size_t close = raw_line.find(')', open);
    if (close == std::string::npos) break;
    std::string inside = raw_line.substr(open, close - open);
    size_t start = 0;
    while (start <= inside.size()) {
      size_t comma = inside.find(',', start);
      if (comma == std::string::npos) comma = inside.size();
      const std::string rule = Trimmed(inside.substr(start, comma - start));
      if (!rule.empty()) rules.push_back(rule);
      start = comma + 1;
    }
    pos = close + 1;
  }
  return rules;
}

/// True when the finding at `line` (1-based) in `file` is waived by a
/// `nlidb-lint: disable(rule)` (or `disable(rule, other, ...)`) comment
/// on the same or preceding line.
bool Suppressed(const SourceFile& file, int line, const std::string& rule) {
  for (int l = line - 1; l >= line - 2 && l >= 0; --l) {
    if (static_cast<size_t>(l) >= file.raw.size()) continue;
    for (const std::string& disabled : DisabledRulesOn(file.raw[l])) {
      if (disabled == rule) return true;
    }
  }
  return false;
}

void Report(const SourceFile& file, int line, const std::string& rule,
            const std::string& message, std::vector<Finding>* out) {
  if (Suppressed(file, line, rule)) return;
  out->push_back(Finding{file.path, line, rule, message});
}

// ---------------------------------------------------------------------------
// raw-thread: threading primitives outside the two thread owners.

const char kRawThread[] = "raw-thread";

/// The serving engine, whose workers are the only threads src/ starts,
/// and the test helper that races code against itself.
bool ThreadOwnerFile(const std::string& path) {
  return path == "src/serving/serving.h" || path == "tests/testing/threads.h";
}

void CheckRawThread(const SourceFile& file, std::vector<Finding>* out) {
  if (ThreadOwnerFile(file.path)) return;
  static const std::regex re(
      "std::jthread\\b|std::thread\\b|std::async\\b|\\bpthread_[a-z_]+");
  for (size_t i = 0; i < file.code.size(); ++i) {
    if (std::regex_search(file.code[i], re)) {
      Report(file, static_cast<int>(i) + 1, kRawThread,
             "raw threading primitive; only the serving engine "
             "(src/serving/serving.h) starts threads, and tests use "
             "RunOnThreads (tests/testing/threads.h)",
             out);
    }
  }
}

// ---------------------------------------------------------------------------
// raw-random: nondeterministic RNG outside common/rng.

const char kRawRandom[] = "raw-random";

void CheckRawRandom(const SourceFile& file, std::vector<Finding>* out) {
  if (file.path == "src/common/rng.h" || file.path == "src/common/rng.cc") {
    return;
  }
  static const std::regex re(
      "std::random_device|\\bsrand\\s*\\(|\\brand\\s*\\(");
  for (size_t i = 0; i < file.code.size(); ++i) {
    if (std::regex_search(file.code[i], re)) {
      Report(file, static_cast<int>(i) + 1, kRawRandom,
             "nondeterministic randomness; use the seeded Rng in "
             "src/common/rng.h so every run reproduces",
             out);
    }
  }
}

// ---------------------------------------------------------------------------
// kernel-wall-clock: GEMM kernel TUs must be time-free.

const char kKernelWallClock[] = "kernel-wall-clock";

bool KernelTu(const std::string& path) {
  const std::string base = Basename(path);
  return StartsWith(base, "gemm_") && !EndsWith(base, "_test.cc");
}

void CheckKernelWallClock(const SourceFile& file, std::vector<Finding>* out) {
  if (!KernelTu(file.path)) return;
  static const std::regex re(
      "std::chrono|\\btime\\s*\\(|\\bclock\\s*\\(|\\bgettimeofday\\b|"
      "\\blocaltime\\b|\\bstrftime\\b|\\bDate\\b");
  for (size_t i = 0; i < file.code.size(); ++i) {
    if (std::regex_search(file.code[i], re)) {
      Report(file, static_cast<int>(i) + 1, kKernelWallClock,
             "wall-clock call inside a GEMM kernel TU; kernels must be "
             "time-free so identical inputs give bitwise-identical outputs",
             out);
    }
  }
}

// ---------------------------------------------------------------------------
// raw-timing: all timing goes through trace::NowNs().

const char kRawTiming[] = "raw-timing";

void CheckRawTiming(const SourceFile& file, std::vector<Finding>* out) {
  // trace.cc hosts the one sanctioned steady_clock read; benches time
  // themselves deliberately; kernel TUs are covered by the stricter
  // kernel-wall-clock rule (no double findings).
  if (file.path == "src/common/trace.cc" || StartsWith(file.path, "bench/") ||
      KernelTu(file.path)) {
    return;
  }
  static const std::regex re(
      "std::chrono::(?:steady_clock|system_clock|high_resolution_clock)\\b");
  for (size_t i = 0; i < file.code.size(); ++i) {
    if (std::regex_search(file.code[i], re)) {
      Report(file, static_cast<int>(i) + 1, kRawTiming,
             "direct std::chrono clock read; time through trace::NowNs() / "
             "TraceSpan (src/common/trace.h) so instrumentation stays "
             "centralized",
             out);
    }
  }
}

// ---------------------------------------------------------------------------
// gemm-literal-drift: float literals must match across ISA-tier TUs.

const char kGemmLiteralDrift[] = "gemm-literal-drift";

struct LiteralInfo {
  int count = 0;
  int first_line = 0;
};

std::map<std::string, LiteralInfo> FloatLiterals(const SourceFile& file) {
  // Decimal floats (1.0f, .5, 2e-3) and C99 hexfloats (0x1.8p-2f).
  static const std::regex re(
      "\\b[0-9]+\\.[0-9]*(?:[eE][+-]?[0-9]+)?[fF]?|"
      "\\.[0-9]+(?:[eE][+-]?[0-9]+)?[fF]?|"
      "\\b[0-9]+[eE][+-]?[0-9]+[fF]?|"
      "\\b0[xX][0-9a-fA-F]*\\.?[0-9a-fA-F]*[pP][+-]?[0-9]+[fF]?");
  std::map<std::string, LiteralInfo> literals;
  for (size_t i = 0; i < file.code.size(); ++i) {
    const std::string& line = file.code[i];
    for (auto it = std::sregex_iterator(line.begin(), line.end(), re);
         it != std::sregex_iterator(); ++it) {
      LiteralInfo& info = literals[it->str()];
      if (info.count == 0) info.first_line = static_cast<int>(i) + 1;
      ++info.count;
    }
  }
  return literals;
}

bool TierTu(const std::string& path) {
  static const std::regex re("^gemm_kernels_[a-z0-9]+\\.cc$");
  return std::regex_match(Basename(path), re);
}

void CheckGemmLiteralDrift(const std::vector<const SourceFile*>& tier_tus,
                           std::vector<Finding>* out) {
  for (size_t a = 0; a < tier_tus.size(); ++a) {
    for (size_t b = a + 1; b < tier_tus.size(); ++b) {
      const SourceFile& fa = *tier_tus[a];
      const SourceFile& fb = *tier_tus[b];
      const auto la = FloatLiterals(fa);
      const auto lb = FloatLiterals(fb);
      auto diff = [&](const SourceFile& present,
                      const std::map<std::string, LiteralInfo>& mine,
                      const SourceFile& other,
                      const std::map<std::string, LiteralInfo>& theirs) {
        for (const auto& [lit, info] : mine) {
          auto it = theirs.find(lit);
          const int there = it == theirs.end() ? 0 : it->second.count;
          if (info.count > there) {
            std::ostringstream msg;
            msg << "float literal " << lit << " appears " << info.count
                << "x here but " << there << "x in " << Basename(other.path)
                << "; ISA tiers must stay numerically identical";
            Report(present, info.first_line, kGemmLiteralDrift, msg.str(),
                   out);
          }
        }
      };
      diff(fa, la, fb, lb);
      diff(fb, lb, fa, la);
    }
  }
}

// ---------------------------------------------------------------------------
// raw-file-write: durable writes go through io::AtomicFileWriter.

const char kRawFileWrite[] = "raw-file-write";

void CheckRawFileWrite(const SourceFile& file, std::vector<Finding>* out) {
  // Only production code: tests, tools and benches write scratch files
  // directly and legitimately. file_io.* is the one sanctioned writer;
  // trace.cc streams spans to an append-only sink that cannot be
  // temp+rename'd (it outlives the process by design).
  if (!StartsWith(file.path, "src/") ||
      StartsWith(file.path, "src/common/file_io.") ||
      file.path == "src/common/trace.cc") {
    return;
  }
  static const std::regex re(
      "std::ofstream\\b|std::fstream\\b|\\bfopen\\s*\\(|\\bcreat\\s*\\(");
  for (size_t i = 0; i < file.code.size(); ++i) {
    if (std::regex_search(file.code[i], re)) {
      Report(file, static_cast<int>(i) + 1, kRawFileWrite,
             "raw file write; durable artifacts go through "
             "io::WriteFileAtomic / io::AtomicFileWriter "
             "(src/common/file_io.h) so a crash or full disk never leaves "
             "a torn file",
             out);
    }
  }
}

// ---------------------------------------------------------------------------
// raw-getenv: answers never depend on the environment.

const char kRawGetenv[] = "raw-getenv";

/// The src/ files that read process switches which cannot change an
/// answer: GEMM tier, trace sink, failpoints, lockdep.
bool EnvSwitchFile(const std::string& path) {
  return path == "src/tensor/tensor.cc" || path == "src/common/trace.cc" ||
         path == "src/common/failpoint.cc" || path == "src/common/lockdep.cc";
}

void CheckRawGetenv(const SourceFile& file, std::vector<Finding>* out) {
  // Only production code: tests, tools and benches may read their own
  // environment knobs.
  if (!StartsWith(file.path, "src/") || EnvSwitchFile(file.path)) return;
  static const std::regex re("\\b(?:secure_)?getenv\\s*\\(");
  for (size_t i = 0; i < file.code.size(); ++i) {
    if (std::regex_search(file.code[i], re)) {
      Report(file, static_cast<int>(i) + 1, kRawGetenv,
             "environment read in src/; settings that can change an "
             "answer are set in code through options, so a stray "
             "variable cannot silently change every answer in the process",
             out);
    }
  }
}

// ---------------------------------------------------------------------------
// mutex-unguarded: every mutex member names the state it protects.

const char kMutexUnguarded[] = "mutex-unguarded";
// CheckMutexUnguarded lives below with the statement scanner it shares
// with mutex-coverage.

// ---------------------------------------------------------------------------
// naked-lock: lock acquisition is RAII-only.

const char kNakedLock[] = "naked-lock";

/// The lock-infrastructure files where direct Lock()/Unlock()/lock()/
/// unlock() calls are the implementation, not a violation: the Mutex
/// wrapper itself and the lockdep detector operating beneath it.
bool LockInternalFile(const std::string& path) {
  return path == "src/common/mutex.h" || path == "src/common/lockdep.h" ||
         path == "src/common/lockdep.cc";
}

void CheckNakedLock(const SourceFile& file, std::vector<Finding>* out) {
  if (LockInternalFile(file.path)) return;
  // Zero-argument Lock/Unlock (and the std-style lowercase aliases)
  // invoked through . or -> — i.e. manual mutex manipulation. try_lock
  // variants are allowed (there is no RAII shape for a conditional
  // acquire); scoped helpers MutexLock/MutexUnlock never appear as
  // member calls.
  static const std::regex re(
      "(?:\\.|->)\\s*(?:Lock|Unlock|lock|unlock)\\s*\\(\\s*\\)");
  for (size_t i = 0; i < file.code.size(); ++i) {
    if (std::regex_search(file.code[i], re)) {
      Report(file, static_cast<int>(i) + 1, kNakedLock,
             "direct Lock()/Unlock() call; hold locks through MutexLock "
             "and drop them through MutexUnlock (src/common/mutex.h) so "
             "every exit path — returns, exceptions — restores the lock "
             "invariant and the lockdep held-set stays balanced",
             out);
    }
  }
}

// ---------------------------------------------------------------------------
// mutex-coverage: a class that owns a mutex annotates its mutable
// fields.

const char kMutexCoverage[] = "mutex-coverage";

/// One member-declaration statement of a parsed class body.
struct MemberStmt {
  std::string text;  // stripped-code text, braces' contents elided
  int line = 0;      // 1-based line where the statement starts
};

struct ParsedClass {
  std::string name;
  int line = 0;  // 1-based line of the head
  std::vector<MemberStmt> members;
};

/// Brace-depth scanner over the stripped code view. Good enough for
/// this tree's style: it recognizes `class`/`struct` heads (ignoring
/// `enum class`), collects the statements at each class's member depth
/// (function bodies and nested types are skipped; brace initializers
/// are elided from the statement text), and returns every class. When
/// `globals` is given, statements at file or namespace scope — the
/// other place a declaration attribute like NLIDB_GUARDED_BY can
/// legally appear — are collected there too.
std::vector<ParsedClass> ParseClasses(const SourceFile& file,
                                      std::vector<MemberStmt>* globals =
                                          nullptr) {
  static const std::regex head_re(
      "(?:^|[^A-Za-z0-9_])(class|struct)\\s+([A-Za-z_][A-Za-z0-9_]*)");
  static const std::regex access_re("\\b(?:public|private|protected)\\s*:");
  static const std::regex namespace_re(
      "(?:^|[^A-Za-z0-9_])namespace(?:$|[^A-Za-z0-9_])");

  struct Frame {
    bool is_class = false;
    bool is_namespace = false;  // file scope counts; bodies/inits do not
    ParsedClass cls;
    std::string stmt;
    int stmt_line = 0;
    // The enclosing statement as of this frame's '{', restored when the
    // brace pair turns out to be an initializer (`Mutex mu_{"name"};`)
    // rather than a body.
    std::string pending_stmt;
    int pending_line = 0;
  };
  std::vector<ParsedClass> classes;
  std::vector<Frame> stack;
  Frame root;
  root.is_namespace = true;  // file scope
  stack.push_back(std::move(root));

  for (size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    for (size_t ci = 0; ci < line.size(); ++ci) {
      const char c = line[ci];
      Frame& top = stack.back();
      if (c == '{') {
        // Class head iff the pending statement ends in a class/struct
        // introduction that was not `enum class` and not a template
        // parameter — token-level approximation.
        std::smatch m;
        std::string head = top.stmt;
        bool is_class = false;
        std::string name;
        for (auto it = std::sregex_iterator(head.begin(), head.end(),
                                            head_re);
             it != std::sregex_iterator(); ++it) {
          const size_t at = static_cast<size_t>(it->position(1));
          const std::string before = head.substr(0, at);
          if (before.size() >= 5 &&
              before.find("enum") != std::string::npos &&
              Trimmed(before.substr(before.rfind("enum"))) == "enum") {
            continue;  // `enum class Kind`
          }
          is_class = true;
          name = (*it)[2].str();
        }
        Frame next;
        next.is_class = is_class;
        next.is_namespace =
            !is_class && std::regex_search(head, namespace_re);
        if (is_class) {
          next.cls.name = name;
          next.cls.line = top.stmt_line > 0 ? top.stmt_line
                                            : static_cast<int>(li) + 1;
        }
        next.pending_stmt = std::move(top.stmt);
        next.pending_line = top.stmt_line;
        top.stmt.clear();
        top.stmt_line = 0;
        stack.push_back(std::move(next));
      } else if (c == '}') {
        if (stack.size() > 1) {
          Frame closed = std::move(stack.back());
          stack.pop_back();
          if (closed.is_class) classes.push_back(std::move(closed.cls));
          // The enclosing statement resumes only if this brace pair was
          // an initializer (next non-space char is ';' / ',' / '}');
          // a function body otherwise ends the statement.
          size_t peek = ci + 1;
          size_t pl = li;
          char nextc = '\0';
          while (pl < file.code.size()) {
            const std::string& pline = file.code[pl];
            while (peek < pline.size() &&
                   std::isspace(static_cast<unsigned char>(pline[peek]))) {
              ++peek;
            }
            if (peek < pline.size()) {
              nextc = pline[peek];
              break;
            }
            ++pl;
            peek = 0;
          }
          if (nextc == ';' || nextc == ',' || nextc == '}') {
            // Initializer (or `class Foo {...};` head): the enclosing
            // statement resumes with the braces' contents elided.
            stack.back().stmt = std::move(closed.pending_stmt);
            stack.back().stmt_line = closed.pending_line;
          } else {
            stack.back().stmt.clear();
            stack.back().stmt_line = 0;
          }
        }
      } else if (c == ';') {
        if (top.is_class) {
          std::string text =
              Trimmed(std::regex_replace(top.stmt, access_re, " "));
          if (!text.empty()) {
            top.cls.members.push_back(MemberStmt{text, top.stmt_line});
          }
        } else if (top.is_namespace && globals != nullptr) {
          std::string text = Trimmed(top.stmt);
          if (!text.empty()) {
            globals->push_back(MemberStmt{text, top.stmt_line});
          }
        }
        top.stmt.clear();
        top.stmt_line = 0;
      } else if (c == ':') {
        // Access labels reset the statement so the next member's line
        // is its own, not the label's. `::` and bitfields fall through.
        const std::string t = Trimmed(top.stmt);
        if (t == "public" || t == "private" || t == "protected") {
          top.stmt.clear();
          top.stmt_line = 0;
        } else {
          top.stmt += c;
        }
      } else {
        if (!std::isspace(static_cast<unsigned char>(c)) &&
            top.stmt_line == 0) {
          top.stmt_line = static_cast<int>(li) + 1;
        }
        top.stmt += c;
      }
    }
    for (Frame& f : stack) {
      if (!f.stmt.empty()) f.stmt += ' ';
    }
  }
  return classes;
}

/// True when `stmt` declares a mutex the class owns (not a reference).
bool DeclaresMutexMember(const std::string& stmt) {
  static const std::regex re(
      "(?:^|[^A-Za-z0-9_:])(?:(?:nlidb::)?Mutex|std::mutex|"
      "std::recursive_mutex|std::timed_mutex|std::shared_mutex)\\s+"
      "[A-Za-z_][A-Za-z0-9_]*\\s*(?:\\[|=|\\{|$)");
  return std::regex_search(stmt, re);
}

/// True when a member statement needs no NLIDB_GUARDED_BY: it is not
/// mutable shared state, or its synchronization story is carried by the
/// type itself.
bool CoverageExempt(const std::string& stmt) {
  // Already annotated (the macro names the guarding capability).
  if (stmt.find("NLIDB_GUARDED_BY") != std::string::npos ||
      stmt.find("NLIDB_PT_GUARDED_BY") != std::string::npos) {
    return true;
  }
  // Not fields: nested types, aliases, friends, functions (any
  // parenthesis at this point — annotated fields were accepted above),
  // statics and constexpr constants.
  static const std::regex non_field(
      "^(?:template\\b|using\\b|typedef\\b|friend\\b|static\\b|"
      "constexpr\\b|enum\\b|class\\b|struct\\b|union\\b)");
  if (std::regex_search(stmt, non_field)) return true;
  if (stmt.find('(') != std::string::npos) return true;
  // The synchronization primitives themselves.
  static const std::regex lock_type(
      "(?:^|[^A-Za-z0-9_:])(?:(?:nlidb::)?Mutex|std::mutex|"
      "std::recursive_mutex|std::timed_mutex|std::shared_mutex|"
      "(?:nlidb::)?CondVar|std::condition_variable(?:_any)?)"
      "(?:$|[^A-Za-z0-9_])");
  if (std::regex_search(stmt, lock_type)) return true;
  // Atomics synchronize themselves.
  static const std::regex atomic_re(
      "^(?:mutable\\s+)?(?:std::)?atomic\\b");
  if (std::regex_search(stmt, atomic_re)) return true;
  // References bind once; const values and const pointers (`* const`)
  // never change after construction. (`const char* p` — a mutable
  // pointer to const data — is NOT exempt.)
  if (stmt.find('&') != std::string::npos) return true;
  static const std::regex const_ptr("\\*\\s*const\\b");
  if (std::regex_search(stmt, const_ptr)) return true;
  static const std::regex const_value("^const\\b");
  if (std::regex_search(stmt, const_value) &&
      stmt.find('*') == std::string::npos) {
    return true;
  }
  return false;
}

void CheckMutexUnguarded(const SourceFile& file, std::vector<Finding>* out) {
  // Fires only where NLIDB_GUARDED_BY can actually be written: class
  // members and file/namespace-scope globals. Function-local mutexes
  // guard locals the declaration attribute cannot name, so they are out
  // of scope for this rule (naked-lock and lockdep still watch them).
  // Statement text arrives with brace initializers elided, so both
  // `Mutex mu_;` and `Mutex mu_{"serving.queue"};` reduce to the same
  // shape.
  static const std::regex decl(
      "^(?:mutable\\s+|static\\s+|inline\\s+)*"
      "(?:std::mutex|std::recursive_mutex|std::timed_mutex|"
      "std::shared_mutex|(?:nlidb::)?Mutex)\\s+"
      "([A-Za-z_][A-Za-z0-9_]*)\\s*=?\\s*$");
  std::vector<MemberStmt> decls;
  for (const ParsedClass& cls : ParseClasses(file, &decls)) {
    decls.insert(decls.end(), cls.members.begin(), cls.members.end());
  }
  for (const MemberStmt& stmt : decls) {
    std::smatch m;
    if (!std::regex_match(stmt.text, m, decl)) continue;
    const std::string name = m[1].str();
    const std::string guarded = "NLIDB_GUARDED_BY(" + name + ")";
    const std::string pt_guarded = "NLIDB_PT_GUARDED_BY(" + name + ")";
    bool annotated = false;
    for (const std::string& line : file.code) {
      if (line.find(guarded) != std::string::npos ||
          line.find(pt_guarded) != std::string::npos) {
        annotated = true;
        break;
      }
    }
    if (!annotated) {
      Report(file, stmt.line, kMutexUnguarded,
             "mutex '" + name +
                 "' has no NLIDB_GUARDED_BY(" + name +
                 ") state in this file; annotate what it protects "
                 "(common/thread_annotations.h)",
             out);
    }
  }
}

void CheckMutexCoverage(const SourceFile& file, std::vector<Finding>* out) {
  // mutex.h's own identity fields (name/site, ctor-set) and the lockdep
  // graph internals (raw std::mutex by necessity — it runs beneath the
  // annotated wrapper) are the two structural exemptions.
  if (LockInternalFile(file.path)) return;
  for (const ParsedClass& cls : ParseClasses(file)) {
    bool owns_mutex = false;
    for (const MemberStmt& m : cls.members) {
      if (DeclaresMutexMember(m.text)) {
        owns_mutex = true;
        break;
      }
    }
    if (!owns_mutex) continue;
    for (const MemberStmt& m : cls.members) {
      if (CoverageExempt(m.text)) continue;
      Report(file, m.line, kMutexCoverage,
             "class '" + cls.name +
                 "' owns a mutex but this field has no NLIDB_GUARDED_BY "
                 "annotation; name its guard, make it const/atomic, or "
                 "suppress with a comment explaining the synchronization",
             out);
    }
  }
}

// ---------------------------------------------------------------------------
// include-guard: path-derived guards, no #pragma once.

const char kIncludeGuard[] = "include-guard";

void CheckIncludeGuard(const SourceFile& file, std::vector<Finding>* out) {
  if (!EndsWith(file.path, ".h")) return;
  const std::string expected = ExpectedGuard(file.path);
  int ifndef_line = 0;  // 1-based, 0 = not found
  std::string found_guard;
  bool define_ok = false;
  for (size_t i = 0; i < file.raw.size(); ++i) {
    const std::string t = Trimmed(file.raw[i]);
    if (StartsWith(t, "#pragma once")) {
      Report(file, static_cast<int>(i) + 1, kIncludeGuard,
             "#pragma once; this tree uses named include guards "
             "(expected " + expected + ")",
             out);
    }
    if (ifndef_line == 0 && StartsWith(t, "#ifndef ")) {
      ifndef_line = static_cast<int>(i) + 1;
      found_guard = Trimmed(t.substr(8));
      // The guard define must be the immediately following directive.
      for (size_t j = i + 1; j < file.raw.size(); ++j) {
        const std::string u = Trimmed(file.raw[j]);
        if (u.empty()) continue;
        define_ok = u == "#define " + found_guard;
        break;
      }
    }
  }
  if (ifndef_line == 0) {
    Report(file, 1, kIncludeGuard,
           "missing include guard (expected #ifndef " + expected + ")", out);
  } else if (found_guard != expected || !define_ok) {
    Report(file, ifndef_line, kIncludeGuard,
           "include guard '" + found_guard + "' does not match the "
           "path-derived guard '" + expected + "' (or lacks the matching "
           "#define)",
           out);
  }
}

}  // namespace

std::string ExpectedGuard(const std::string& rel_path) {
  std::string p = rel_path;
  if (StartsWith(p, "src/")) p = p.substr(4);
  std::string guard = "NLIDB_";
  for (char c : p) {
    guard += std::isalnum(static_cast<unsigned char>(c))
                 ? static_cast<char>(
                       std::toupper(static_cast<unsigned char>(c)))
                 : '_';
  }
  guard += '_';
  return guard;
}

SourceFile LoadSource(std::string path, const std::string& contents) {
  SourceFile file;
  file.path = std::move(path);
  file.raw = SplitLines(contents);
  file.code = SplitLines(StripCommentsAndStrings(contents));
  return file;
}

bool LoadSourceFile(const std::string& abs_path, const std::string& rel_path,
                    SourceFile* out) {
  std::ifstream in(abs_path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = LoadSource(rel_path, buf.str());
  return true;
}

std::vector<Finding> LintFiles(const std::vector<SourceFile>& files) {
  std::vector<Finding> findings;
  std::map<std::string, std::vector<const SourceFile*>> tier_tus_by_dir;
  for (const SourceFile& file : files) {
    CheckRawThread(file, &findings);
    CheckRawRandom(file, &findings);
    CheckKernelWallClock(file, &findings);
    CheckRawTiming(file, &findings);
    CheckRawFileWrite(file, &findings);
    CheckRawGetenv(file, &findings);
    CheckMutexUnguarded(file, &findings);
    CheckNakedLock(file, &findings);
    CheckMutexCoverage(file, &findings);
    CheckIncludeGuard(file, &findings);
    if (TierTu(file.path)) {
      tier_tus_by_dir[Dirname(file.path)].push_back(&file);
    }
  }
  for (const auto& [dir, tus] : tier_tus_by_dir) {
    CheckGemmLiteralDrift(tus, &findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<std::string> DefaultTree(const std::string& root) {
  std::vector<std::string> paths;
  for (const char* top : {"src", "tests", "tools", "bench"}) {
    const fs::path dir = fs::path(root) / top;
    if (!fs::is_directory(dir)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".cc" && ext != ".cpp" && ext != ".inc") {
        continue;
      }
      std::string rel =
          fs::relative(entry.path(), fs::path(root)).generic_string();
      if (StartsWith(rel, "tests/lint/fixtures/")) continue;
      paths.push_back(std::move(rel));
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

std::vector<std::string> RuleDescriptions() {
  return {
      "raw-thread: no std::thread/std::async/pthread_* outside "
      "src/serving/serving.h and tests/testing/threads.h",
      "raw-random: no rand()/srand()/std::random_device outside "
      "src/common/rng.*",
      "kernel-wall-clock: no clock/time calls inside GEMM kernel TUs",
      "raw-timing: no direct std::chrono clock reads outside "
      "src/common/trace.cc and bench/; use trace::NowNs()",
      "gemm-literal-drift: float literals identical across "
      "gemm_kernels_<tier>.cc TUs in one directory",
      "raw-file-write: no std::ofstream/fopen in src/ outside "
      "src/common/file_io.*; durable writes use io::AtomicFileWriter",
      "raw-getenv: no getenv in src/ outside the process-switch readers "
      "listed in EnvSwitchFile",
      "mutex-unguarded: every mutex member has NLIDB_GUARDED_BY state "
      "in the same file",
      "naked-lock: no direct Lock()/Unlock() calls outside the Mutex "
      "wrapper and lockdep internals; use MutexLock / MutexUnlock",
      "mutex-coverage: every field of a mutex-owning class is "
      "NLIDB_GUARDED_BY-annotated, const, atomic, or suppressed with "
      "a rationale",
      "include-guard: headers carry the path-derived NLIDB_* include "
      "guard; #pragma once is banned",
  };
}

std::vector<Suppression> AuditSuppressions(
    const std::vector<SourceFile>& files) {
  // Only real rule ids count: prose like `disable(<rule-id>)` in the
  // checker's own documentation must not consume allowlist budget.
  const std::set<std::string> known = {
      kRawThread,  kRawRandom,      kKernelWallClock, kRawTiming,
      kGemmLiteralDrift, kRawFileWrite, kRawGetenv, kMutexUnguarded,
      kNakedLock, kMutexCoverage, kIncludeGuard};
  std::vector<Suppression> out;
  for (const SourceFile& file : files) {
    for (size_t i = 0; i < file.raw.size(); ++i) {
      for (const std::string& rule : DisabledRulesOn(file.raw[i])) {
        if (!known.count(rule)) continue;
        out.push_back(Suppression{file.path, static_cast<int>(i) + 1, rule});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Suppression& a, const Suppression& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return out;
}

std::vector<SuppressionBudget> ParseAllowlist(
    const std::string& contents, std::vector<std::string>* errors) {
  std::vector<SuppressionBudget> budgets;
  std::istringstream in(contents);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::string t = Trimmed(line);
    if (t.empty() || t[0] == '#') continue;
    std::istringstream fields(t);
    SuppressionBudget b;
    std::string count;
    if (!(fields >> b.file >> b.rule >> count) ||
        (fields >> std::ws, !fields.eof())) {
      errors->push_back("allowlist line " + std::to_string(lineno) +
                        ": expected '<file> <rule> <max_count>', got: " + t);
      continue;
    }
    char* end = nullptr;
    b.max_count = static_cast<int>(std::strtol(count.c_str(), &end, 10));
    if (end == nullptr || *end != '\0' || b.max_count <= 0) {
      errors->push_back("allowlist line " + std::to_string(lineno) +
                        ": max_count must be a positive integer, got: " +
                        count);
      continue;
    }
    budgets.push_back(std::move(b));
  }
  return budgets;
}

std::vector<std::string> CheckSuppressionBudget(
    const std::vector<Suppression>& suppressions,
    const std::vector<SuppressionBudget>& budgets,
    std::vector<std::string>* stale_notes) {
  std::map<std::pair<std::string, std::string>, int> counts;
  for (const Suppression& s : suppressions) ++counts[{s.file, s.rule}];
  std::map<std::pair<std::string, std::string>, int> allowed;
  for (const SuppressionBudget& b : budgets) {
    allowed[{b.file, b.rule}] += b.max_count;
  }
  std::vector<std::string> violations;
  for (const auto& [key, n] : counts) {
    const auto it = allowed.find(key);
    const int budget = it == allowed.end() ? 0 : it->second;
    if (n > budget) {
      violations.push_back(
          key.first + ": " + std::to_string(n) + " suppression(s) of '" +
          key.second + "' but the allowlist budget is " +
          std::to_string(budget) +
          "; new suppressions need a reviewed entry in "
          "tools/lint_suppressions.txt");
    }
  }
  if (stale_notes != nullptr) {
    for (const auto& [key, budget] : allowed) {
      const auto it = counts.find(key);
      const int n = it == counts.end() ? 0 : it->second;
      if (n < budget) {
        stale_notes->push_back(
            key.first + ": allowlist grants " + std::to_string(budget) +
            " suppression(s) of '" + key.second + "' but only " +
            std::to_string(n) + " exist; shrink the entry");
      }
    }
  }
  return violations;
}

}  // namespace lint
}  // namespace nlidb
