#ifndef NLIDB_BENCH_BENCH_JSON_H_
#define NLIDB_BENCH_BENCH_JSON_H_

// Minimal flat-object JSON store for machine-readable bench output.
// Each BENCH_*.json file has exactly one writer binary, which builds the
// whole object in memory and rewrites the file with sorted keys, so a
// key the writer no longer sets does not survive a rerun. Values are
// numbers or strings; no nesting — consumers are dashboards/diff
// scripts, not a general JSON reader.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

namespace nlidb {
namespace bench {

class FlatJson {
 public:
  void Set(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    entries_[key] = buf;
  }

  void Set(const std::string& key, long long value) {
    entries_[key] = std::to_string(value);
  }

  void Set(const std::string& key, int value) {
    entries_[key] = std::to_string(value);
  }

  void SetString(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted.push_back('\\');
      quoted.push_back(c);
    }
    quoted.push_back('"');
    entries_[key] = quoted;
  }

  bool Save(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    std::fputs("{\n", f);
    size_t i = 0;
    for (const auto& [key, raw] : entries_) {
      std::fprintf(f, "  \"%s\": %s%s\n", key.c_str(), raw.c_str(),
                   ++i < entries_.size() ? "," : "");
    }
    std::fputs("}\n", f);
    std::fclose(f);
    return true;
  }

  size_t size() const { return entries_.size(); }

 private:
  std::map<std::string, std::string> entries_;
};

/// Output path for bench_micro_substrate's GEMM and tanh report. Every
/// path is relative to the working directory; the `bench_json` CMake
/// target runs the writers from the source root.
inline const char* SubstrateJsonPath() {
  const char* v = std::getenv("NLIDB_BENCH_JSON");
  return v != nullptr ? v : "BENCH_substrate.json";
}

/// Output path for bench_schema_scale's registry scaling report.
inline const char* SchemaJsonPath() {
  const char* v = std::getenv("NLIDB_BENCH_SCHEMA_JSON");
  return v != nullptr ? v : "BENCH_schema.json";
}

/// Output path for bench_attack's attack + hardening report.
inline const char* AttackJsonPath() {
  const char* v = std::getenv("NLIDB_BENCH_ATTACK_JSON");
  return v != nullptr ? v : "BENCH_attack.json";
}

}  // namespace bench
}  // namespace nlidb

#endif  // NLIDB_BENCH_BENCH_JSON_H_
