#ifndef NLIDB_BENCH_BENCH_JSON_H_
#define NLIDB_BENCH_BENCH_JSON_H_

// Minimal flat-object JSON store for machine-readable bench output.
// Several bench binaries contribute to one BENCH_substrate.json, so the
// store reads the existing file (if any), merges the new keys, and
// rewrites the whole object with sorted keys. Values are numbers or
// strings; no nesting — consumers are dashboards/diff scripts, not a
// general JSON reader.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>

namespace nlidb {
namespace bench {

class FlatJson {
 public:
  /// Loads a flat JSON object; missing or malformed files yield an empty
  /// store (the bench then just rewrites it from scratch).
  static FlatJson Load(const std::string& path) {
    FlatJson out;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return out;
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
    std::fclose(f);
    out.Parse(text);
    return out;
  }

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
  // Tolerant scan for `"key": value` pairs; values are kept as their raw
  // token text (quoted strings keep the quotes) so a merge round-trips.
  void Parse(const std::string& text) {
    size_t pos = 0;
    while ((pos = text.find('"', pos)) != std::string::npos) {
      const size_t key_end = text.find('"', pos + 1);
      if (key_end == std::string::npos) return;
      const std::string key = text.substr(pos + 1, key_end - pos - 1);
      size_t p = key_end + 1;
      while (p < text.size() && std::isspace(static_cast<unsigned char>(text[p]))) ++p;
      if (p >= text.size() || text[p] != ':') {
        pos = key_end + 1;
        continue;
      }
      ++p;
      while (p < text.size() && std::isspace(static_cast<unsigned char>(text[p]))) ++p;
      if (p >= text.size()) return;
      std::string raw;
      if (text[p] == '"') {
        const size_t start = p;
        ++p;
        while (p < text.size() && text[p] != '"') {
          if (text[p] == '\\' && p + 1 < text.size()) ++p;
          ++p;
        }
        if (p < text.size()) ++p;  // closing quote
        raw = text.substr(start, p - start);
      } else {
        const size_t start = p;
        while (p < text.size() && text[p] != ',' && text[p] != '}' &&
               !std::isspace(static_cast<unsigned char>(text[p]))) {
          ++p;
        }
        raw = text.substr(start, p - start);
      }
      if (!raw.empty()) entries_[key] = raw;
      pos = p;
    }
  }

  std::map<std::string, std::string> entries_;
};

/// Shared output path; benches run from the build tree, the driver picks
/// the file up from the working directory.
inline const char* SubstrateJsonPath() {
  const char* v = std::getenv("NLIDB_BENCH_JSON");
  return v != nullptr ? v : "BENCH_substrate.json";
}

/// Output path for bench_decoder's fast-path vs reference report.
inline const char* DecoderJsonPath() {
  const char* v = std::getenv("NLIDB_BENCH_DECODER_JSON");
  return v != nullptr ? v : "BENCH_decoder.json";
}

/// Output path for bench_serving's multi-tenant load report.
inline const char* ServingJsonPath() {
  const char* v = std::getenv("NLIDB_BENCH_SERVING_JSON");
  return v != nullptr ? v : "BENCH_serving.json";
}

/// Output path for bench_schema_scale's registry scaling report.
inline const char* SchemaJsonPath() {
  const char* v = std::getenv("NLIDB_BENCH_SCHEMA_JSON");
  return v != nullptr ? v : "BENCH_schema.json";
}

/// Output path for bench_attack's soak + hardening report.
inline const char* AttackJsonPath() {
  const char* v = std::getenv("NLIDB_BENCH_ATTACK_JSON");
  return v != nullptr ? v : "BENCH_attack.json";
}

}  // namespace bench
}  // namespace nlidb

#endif  // NLIDB_BENCH_BENCH_JSON_H_
