// Fixture: the same raw-getenv violations waived by disable comments
// (same line and preceding line).
#include <cstdlib>
#include <string>

int ShortlistWidth() {
  const char* v = std::getenv("K");  // nlidb-lint: disable(raw-getenv)
  return v != nullptr ? std::atoi(v) : 16;
}

std::string DecodeMode() {
  // nlidb-lint: disable(raw-getenv)
  const char* v = ::getenv("DECODE");
  return v != nullptr ? v : "fast";
}
