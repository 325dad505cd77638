// Fixture: raw-getenv positive hits. The rule is scoped to production
// code, so the test lints this file under a virtual src/core/ path.
#include <cstdlib>
#include <string>

int ShortlistWidthWrong() {
  const char* v = std::getenv("K");  // answer-changing knob
  return v != nullptr ? std::atoi(v) : 16;
}

std::string DecodeModeWrong() {
  const char* v = ::getenv("DECODE");
  return v != nullptr ? v : "fast";
}
