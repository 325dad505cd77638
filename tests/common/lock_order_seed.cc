// Seeded lock-order cycles on nlidb::Mutex, for TSan builds only.
//
// Usage: lock_order_seed abba|cycle3
//
// Each case takes its locks on one thread, so it never deadlocks; the
// order graph still closes a cycle. TSan's deadlock detector reports
// that as "ThreadSanitizer: lock-order-inversion", which is what the
// lock_order_seed_* ctest entries match on. A build whose detector is
// off prints only "no inversion reported" and the entry fails.

#include <cstdio>
#include <cstring>

#include "common/mutex.h"

namespace {

using nlidb::Mutex;
using nlidb::MutexLock;

/// Takes `first` then `second`, and releases both.
void Nest(Mutex& first, Mutex& second) {
  MutexLock hold_first(first);
  MutexLock hold_second(second);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: lock_order_seed abba|cycle3\n");
    return 2;
  }
  Mutex a;
  Mutex b;
  Mutex c;
  if (std::strcmp(argv[1], "abba") == 0) {
    Nest(a, b);
    Nest(b, a);
  } else if (std::strcmp(argv[1], "cycle3") == 0) {
    // c -> a closes a -> b -> c -> a with no direct a/c inversion.
    Nest(a, b);
    Nest(b, c);
    Nest(c, a);
  } else {
    std::fprintf(stderr, "unknown case '%s'\n", argv[1]);
    return 2;
  }
  std::printf("no inversion reported\n");
  return 0;
}
