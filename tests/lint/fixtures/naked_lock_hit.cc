// Lint fixture: direct Lock()/Unlock() calls outside the RAII guards.
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace nlidb {

Mutex g_mu;
int g_total NLIDB_GUARDED_BY(g_mu) = 0;

void Manual() {
  g_mu.Lock();
  g_mu.Unlock();
}

void ManualLowercase(Mutex* mu) {
  mu->lock();
  mu->unlock();
}

}  // namespace nlidb
