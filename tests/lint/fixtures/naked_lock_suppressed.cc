// Lint fixture: the same naked acquisitions, waived line by line.
#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace nlidb {

Mutex g_mu;
int g_total NLIDB_GUARDED_BY(g_mu) = 0;

void Manual() {
  g_mu.Lock();  // nlidb-lint: disable(naked-lock)
  // nlidb-lint: disable(naked-lock)
  g_mu.Unlock();
}

}  // namespace nlidb
