#include "common/workspace.h"

#include <algorithm>
#include <cstring>

namespace nlidb {

namespace {

// Rounds a float count up so consecutive buffers stay 64-byte aligned
// (16 floats) relative to the block start: no buffer starts mid cache
// line after its predecessor's tail. std::vector<float> data is 16-byte
// aligned at minimum, which is enough for the unaligned-load kernels in
// tensor/.
size_t AlignCount(size_t n) { return (n + 15u) & ~size_t{15u}; }

}  // namespace

float* Workspace::Floats(size_t n) {
  const size_t need = AlignCount(std::max<size_t>(n, 1));
  while (active_block_ < blocks_.size()) {
    Block& b = blocks_[active_block_];
    if (b.used + need <= b.data.size()) {
      float* out = b.data.data() + b.used;
      b.used += need;
      std::memset(out, 0, n * sizeof(float));
      return out;
    }
    ++active_block_;
  }
  Block fresh;
  fresh.data.resize(std::max(need, kBlockFloats));
  fresh.used = need;
  blocks_.push_back(std::move(fresh));
  active_block_ = blocks_.size() - 1;
  float* out = blocks_.back().data.data();
  std::memset(out, 0, n * sizeof(float));
  return out;
}

Workspace::Scope::Scope(Workspace& ws)
    : ws_(&ws),
      block_(ws.active_block_),
      used_(ws.blocks_.empty() ? 0 : ws.blocks_[ws.active_block_].used) {}

Workspace::Scope::~Scope() {
  // Rewind every block past the snapshot point; blocks themselves are
  // retained for reuse.
  for (size_t b = block_; b < ws_->blocks_.size(); ++b) {
    ws_->blocks_[b].used = b == block_ ? used_ : 0;
  }
  ws_->active_block_ = block_;
}

Workspace& Workspace::ThreadLocal() {
  thread_local Workspace ws;
  return ws;
}

}  // namespace nlidb
