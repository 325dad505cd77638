#ifndef NLIDB_COMMON_WORKSPACE_H_
#define NLIDB_COMMON_WORKSPACE_H_

#include <cstddef>
#include <vector>

namespace nlidb {

/// A reusable bump arena for forward-pass float temporaries.
///
/// Inference code that needs short-lived staging buffers (stacked batch
/// inputs, score rows, influence profiles) opens a `Scope`, acquires them
/// with `Floats(n)`, and releases them all when the scope ends. Blocks are
/// retained when a scope rewinds, so after a warmup request the arena
/// serves every subsequent request without touching the allocator.
/// Consecutive buffers start 16 floats (64 bytes) apart relative to the
/// start of their block; a block is a `std::vector<float>`, so its own
/// start, and with it each buffer's absolute alignment, is whatever the
/// allocator returned. The tensor kernels use unaligned loads.
///
/// Thread-compatible, not thread-safe: a Workspace is owned by exactly
/// one thread and carries no lock — `ThreadLocal()` hands each thread
/// its own arena (each serving worker gets its own, so concurrent
/// requests never contend). That single-owner contract is what the TSan
/// runs verify dynamically; statically it is encoded by this class having no
/// Mutex (the mutex-unguarded lint rule fires on any lock added here
/// without NLIDB_GUARDED_BY state) and by every cross-thread entry point
/// going through ThreadLocal().
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// A zero-initialized scratch buffer of `n` floats, valid until the
  /// innermost enclosing Scope ends (for the arena's lifetime when no
  /// Scope is open). Discarding the result only wastes arena space until
  /// then, so it is a compile error.
  [[nodiscard]] float* Floats(size_t n);

  /// RAII rewind point: buffers acquired inside the scope are released
  /// when it ends, buffers acquired before it stay live, and every block
  /// is retained for reuse. Lets leaf helpers use the arena without
  /// coordinating with their callers.
  /// Like the arena itself, a Scope is pinned to the constructing thread.
  class [[nodiscard]] Scope {
   public:
    explicit Scope(Workspace& ws);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Workspace* ws_;
    size_t block_;
    size_t used_;
  };

  /// The calling thread's arena.
  static Workspace& ThreadLocal();

 private:
  // Each block is a single allocation serving many bump-allocated
  // buffers; a request larger than the default block gets its own block.
  static constexpr size_t kBlockFloats = 1 << 16;  // 256 KiB per block
  struct Block {
    std::vector<float> data;
    size_t used = 0;
  };
  std::vector<Block> blocks_;
  size_t active_block_ = 0;
};

}  // namespace nlidb

#endif  // NLIDB_COMMON_WORKSPACE_H_
