#ifndef NLIDB_COMMON_WORKSPACE_H_
#define NLIDB_COMMON_WORKSPACE_H_

#include <cstddef>
#include <vector>

namespace nlidb {

/// A reusable bump arena for forward-pass float temporaries.
///
/// Inference code that needs short-lived staging buffers (stacked batch
/// inputs, score rows, influence profiles) acquires them with `Floats(n)`
/// and releases everything at once with `Reset()` at the start of the next
/// request. Blocks are retained across Reset, so after a warmup request
/// the arena serves every subsequent request without touching the
/// allocator. Alignment is 64 bytes (one cache line / one AVX-512 lane)
/// so arena buffers are as kernel-friendly as heap ones.
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

  /// A zero-initialized scratch buffer of `n` floats, valid until Reset()
  /// or the destruction of an enclosing Scope. Discarding the result
  /// leaks the reservation until Reset, so it is a compile error.
  [[nodiscard]] float* Floats(size_t n);

  /// RAII rewind point: buffers acquired inside the scope are released
  /// when it ends, buffers acquired before it stay live. Lets leaf
  /// helpers use the arena without coordinating a global Reset.
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
    int live_;
  };

  /// Releases every buffer handed out since the last Reset. Capacity is
  /// retained: the high-water block set is kept for reuse.
  void Reset();

  /// Total floats currently reserved across all blocks (monotone under
  /// Reset; grows only when a request exceeds the high-water mark).
  size_t reserved() const;

  /// Buffers handed out since the last Reset.
  int live_buffers() const { return live_buffers_; }

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
  int live_buffers_ = 0;
};

}  // namespace nlidb

#endif  // NLIDB_COMMON_WORKSPACE_H_
