#ifndef NLIDB_COMMON_THREAD_ANNOTATIONS_H_
#define NLIDB_COMMON_THREAD_ANNOTATIONS_H_

// Clang thread-safety-analysis attribute macros (DESIGN.md "Static
// contract architecture").
//
// Concurrency invariants that PR 1/PR 2 could only check at runtime
// (sanitizers must hit the bad interleaving) are declared here so the
// compiler proves them on every build:
//
//   class Queue {
//     Mutex mu_;
//     std::deque<int> items_ NLIDB_GUARDED_BY(mu_);
//     void PopLocked() NLIDB_EXCLUSIVE_LOCKS_REQUIRED(mu_);
//   };
//
// Under clang with -Wthread-safety (the NLIDB_ANALYZE=ON preset, which
// also adds -Werror) an access to `items_` without holding `mu_` is a
// compile error. On every other compiler the macros expand to nothing,
// so the annotations are pure documentation with zero cost.
//
// The attributes only fire for lock types that are themselves annotated;
// std::mutex is not, which is why the repository locks through the
// annotated `nlidb::Mutex` / `nlidb::MutexLock` wrappers in
// common/mutex.h rather than std::lock_guard<std::mutex>.

#if defined(__clang__) && !defined(SWIG)
#define NLIDB_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define NLIDB_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

/// Declares a type as a lockable capability, e.g.
/// `class NLIDB_CAPABILITY("mutex") Mutex`.
#define NLIDB_CAPABILITY(x) NLIDB_THREAD_ANNOTATION_(capability(x))

/// Declares an RAII type that acquires a capability in its constructor
/// and releases it in its destructor (e.g. `MutexLock`).
#define NLIDB_SCOPED_CAPABILITY NLIDB_THREAD_ANNOTATION_(scoped_lockable)

/// Data member is protected by the given capability: reads require the
/// lock held (shared or exclusive), writes require it exclusive.
#define NLIDB_GUARDED_BY(x) NLIDB_THREAD_ANNOTATION_(guarded_by(x))

/// Pointer member whose *pointee* is protected by the given capability.
#define NLIDB_PT_GUARDED_BY(x) NLIDB_THREAD_ANNOTATION_(pt_guarded_by(x))

/// Function requires the listed capabilities held exclusively on entry
/// (and does not release them).
#define NLIDB_EXCLUSIVE_LOCKS_REQUIRED(...) \
  NLIDB_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// Function requires the listed capabilities held at least shared.
#define NLIDB_SHARED_LOCKS_REQUIRED(...) \
  NLIDB_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define NLIDB_ACQUIRE(...) \
  NLIDB_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// Function releases a held capability.
#define NLIDB_RELEASE(...) \
  NLIDB_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock prevention for
/// functions that acquire them internally).
#define NLIDB_LOCKS_EXCLUDED(...) \
  NLIDB_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability (lock accessors).
#define NLIDB_RETURN_CAPABILITY(x) \
  NLIDB_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: disables analysis for one function. Every use must
/// carry a comment explaining which invariant makes it safe.
#define NLIDB_NO_THREAD_SAFETY_ANALYSIS \
  NLIDB_THREAD_ANNOTATION_(no_thread_safety_analysis)

#endif  // NLIDB_COMMON_THREAD_ANNOTATIONS_H_
