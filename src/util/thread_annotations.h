/// \file thread_annotations.h
/// Clang thread-safety analysis annotations (no-ops on other compilers).
///
/// The macros map onto Clang's `-Wthread-safety` capability analysis
/// (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html): data members
/// are tagged with the lock that protects them (`SODA_GUARDED_BY`),
/// functions declare the locks they need (`SODA_REQUIRES`), acquire
/// (`SODA_ACQUIRE`), or must not hold (`SODA_EXCLUDES`), and the compiler
/// proves every access consistent at build time. The analysis only
/// understands types annotated as capabilities — use `soda::Mutex` /
/// `soda::MutexLock` (util/mutex.h), never raw `std::mutex`
/// (soda-analyze's raw-sync check enforces this repo-wide).
///
/// Builds with Clang enable `-Werror=thread-safety` (see the top-level
/// CMakeLists.txt); GCC builds compile the annotations away.

#ifndef SODA_UTIL_THREAD_ANNOTATIONS_H_
#define SODA_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define SODA_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SODA_THREAD_ANNOTATION(x)  // no-op
#endif

/// Marks a type as a lock (a "capability" the analysis tracks).
#define SODA_CAPABILITY(name) SODA_THREAD_ANNOTATION(capability(name))

/// Marks an RAII type that acquires a capability in its constructor and
/// releases it in its destructor (MutexLock).
#define SODA_SCOPED_CAPABILITY SODA_THREAD_ANNOTATION(scoped_lockable)

/// Data member protected by a lock: every read/write must hold it.
#define SODA_GUARDED_BY(x) SODA_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose *pointee* is protected by a lock.
#define SODA_PT_GUARDED_BY(x) SODA_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function that must be called with the lock(s) held.
#define SODA_REQUIRES(...) \
  SODA_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function that acquires the lock(s) and returns holding them.
#define SODA_ACQUIRE(...) \
  SODA_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function that releases the lock(s).
#define SODA_RELEASE(...) \
  SODA_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function that must NOT be called with the lock(s) held (deadlock
/// prevention: it acquires them itself).
#define SODA_EXCLUDES(...) \
  SODA_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Lock-ordering declarations: this lock must be acquired after/before
/// the named ones (documents and checks the global lock order).
#define SODA_ACQUIRED_AFTER(...) \
  SODA_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define SODA_ACQUIRED_BEFORE(...) \
  SODA_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))

/// Function returning a reference/pointer to the given capability, so
/// callers can lock it through the accessor (e.g. `MutexLock
/// lock(wal->mu())`).
#define SODA_RETURN_CAPABILITY(x) SODA_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch for code the analysis cannot model (use sparingly; every
/// use should explain why the access is safe).
#define SODA_NO_THREAD_SAFETY_ANALYSIS \
  SODA_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // SODA_UTIL_THREAD_ANNOTATIONS_H_
