// rpqres — fault/failpoints: deterministic failpoint registry for the
// storage stack.
//
// Every storage syscall in segment.cc / journal.cc goes through a named
// failpoint *site* (fault::Write, fault::Fsync, ...). When no site is armed
// the wrappers cost one relaxed atomic load before the real syscall —
// failpoints stay compiled into production builds (storage_timing_test
// pins the disabled overhead at <= 1% of a commit).
//
// A site is armed with a FaultSpec: a *kind* (what goes wrong) plus a
// *trigger* (when it goes wrong). Triggers are fully deterministic: a seeded
// SplitMix64 stream drives fire-with-probability, and fire-on-Nth counts
// evaluations at the site. The same (site, spec) always fires at the same
// evaluation indices, which is what makes the crash-chaos sweep replayable
// from a single uint64 seed.
//
// Verdict semantics at a site:
//   kEIO / kENOSPC  the wrapped syscall is NOT performed; the wrapper
//                   returns -1 (MAP_FAILED for mmap) with errno set.
//   kShortWrite     (write sites) only `fraction` of the buffer is written
//                   and the short count is returned — exercises callers'
//                   write loops. Non-write sites treat it as kEIO.
//   kTornWrite      (write sites) `fraction` of the buffer is written, then
//                   the call fails with errno — a torn write: bytes hit the
//                   file but the caller sees an error. Non-write sites
//                   treat it as kEIO.
//   kCrash          the process _exit()s with kCrashExitStatus before the
//                   syscall (write sites first write `fraction` of the
//                   buffer, so a crash can also tear). Only meaningful
//                   under fork(), which is how the chaos harness uses it.

#ifndef RPQRES_FAULT_FAILPOINTS_H_
#define RPQRES_FAULT_FAILPOINTS_H_

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace rpqres::fault {

/// Exit status used by kCrash verdicts. The chaos harness forks a child,
/// lets it crash at an armed site, and treats this status as "crashed as
/// injected" (any other non-zero status is a real failure).
inline constexpr int kCrashExitStatus = 42;

/// What goes wrong when a failpoint fires.
enum class FaultKind : uint8_t {
  kNone = 0,
  kEIO,         // syscall fails, errno = EIO
  kENOSPC,      // syscall fails, errno = ENOSPC
  kShortWrite,  // write sites: partial write, short count returned
  kTornWrite,   // write sites: partial write, then the call errors
  kCrash,       // _exit(kCrashExitStatus) at the site
};

const char* FaultKindName(FaultKind kind);

/// When a failpoint fires. All triggers are evaluated deterministically.
enum class Trigger : uint8_t {
  kAlways,           // every evaluation
  kOnNth,            // exactly the nth evaluation (1-based), once
  kOnce,             // the first evaluation, once (== kOnNth with n = 1)
  kWithProbability,  // each evaluation, with probability p (seeded stream)
};

/// A fully-specified armed fault: kind + trigger + knobs.
struct FaultSpec {
  FaultKind kind = FaultKind::kNone;
  Trigger trigger = Trigger::kAlways;
  uint64_t nth = 1;          // kOnNth: which evaluation fires (1-based)
  double probability = 0.0;  // kWithProbability: chance per evaluation
  uint64_t seed = 0;         // kWithProbability: SplitMix64 stream seed
  double fraction = 0.5;     // short/torn/crash writes: bytes written share

  static FaultSpec Always(FaultKind kind) {
    FaultSpec s;
    s.kind = kind;
    s.trigger = Trigger::kAlways;
    return s;
  }
  static FaultSpec OnNth(FaultKind kind, uint64_t nth) {
    FaultSpec s;
    s.kind = kind;
    s.trigger = Trigger::kOnNth;
    s.nth = nth;
    return s;
  }
  static FaultSpec Once(FaultKind kind) {
    FaultSpec s;
    s.kind = kind;
    s.trigger = Trigger::kOnce;
    return s;
  }
  static FaultSpec WithProbability(FaultKind kind, double p, uint64_t seed) {
    FaultSpec s;
    s.kind = kind;
    s.trigger = Trigger::kWithProbability;
    s.probability = p;
    s.seed = seed;
    return s;
  }
};

/// Outcome of evaluating a site: either nothing (kind == kNone) or the
/// armed fault, resolved for this evaluation.
struct FaultVerdict {
  FaultKind kind = FaultKind::kNone;
  int err = 0;            // errno to inject (EIO / ENOSPC)
  double fraction = 0.5;  // write sites: share of the buffer to write

  bool fired() const { return kind != FaultKind::kNone; }
};

/// Per-site evaluation/fire counters, for tests and the chaos report.
struct SiteStats {
  std::string site;
  int64_t evaluations = 0;
  int64_t fires = 0;
};

/// Names of every failpoint site compiled into the storage stack. The
/// chaos sweep iterates this list so a newly added site is crash-tested
/// without further registration.
namespace sites {
inline constexpr const char* kSegmentOpen = "storage/segment.open";
inline constexpr const char* kSegmentWrite = "storage/segment.write";
inline constexpr const char* kSegmentFsync = "storage/segment.fsync";
inline constexpr const char* kSegmentClose = "storage/segment.close";
inline constexpr const char* kSegmentRename = "storage/segment.rename";
inline constexpr const char* kSegmentDirFsync = "storage/segment.dir_fsync";
inline constexpr const char* kSegmentMmap = "storage/segment.mmap";
inline constexpr const char* kJournalOpen = "storage/journal.open";
inline constexpr const char* kJournalWrite = "storage/journal.write";
inline constexpr const char* kJournalFsync = "storage/journal.fsync";
inline constexpr const char* kJournalTruncate = "storage/journal.truncate";
inline constexpr const char* kJournalClose = "storage/journal.close";
}  // namespace sites

/// All known site names, in a stable order.
const std::vector<std::string_view>& KnownSites();

/// Process-global registry of armed failpoints. Arm/disarm are test-only
/// operations guarded by a mutex; the hot path (Enabled()) is a single
/// relaxed atomic load.
class FailpointRegistry {
 public:
  static FailpointRegistry& Instance();

  /// Arms `site` with `spec`, replacing any previous arming (counters for
  /// the site reset).
  void Arm(std::string_view site, const FaultSpec& spec) RPQRES_EXCLUDES(mu_);
  /// Disarms `site`; evaluation counters for it are kept until ResetAll.
  void Disarm(std::string_view site) RPQRES_EXCLUDES(mu_);
  /// Disarms every site and clears all counters.
  void ResetAll() RPQRES_EXCLUDES(mu_);

  /// True iff at least one site is armed (relaxed load, hot path).
  bool Enabled() const {
    return armed_count_.load(std::memory_order_relaxed) > 0;
  }

  /// Slow path: resolves the verdict for one evaluation of `site`.
  FaultVerdict Evaluate(std::string_view site) RPQRES_EXCLUDES(mu_);

  /// Counters for every site that has been armed or evaluated.
  std::vector<SiteStats> Stats() const RPQRES_EXCLUDES(mu_);
  /// Total fires across all sites since the last ResetAll.
  int64_t TotalFires() const RPQRES_EXCLUDES(mu_);

  /// The registry's internal mutex, exposed ONLY as a name for lock-order
  /// annotations (DbRegistry::mu_ is RPQRES_ACQUIRED_BEFORE this one:
  /// commits hold the registry mutex across storage syscalls, whose
  /// failpoint checks take this mutex). Never lock it directly.
  Mutex& AnnotationMu() RPQRES_RETURN_CAPABILITY(mu_) { return mu_; }

 private:
  /// One site's armed spec + deterministic trigger state + counters.
  struct SiteState {
    FaultSpec spec;
    bool armed = false;
    uint64_t rng_state = 0;  // kWithProbability stream
    int64_t evaluations = 0;
    int64_t fires = 0;
  };

  FailpointRegistry() = default;

  /// Hot-path gate, updated under mu_ but read with a relaxed load.
  std::atomic<int> armed_count_{0};
  mutable Mutex mu_;
  std::map<std::string, SiteState, std::less<>> sites_ RPQRES_GUARDED_BY(mu_);
  // The Instance() singleton is heap-allocated and never freed, so this
  // state has process lifetime — a crash-handler or atexit-ordered reader
  // can still evaluate sites.
};

/// Evaluates `site` against the global registry. Returns a non-fired
/// verdict in one relaxed atomic load when nothing is armed.
inline FaultVerdict Check(std::string_view site) {
  FailpointRegistry& reg = FailpointRegistry::Instance();
  if (!reg.Enabled()) return FaultVerdict{};
  return reg.Evaluate(site);
}

// ---------------------------------------------------------------------------
// Syscall wrappers. Each consults its site, then performs (or sabotages)
// the real syscall. Signatures mirror the wrapped call.

ssize_t Write(const char* site, int fd, const void* buf, size_t count);
int Fsync(const char* site, int fd);
int Rename(const char* site, const char* from, const char* to);
int Open(const char* site, const char* path, int flags, mode_t mode = 0);
int Close(const char* site, int fd);
int Ftruncate(const char* site, int fd, off_t length);
void* Mmap(const char* site, void* addr, size_t length, int prot, int flags,
           int fd, off_t offset);

}  // namespace rpqres::fault

#endif  // RPQRES_FAULT_FAILPOINTS_H_
