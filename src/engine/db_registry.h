// rpqres — engine/db_registry: named, versioned database lineages.
//
// Registry v2 knew whole immutable snapshots: any single-fact change
// forced a full GraphDb copy plus a from-scratch LabelIndex rebuild, and
// gave the engine no version key to cache answers against. v3 keeps the
// snapshot model — every version is immutable, refcounted, and survives
// deregistration while handles exist — but organizes snapshots into
// *lineages* with delta commits:
//
//   DbRegistry registry;
//   DbHandle v1 = registry.Register(std::move(graph), "orders");
//   DeltaBatch delta = registry.BeginDelta(v1);
//   delta.AddFact(u, 'a', v);
//   delta.RemoveFact(w, 'b', u);
//   DbHandle v2 = *delta.Commit();        // version 2, shares v1's facts
//   registry.Resolve("orders@latest");    // == v2
//   registry.Resolve("orders@1");         // == v1
//
// A commit produces a copy-on-write snapshot (GraphDb::MakeOverlay):
// facts live in the lineage's immutable flat base plus per-version
// add/tombstone overlays, and the LabelIndex is patched incrementally —
// only the labels the delta touched are rebuilt — so commit cost scales
// with the delta (plus the touched labels' facts), not the database.
// When the accumulated overlay crosses the compaction threshold the
// commit folds everything back into a fresh flat base.
//
// Lineage histories are linear: committing a delta whose parent is no
// longer the lineage's latest version fails with Aborted (optimistic
// concurrency — re-begin from the new latest and retry). The
// (lineage, version) pair on every handle is the immutable identity the
// engine's ResultCache keys resilience answers by.

#ifndef RPQRES_ENGINE_DB_REGISTRY_H_
#define RPQRES_ENGINE_DB_REGISTRY_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/failpoints.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "storage/journal.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace rpqres {

class RegistryStorage;  // engine/db_registry.cc; owns the on-disk state

/// Storage health of a persistent registry. Healthy registries serve and
/// persist; a degraded registry is read-only (commits fail with
/// kUnavailable, reads keep serving from memory); a failed registry saw
/// storage corruption (kDataLoss) and should be drained. Non-persistent
/// registries are always healthy. Transitions are one-way:
/// healthy -> degraded -> failed.
enum class HealthState {
  kHealthy = 0,
  kDegraded = 1,
  kFailed = 2,
};

/// "healthy" / "degraded" / "failed".
const char* HealthStateName(HealthState state);

/// One immutable registered database version: the owned GraphDb (flat for
/// version 1 and compacted versions, a copy-on-write overlay otherwise)
/// plus everything precomputed for it. Shared (shared_ptr-to-const)
/// between the registry and any number of outstanding handles / in-flight
/// requests.
struct DbSnapshot {
  /// Registry-unique snapshot id.
  uint64_t id = 0;
  /// Lineage this version belongs to (== the id of version 1).
  uint64_t lineage = 0;
  /// 1-based position in the lineage's linear history.
  uint32_t version = 1;
  /// Optional display name given at Register time (shared by the whole
  /// lineage; Resolve/Find look it up).
  std::string name;
  /// The database, owned.
  GraphDb db;
  /// Per-label fact adjacency — full-built at Register, incrementally
  /// patched by delta commits.
  LabelIndex label_index;
  /// True when the commit that produced this version folded the
  /// accumulated overlay into a fresh flat base.
  bool compacted = false;
};

/// A value-type reference to a registered database version. Default
/// constructed handles are invalid; every accessor below is safe on an
/// invalid handle except db(), and requests carrying an invalid handle
/// fail with InvalidArgument instead of crashing.
class DbHandle {
 public:
  DbHandle() = default;

  /// True iff the handle points at a snapshot.
  bool valid() const { return snapshot_ != nullptr; }
  /// The database. Must not be called on an invalid handle.
  const GraphDb& db() const { return snapshot_->db; }
  /// The precomputed per-label index, or nullptr for an invalid handle.
  const LabelIndex* label_index() const {
    return snapshot_ != nullptr ? &snapshot_->label_index : nullptr;
  }
  /// Snapshot id; 0 for an invalid handle (registry ids start at 1).
  uint64_t id() const { return snapshot_ != nullptr ? snapshot_->id : 0; }
  /// Lineage id; 0 for an invalid handle.
  uint64_t lineage() const {
    return snapshot_ != nullptr ? snapshot_->lineage : 0;
  }
  /// 1-based version within the lineage; 0 for an invalid handle.
  uint32_t version() const {
    return snapshot_ != nullptr ? snapshot_->version : 0;
  }
  /// Lineage name; the empty string for an invalid (or unnamed) handle.
  const std::string& name() const;

 private:
  friend class DbRegistry;
  friend class DeltaBatch;
  explicit DbHandle(std::shared_ptr<const DbSnapshot> snapshot)
      : snapshot_(std::move(snapshot)) {}

  std::shared_ptr<const DbSnapshot> snapshot_;
};

class DbRegistry;

/// A mutation batch against one parent version. Obtained from
/// DbRegistry::BeginDelta, filled with AddNode/AddFact/RemoveFact, and
/// turned into the next version by Commit (one-shot). A batch applies its
/// operations eagerly to a private copy-on-write overlay, so AddFact
/// returns real fact ids and RemoveFact validates immediately; nothing is
/// visible to readers until Commit succeeds. Not thread-safe (one writer
/// per batch); distinct batches are independent.
class DeltaBatch {
 public:
  DeltaBatch() = default;
  /// Moves invalidate the source: a moved-from batch reports
  /// valid() == false and refuses mutations and Commit.
  DeltaBatch(DeltaBatch&& other) noexcept { *this = std::move(other); }
  DeltaBatch& operator=(DeltaBatch&& other) noexcept {
    registry_ = std::exchange(other.registry_, nullptr);
    parent_ = std::move(other.parent_);
    work_ = std::move(other.work_);
    touched_labels_ = std::move(other.touched_labels_);
    touched_ = other.touched_;
    ops_ = other.ops_;
    committed_ = other.committed_;
    record_ops_ = other.record_ops_;
    oplog_ = std::move(other.oplog_);
    return *this;
  }

  /// False for default-constructed, BeginDelta-on-invalid-handle, or
  /// already-committed batches. Mutations on an invalid batch fail.
  bool valid() const { return registry_ != nullptr && !committed_; }

  /// Appends a node; ids continue the parent's node space.
  NodeId AddNode(std::string name = "");
  /// Adds (or multiplicity-bumps) a fact between existing nodes (parent
  /// or batch-added). InvalidArgument on out-of-range node ids, and when
  /// the fact's multiplicity, bumps included, would leave
  /// [1, kMaxMultiplicity].
  Result<FactId> AddFact(NodeId source, char label, NodeId target,
                         Capacity multiplicity = 1);
  /// Tombstones a live fact; NotFound when no such fact exists.
  Status RemoveFact(NodeId source, char label, NodeId target);

  /// Operations recorded so far (adds + removes + nodes).
  int64_t num_ops() const { return ops_; }

  /// Publishes the batch as the parent lineage's next version and
  /// returns its handle. Fails with Aborted when another commit advanced
  /// the lineage first (re-begin and retry), NotFound when the lineage
  /// was unregistered, FailedPrecondition on an invalid/consumed batch.
  Result<DbHandle> Commit();

 private:
  friend class DbRegistry;
  DeltaBatch(DbRegistry* registry, std::shared_ptr<const DbSnapshot> parent);

  void TouchLabel(char label);

  DbRegistry* registry_ = nullptr;
  std::shared_ptr<const DbSnapshot> parent_;
  GraphDb work_;
  /// Labels whose fact set the batch changed, deduplicated — the
  /// incremental LabelIndex rebuilds exactly these.
  std::vector<char> touched_labels_;
  std::array<bool, 256> touched_{};
  int64_t ops_ = 0;
  bool committed_ = false;
  /// True when the registry is persistent and this batch's operations
  /// must be journaled at Commit (false during journal replay).
  bool record_ops_ = false;
  std::vector<storage::JournalOp> oplog_;
};

/// Thread-safe registry of versioned database lineages. Unregistering (or
/// destroying the registry) drops only the registry's references —
/// outstanding DbHandles keep their snapshots alive, so in-flight
/// requests never race a deregistration.
class DbRegistry {
 public:
  struct Options {
    /// A commit compacts (folds overlays into a fresh flat base) once the
    /// accumulated overlay exceeds
    /// max(compaction_min_overlay, compaction_fraction * live facts).
    int64_t compaction_min_overlay = 256;
    double compaction_fraction = 0.25;
    /// When non-empty, the registry is *persistent*: Register writes
    /// each lineage's flat base as a segment file under this
    /// directory, every delta commit appends to the lineage's journal
    /// before publishing, and a compacting commit folds the journal into
    /// a fresh segment. Reopen with DbRegistry::OpenStorage(dir), which
    /// restores every lineage to its exact pre-restart (lineage,
    /// version) state — the durable history window is [version of the
    /// last written segment, latest]; versions older than the last
    /// compaction are only reachable while the process lives.
    /// Storage write failures never fail *reads*: after a failed write
    /// the registry degrades to read-only (health() != kHealthy) and
    /// every subsequent commit fails with kUnavailable carrying the
    /// latched cause — a commit is only ever acknowledged durable.
    std::string storage_dir;
    /// Transient storage errors (kUnavailable: EIO/ENOSPC-class, where a
    /// retry rewrites its whole payload) are retried up to this many
    /// times before the registry degrades. 0 disables retry.
    int storage_retry_attempts = 3;
    /// Backoff before the first retry, doubling per attempt.
    int64_t storage_retry_backoff_micros = 1000;
  };

  struct Stats {
    int64_t registered = 0;    ///< Register calls since construction
    int64_t unregistered = 0;  ///< snapshots dropped (incl. lineage drops)
    int64_t commits = 0;       ///< successful delta commits
    int64_t commit_conflicts = 0;  ///< commits refused with Aborted
    int64_t compactions = 0;   ///< commits that folded their overlay
    /// Failed storage write attempts: the sum of storage_fault_counts().
    int64_t storage_faults = 0;
    int64_t storage_retries = 0;   ///< transient faults that were retried
    int64_t commits_unavailable = 0;  ///< commits shed/rolled back kUnavailable
  };

  /// Instantaneous shape of the registry — the read-amplification signal
  /// the metrics exporter publishes (and a future background compactor
  /// would watch). Latest-version figures sum over each lineage's current
  /// latest snapshot only; retained older versions contribute to
  /// `snapshots` and `max_version_depth`.
  struct Gauges {
    int64_t lineages = 0;
    int64_t snapshots = 0;          ///< registered snapshots, all versions
    int64_t max_version_depth = 0;  ///< most resident versions in a lineage
    int64_t nodes = 0;              ///< nodes across latest versions
    int64_t live_facts = 0;         ///< live facts across latest versions
    int64_t dead_facts = 0;         ///< tombstoned ids across latest versions
    int64_t overlay_facts = 0;      ///< overlay adds+tombstones across latest

    // Storage gauges — all zero for a non-persistent registry.
    int64_t storage_persistent = 0;      ///< 1 when storage_dir is set
    int64_t storage_segment_bytes = 0;   ///< on-disk bytes across segments
    int64_t storage_journal_records = 0; ///< records across live journals
    int64_t storage_journal_bytes = 0;   ///< on-disk bytes across journals
    int64_t storage_replay_micros = 0;   ///< time the last Restore spent
    int64_t storage_health = 0;          ///< HealthState as an integer
    int64_t storage_swept_tmp_files = 0; ///< *.tmp files swept at Restore
  };

  DbRegistry();
  explicit DbRegistry(Options options);
  ~DbRegistry();

  /// Moves `db` into a fresh immutable snapshot — version 1 of a new
  /// lineage — builds its label index, and returns a handle. Ids are
  /// unique per registry, starting at 1. Names need not be unique;
  /// Find/Resolve see the most recently registered lineage per name.
  DbHandle Register(GraphDb db, std::string name = "") RPQRES_EXCLUDES(mu_);

  /// Starts a delta against `parent`'s version. An invalid parent yields
  /// an invalid batch (whose Commit fails with FailedPrecondition).
  DeltaBatch BeginDelta(const DbHandle& parent) RPQRES_EXCLUDES(mu_);

  /// Drops the registry's reference to snapshot `id`; returns false when
  /// absent. Handles already handed out stay valid. Dropping a lineage's
  /// latest version makes the highest remaining version latest; dropping
  /// the last version removes the lineage.
  bool Unregister(uint64_t id) RPQRES_EXCLUDES(mu_);

  /// Drops every version of `lineage`; returns how many were dropped.
  int UnregisterLineage(uint64_t lineage) RPQRES_EXCLUDES(mu_);

  /// The handle for snapshot `id`, or an invalid handle when absent.
  DbHandle Find(uint64_t id) const RPQRES_EXCLUDES(mu_);

  /// The latest version of the most recently registered lineage named
  /// `name`, or an invalid handle. (Prefer Resolve for @version access.)
  DbHandle Find(std::string_view name) const RPQRES_EXCLUDES(mu_);

  /// Resolves "name", "name@latest", or "name@<version>" to a handle.
  /// NotFound for unknown names/versions, InvalidArgument for malformed
  /// references.
  Result<DbHandle> Resolve(std::string_view reference) const
      RPQRES_EXCLUDES(mu_);

  /// The latest version of `lineage`, or an invalid handle.
  DbHandle Latest(uint64_t lineage) const RPQRES_EXCLUDES(mu_);

  /// Currently registered snapshot count across all lineages (not
  /// counting unregistered snapshots kept alive by outstanding handles).
  size_t size() const RPQRES_EXCLUDES(mu_);

  Stats stats() const RPQRES_EXCLUDES(mu_);
  Gauges gauges() const RPQRES_EXCLUDES(mu_);

  const Options& options() const { return options_; }

  /// Snapshot ids currently registered, ascending (introspection).
  std::vector<uint64_t> ids() const RPQRES_EXCLUDES(mu_);

  // --- persistence ----------------------------------------------------------

  /// True when this registry writes segments + journals (storage_dir set).
  bool persistent() const { return storage_ != nullptr; }

  /// First storage write error since construction (OK when none, or for a
  /// non-persistent registry). Once latched the registry is degraded:
  /// reads keep serving from memory, but every subsequent commit fails
  /// with kUnavailable carrying this status — commits never silently
  /// lose durability.
  Status storage_status() const RPQRES_EXCLUDES(mu_);

  /// Storage health: kHealthy until the first permanent (post-retry)
  /// write failure, then kDegraded (read-only); kFailed on storage
  /// corruption (kDataLoss). Always kHealthy for non-persistent
  /// registries.
  HealthState health() const RPQRES_EXCLUDES(mu_);

  /// Failed storage write attempts by operation ("segment_write",
  /// "journal_append", ...), for the rpqres_storage_faults_total counter
  /// family. Empty for a healthy history.
  std::vector<std::pair<std::string, int64_t>> storage_fault_counts() const
      RPQRES_EXCLUDES(mu_);

  /// Names of leftover *.tmp files the last Restore swept (an interrupted
  /// segment write whose rename never happened). Surfaced instead of
  /// deleting silently.
  std::vector<std::string> swept_tmp_files() const RPQRES_EXCLUDES(mu_);

  /// Forces the health machine down as if `cause` came back from a
  /// storage write (kDataLoss -> kFailed, else -> kDegraded). Lets tests
  /// and drills exercise failed-shard routing without real corruption;
  /// no-op for non-persistent registries or an OK status.
  void DegradeStorageForTesting(const Status& cause) RPQRES_EXCLUDES(mu_);

  /// Restores this (empty, persistent) registry from its storage_dir:
  /// reads every lineage's base segment, replays its journal — cutting a
  /// torn tail at the last fully committed version — and reapplies
  /// version drops. Not thread-safe; call before serving. Unreadable or
  /// corrupt segments, and journals that do not match their segment,
  /// fail with kDataLoss.
  Status Restore() RPQRES_EXCLUDES(mu_);

  /// Constructs a persistent registry rooted at `dir` and Restore()s it.
  static Result<std::unique_ptr<DbRegistry>> OpenStorage(std::string dir);
  static Result<std::unique_ptr<DbRegistry>> OpenStorage(std::string dir,
                                                         Options options);

 private:
  friend class DeltaBatch;

  struct Lineage {
    std::string name;
    /// version -> snapshot; the latest is versions.rbegin().
    std::map<uint32_t, std::shared_ptr<const DbSnapshot>> versions;
    /// Next version number to assign; never decreases, even when the
    /// latest version is unregistered — a (lineage, version) pair must
    /// never be recycled, or ResultCache entries keyed by it would serve
    /// the old version's answers for the new one.
    uint32_t next_version = 2;
  };

  /// Publishes a finished batch (called by DeltaBatch::Commit).
  Result<DbHandle> CommitDelta(DeltaBatch* batch) RPQRES_EXCLUDES(mu_);
  /// Publishes a replayed journal group as (version, snapshot_id) —
  /// never compacts, never journals (Restore only).
  Result<DbHandle> CommitReplayed(DeltaBatch* batch, uint32_t version,
                                  uint64_t snapshot_id) RPQRES_EXCLUDES(mu_);
  /// Storage side of Register / a compacting commit / Unregister; all
  /// called with mu_ held. Transient failures are retried with backoff;
  /// a permanent failure latches the error, degrades health, and is
  /// returned so CommitDelta can roll the commit back.
  Status PersistNewSegmentLocked(const DbSnapshot& snapshot,
                                 bool reset_journal) RPQRES_REQUIRES(mu_);
  Status PersistCommitLocked(uint32_t parent_version,
                             const DbSnapshot& snapshot,
                             const std::vector<storage::JournalOp>& oplog)
      RPQRES_REQUIRES(mu_);
  void PersistDropLocked(uint64_t lineage, uint32_t version,
                         bool lineage_gone) RPQRES_REQUIRES(mu_);
  /// Runs `attempt`, retrying transient (kUnavailable) failures up to
  /// options_.storage_retry_attempts times with doubling backoff. Counts
  /// every failed attempt under `op`; degrades health on final failure.
  template <typename Fn>
  Status RetryStorageLocked(const char* op, Fn&& attempt) RPQRES_REQUIRES(mu_);

  /// Lock order: mu_ is held across the Persist*Locked storage syscalls,
  /// whose failpoint checks take the global FailpointRegistry mutex — so
  /// mu_ always comes first and nothing that holds the failpoint mutex may
  /// call back into the registry.
  mutable Mutex mu_
      RPQRES_ACQUIRED_BEFORE(fault::FailpointRegistry::Instance().AnnotationMu());
  uint64_t next_id_ RPQRES_GUARDED_BY(mu_) = 1;
  std::map<uint64_t, std::shared_ptr<const DbSnapshot>> snapshots_
      RPQRES_GUARDED_BY(mu_);
  std::map<uint64_t, Lineage> lineages_ RPQRES_GUARDED_BY(mu_);
  /// name -> lineage id of the most recent registration with that name.
  std::map<std::string, uint64_t, std::less<>> lineage_by_name_
      RPQRES_GUARDED_BY(mu_);
  Options options_;
  Stats stats_ RPQRES_GUARDED_BY(mu_);
  /// Non-null iff options_.storage_dir is set. The pointer itself is set
  /// once in the constructor and stable; the pointee's mutable state is
  /// guarded by mu_.
  std::unique_ptr<RegistryStorage> storage_ RPQRES_PT_GUARDED_BY(mu_);
  /// True while Restore() replays the journal (suppresses re-journaling).
  bool restoring_ RPQRES_GUARDED_BY(mu_) = false;
};

}  // namespace rpqres

#endif  // RPQRES_ENGINE_DB_REGISTRY_H_
