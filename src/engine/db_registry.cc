#include "engine/db_registry.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <thread>
#include <utility>

#include "storage/segment.h"

namespace rpqres {

const char* HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kFailed:
      return "failed";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// RegistryStorage — the on-disk side of a persistent registry. All fields
// are guarded by the registry's mu_, except during Restore (which runs
// single-threaded before serving starts).
// ---------------------------------------------------------------------------

class RegistryStorage {
 public:
  explicit RegistryStorage(std::string dir) : dir_(std::move(dir)) {}

  std::string SegmentPath(uint64_t lineage) const {
    return dir_ + "/lineage_" + std::to_string(lineage) + ".seg";
  }
  std::string JournalPath(uint64_t lineage) const {
    return dir_ + "/lineage_" + std::to_string(lineage) + ".journal";
  }
  void LatchError(const Status& status) {
    if (first_error_.ok() && !status.ok()) first_error_ = status;
  }

  /// Latches the error and moves health down the one-way machine:
  /// corruption (kDataLoss) fails the registry, everything else degrades
  /// it to read-only.
  void Degrade(const Status& status) {
    if (status.ok()) return;
    LatchError(status);
    if (status.code() == StatusCode::kDataLoss) {
      health_ = HealthState::kFailed;
    } else if (health_ == HealthState::kHealthy) {
      health_ = HealthState::kDegraded;
    }
  }

  void CountFault(const char* op) { ++fault_counts_[op]; }

  std::string dir_;
  /// First write error; commits after it fail with kUnavailable.
  Status first_error_;
  HealthState health_ = HealthState::kHealthy;
  /// Failed write attempts by operation, for rpqres_storage_faults_total.
  std::map<std::string, int64_t> fault_counts_;
  /// Leftover *.tmp files the last Restore swept.
  std::vector<std::string> swept_tmp_files_;
  /// Per-lineage open journal writers.
  std::map<uint64_t, storage::JournalWriter> writers_;
  /// Per-lineage on-disk segment sizes (for the gauges).
  std::map<uint64_t, int64_t> segment_bytes_;
  int64_t replay_micros_ = 0;
};

const std::string& DbHandle::name() const {
  static const std::string kEmpty;
  return snapshot_ != nullptr ? snapshot_->name : kEmpty;
}

// ---------------------------------------------------------------------------
// DeltaBatch
// ---------------------------------------------------------------------------

DeltaBatch::DeltaBatch(DbRegistry* registry,
                       std::shared_ptr<const DbSnapshot> parent)
    : registry_(registry), parent_(std::move(parent)) {
  // Aliasing pointer: the overlay's base reference keeps the whole parent
  // snapshot (db + label index) alive.
  work_ = GraphDb::MakeOverlay(
      std::shared_ptr<const GraphDb>(parent_, &parent_->db));
  MutexLock lock(registry_->mu_);
  record_ops_ = registry_->storage_ != nullptr && !registry_->restoring_;
}

void DeltaBatch::TouchLabel(char label) {
  unsigned char l = static_cast<unsigned char>(label);
  if (touched_[l]) return;
  touched_[l] = true;
  touched_labels_.push_back(label);
}

NodeId DeltaBatch::AddNode(std::string name) {
  if (!valid()) return -1;
  ++ops_;
  NodeId id = name.empty() ? work_.AddNode() : work_.AddNode(name);
  if (record_ops_) {
    storage::JournalOp op;
    op.type = storage::JournalOp::Type::kAddNode;
    // Journal the *resolved* name: anonymous nodes get a generated one,
    // and replay must reproduce it byte for byte.
    op.name = work_.node_name(id);
    oplog_.push_back(std::move(op));
  }
  return id;
}

Result<FactId> DeltaBatch::AddFact(NodeId source, char label, NodeId target,
                                   Capacity multiplicity) {
  if (!valid()) {
    return Status::FailedPrecondition("AddFact on an invalid DeltaBatch");
  }
  if (source < 0 || source >= work_.num_nodes() || target < 0 ||
      target >= work_.num_nodes()) {
    return Status::InvalidArgument(
        "AddFact: node ids must reference existing nodes");
  }
  if (multiplicity < 1 || multiplicity > kMaxMultiplicity) {
    return Status::InvalidArgument("AddFact: multiplicity must be in [1, " +
                                   std::to_string(kMaxMultiplicity) + "]");
  }
  if (FactId seen = work_.FindFact(source, label, target);
      seen >= 0 && work_.multiplicity(seen) > kMaxMultiplicity - multiplicity) {
    return Status::InvalidArgument(
        "AddFact: accumulated multiplicity exceeds " +
        std::to_string(kMaxMultiplicity));
  }
  ++ops_;
  int before = work_.num_facts();
  FactId id = work_.AddFact(source, label, target, multiplicity);
  // A multiplicity bump leaves the fact set — and hence the label index —
  // unchanged; only genuinely new facts touch their label.
  if (work_.num_facts() != before) TouchLabel(label);
  if (record_ops_) {
    storage::JournalOp op;
    op.type = storage::JournalOp::Type::kAddFact;
    op.source = source;
    op.target = target;
    op.label = label;
    op.multiplicity = multiplicity;
    oplog_.push_back(std::move(op));
  }
  return id;
}

Status DeltaBatch::RemoveFact(NodeId source, char label, NodeId target) {
  if (!valid()) {
    return Status::FailedPrecondition("RemoveFact on an invalid DeltaBatch");
  }
  RPQRES_RETURN_IF_ERROR(work_.RemoveFact(source, label, target));
  ++ops_;
  TouchLabel(label);
  if (record_ops_) {
    storage::JournalOp op;
    op.type = storage::JournalOp::Type::kRemoveFact;
    op.source = source;
    op.target = target;
    op.label = label;
    oplog_.push_back(std::move(op));
  }
  return Status::OK();
}

Result<DbHandle> DeltaBatch::Commit() {
  if (!valid()) {
    return Status::FailedPrecondition(
        "Commit on an invalid or already-committed DeltaBatch");
  }
  return registry_->CommitDelta(this);
}

// ---------------------------------------------------------------------------
// DbRegistry
// ---------------------------------------------------------------------------

DbRegistry::DbRegistry() = default;

DbRegistry::DbRegistry(Options options) : options_(std::move(options)) {
  if (!options_.storage_dir.empty()) {
    storage_ = std::make_unique<RegistryStorage>(options_.storage_dir);
    std::error_code ec;
    std::filesystem::create_directories(options_.storage_dir, ec);
    if (ec) {
      storage_->LatchError(Status::Internal(
          "storage: cannot create directory '" + options_.storage_dir +
          "': " + ec.message()));
    }
  }
}

DbRegistry::~DbRegistry() = default;

DbHandle DbRegistry::Register(GraphDb db, std::string name) {
  auto snapshot = std::make_shared<DbSnapshot>();
  snapshot->name = std::move(name);
  snapshot->db = std::move(db);
  snapshot->label_index = LabelIndex(snapshot->db);
  snapshot->version = 1;
  MutexLock lock(mu_);
  snapshot->id = next_id_++;
  snapshot->lineage = snapshot->id;
  snapshots_.emplace(snapshot->id, snapshot);
  Lineage& lineage = lineages_[snapshot->lineage];
  lineage.name = snapshot->name;
  lineage.versions.emplace(snapshot->version, snapshot);
  if (!snapshot->name.empty()) {
    lineage_by_name_[snapshot->name] = snapshot->lineage;
  }
  ++stats_.registered;
  // A degraded registry is read-only on disk: new lineages serve from
  // memory only (no status channel on Register; health() says why).
  if (storage_ != nullptr && !restoring_ &&
      storage_->health_ == HealthState::kHealthy) {
    // Best-effort: Register has no status channel. A failed write has
    // already latched the error and degraded health (health() says why);
    // the lineage still serves from memory.
    (void)PersistNewSegmentLocked(*snapshot, /*reset_journal=*/false);
  }
  return DbHandle(std::move(snapshot));
}

DeltaBatch DbRegistry::BeginDelta(const DbHandle& parent) {
  if (!parent.valid()) return DeltaBatch();
  return DeltaBatch(this, parent.snapshot_);
}

Result<DbHandle> DbRegistry::CommitDelta(DeltaBatch* batch) {
  batch->committed_ = true;  // one-shot, even on failure
  const DbSnapshot& parent = *batch->parent_;

  auto snapshot = std::make_shared<DbSnapshot>();
  snapshot->lineage = parent.lineage;
  snapshot->name = parent.name;
  // snapshot->version is assigned under the lock below, from the
  // lineage's never-decreasing counter.
  // Compaction: once the accumulated overlay is a sizeable fraction of
  // the database, fold it into a fresh flat base (one O(|db|) rebuild
  // amortized over the commits that grew the overlay).
  const int64_t threshold = std::max<int64_t>(
      options_.compaction_min_overlay,
      static_cast<int64_t>(options_.compaction_fraction *
                           static_cast<double>(batch->work_.num_live_facts())));
  if (batch->work_.overlay_size() > threshold) {
    snapshot->db = batch->work_.Compact();
    snapshot->label_index = LabelIndex(snapshot->db);
    snapshot->compacted = true;
  } else {
    const FactId first_new_fact = parent.db.num_facts();
    snapshot->db = std::move(batch->work_);
    snapshot->label_index = LabelIndex(snapshot->db, parent.label_index,
                                       batch->touched_labels_, first_new_fact);
  }

  MutexLock lock(mu_);
  // Degraded-mode shed: once a storage write has failed, later commits
  // must not silently succeed without durability — fail them with the
  // latched cause until the operator replaces the registry.
  if (storage_ != nullptr && batch->record_ops_ &&
      storage_->health_ != HealthState::kHealthy) {
    ++stats_.commits_unavailable;
    return Status::Unavailable(
        "Commit: registry storage is " +
        std::string(HealthStateName(storage_->health_)) +
        " (first error: " + storage_->first_error_.ToString() + ")");
  }
  auto lineage_it = lineages_.find(snapshot->lineage);
  if (lineage_it == lineages_.end()) {
    return Status::NotFound("Commit: lineage " +
                            std::to_string(snapshot->lineage) +
                            " was unregistered");
  }
  auto& versions = lineage_it->second.versions;
  if (versions.empty() || versions.rbegin()->first != parent.version) {
    ++stats_.commit_conflicts;
    return Status::Aborted(
        "Commit: lineage " + std::to_string(snapshot->lineage) +
        " advanced past version " + std::to_string(parent.version) +
        " (re-begin the delta from the latest version)");
  }
  snapshot->id = next_id_++;
  // Versions are never recycled: after Unregister of the latest version
  // the next commit still gets a fresh number, so version-keyed
  // ResultCache entries can never alias a different database.
  snapshot->version = lineage_it->second.next_version++;
  snapshots_.emplace(snapshot->id, snapshot);
  versions.emplace(snapshot->version, snapshot);
  ++stats_.commits;
  if (snapshot->compacted) ++stats_.compactions;
  if (storage_ != nullptr && batch->record_ops_) {
    Status persisted;
    if (snapshot->compacted) {
      // The fresh flat base subsumes the journal: write the new segment
      // first (atomic rename), then reset the journal. A crash between
      // the two leaves stale journal groups whose commit versions are at
      // or below the segment's — Restore skips those.
      persisted = PersistNewSegmentLocked(*snapshot, /*reset_journal=*/true);
    } else {
      persisted = PersistCommitLocked(parent.version, *snapshot,
                                      batch->oplog_);
    }
    if (!persisted.ok()) {
      // The durability write failed after retries: roll the publication
      // back so the commit is never acknowledged. The version number is
      // burned, not recycled (ResultCache keys must never alias).
      snapshots_.erase(snapshot->id);
      versions.erase(snapshot->version);
      --stats_.commits;
      if (snapshot->compacted) --stats_.compactions;
      ++stats_.commits_unavailable;
      return Status::Unavailable("Commit: rolled back, not durable: " +
                                 persisted.ToString());
    }
  }
  return DbHandle(std::move(snapshot));
}

Result<DbHandle> DbRegistry::CommitReplayed(DeltaBatch* batch,
                                            uint32_t version,
                                            uint64_t snapshot_id) {
  batch->committed_ = true;
  const DbSnapshot& parent = *batch->parent_;
  auto snapshot = std::make_shared<DbSnapshot>();
  snapshot->lineage = parent.lineage;
  snapshot->name = parent.name;
  // Replayed commits never compact: the journal's groups were produced
  // by non-compacting commits, and replaying them as plain overlays
  // reproduces the exact pre-restart fact-id space.
  const FactId first_new_fact = parent.db.num_facts();
  snapshot->db = std::move(batch->work_);
  snapshot->label_index = LabelIndex(snapshot->db, parent.label_index,
                                     batch->touched_labels_, first_new_fact);
  MutexLock lock(mu_);
  auto lineage_it = lineages_.find(snapshot->lineage);
  if (lineage_it == lineages_.end()) {
    return Status::DataLoss("Restore: lineage " +
                            std::to_string(snapshot->lineage) +
                            " vanished during replay");
  }
  auto& versions = lineage_it->second.versions;
  if (versions.empty() || versions.rbegin()->second->version != parent.version) {
    return Status::DataLoss(
        "Restore: journal group for version " + std::to_string(version) +
        " does not extend the latest restored version of lineage " +
        std::to_string(snapshot->lineage));
  }
  snapshot->id = snapshot_id;
  snapshot->version = version;
  next_id_ = std::max(next_id_, snapshot_id + 1);
  lineage_it->second.next_version =
      std::max(lineage_it->second.next_version, version + 1);
  snapshots_.emplace(snapshot->id, snapshot);
  versions.emplace(snapshot->version, snapshot);
  return DbHandle(std::move(snapshot));
}

template <typename Fn>
Status DbRegistry::RetryStorageLocked(const char* op, Fn&& attempt) {
  Status status = attempt();
  int64_t backoff = options_.storage_retry_backoff_micros;
  for (int retry = 0; retry < options_.storage_retry_attempts; ++retry) {
    if (status.ok() || status.code() != StatusCode::kUnavailable) break;
    // Transient (kUnavailable) by contract means a retry rewrites its
    // whole payload, so a later clean attempt is fully durable.
    storage_->CountFault(op);
    ++stats_.storage_retries;
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      backoff *= 2;
    }
    status = attempt();
  }
  if (!status.ok()) {
    storage_->CountFault(op);
    storage_->Degrade(status);
  }
  return status;
}

Status DbRegistry::PersistNewSegmentLocked(const DbSnapshot& snapshot,
                                           bool reset_journal) {
  storage::SegmentMeta meta;
  meta.lineage = snapshot.lineage;
  meta.version = snapshot.version;
  meta.snapshot_id = snapshot.id;
  meta.name = snapshot.name;
  int64_t bytes = 0;
  const std::string segment_path = storage_->SegmentPath(snapshot.lineage);
  // Register normally receives flat databases; an overlay handed to it
  // is persisted as its compacted live view (same serialization, fresh
  // fact-id space after a restart).
  Status written = RetryStorageLocked("segment_write", [&] {
    return snapshot.db.is_versioned()
               ? storage::WriteSegment(segment_path, snapshot.db.Compact(),
                                       meta, &bytes)
               : storage::WriteSegment(segment_path, snapshot.db, meta,
                                       &bytes);
  });
  if (!written.ok()) return written;
  storage_->segment_bytes_[snapshot.lineage] = bytes;
  if (reset_journal) {
    auto it = storage_->writers_.find(snapshot.lineage);
    if (it != storage_->writers_.end() && it->second.open()) {
      // A failed reset cannot un-commit: the fresh segment is already
      // renamed into place, and Restore's skip rule ignores the stale
      // groups the reset would have chopped. Degrade (no further commits)
      // but report the commit durable.
      (void)RetryStorageLocked("journal_reset",
                               [&] { return it->second.Reset(); });
    }
    return Status::OK();
  }
  const std::string journal_path = storage_->JournalPath(snapshot.lineage);
  storage::JournalWriter journal_writer;
  Status opened = RetryStorageLocked("journal_open", [&] {
    Result<storage::JournalWriter> writer =
        storage::JournalWriter::Open(journal_path, snapshot.lineage);
    if (!writer.ok()) return writer.status();
    journal_writer = std::move(*writer);
    return Status::OK();
  });
  if (journal_writer.open()) {
    storage_->writers_.insert_or_assign(snapshot.lineage,
                                        std::move(journal_writer));
  }
  // The base segment is durable either way; a missing journal writer only
  // blocks future commits, which the health check already sheds.
  (void)opened;
  return Status::OK();
}

Status DbRegistry::PersistCommitLocked(
    uint32_t parent_version, const DbSnapshot& snapshot,
    const std::vector<storage::JournalOp>& oplog) {
  auto it = storage_->writers_.find(snapshot.lineage);
  if (it == storage_->writers_.end() || !it->second.open()) {
    Status missing = Status::Internal(
        "storage: no journal writer for lineage " +
        std::to_string(snapshot.lineage));
    storage_->CountFault("journal_append");
    storage_->Degrade(missing);
    return missing;
  }
  std::vector<storage::JournalOp> group;
  group.reserve(oplog.size() + 2);
  storage::JournalOp begin;
  begin.type = storage::JournalOp::Type::kBegin;
  begin.version = parent_version;
  group.push_back(std::move(begin));
  group.insert(group.end(), oplog.begin(), oplog.end());
  storage::JournalOp commit;
  commit.type = storage::JournalOp::Type::kCommit;
  commit.version = snapshot.version;
  commit.snapshot_id = snapshot.id;
  group.push_back(std::move(commit));
  return RetryStorageLocked("journal_append",
                            [&] { return it->second.Append(group); });
}

void DbRegistry::PersistDropLocked(uint64_t lineage, uint32_t version,
                                   bool lineage_gone) {
  if (lineage_gone) {
    storage_->writers_.erase(lineage);
    storage_->segment_bytes_.erase(lineage);
    std::error_code ec;
    std::filesystem::remove(storage_->SegmentPath(lineage), ec);
    std::filesystem::remove(storage_->JournalPath(lineage), ec);
    return;
  }
  // Already degraded: the drop serves from memory only, like commits.
  if (storage_->health_ != HealthState::kHealthy) return;
  auto it = storage_->writers_.find(lineage);
  if (it == storage_->writers_.end() || !it->second.open()) {
    Status missing = Status::Internal(
        "storage: no journal writer for lineage " + std::to_string(lineage));
    storage_->CountFault("drop_append");
    storage_->Degrade(missing);
    return;
  }
  storage::JournalOp drop;
  drop.type = storage::JournalOp::Type::kDropVersion;
  drop.version = version;
  // The in-memory drop already happened; losing the drop record means
  // the version resurfaces after a restart, which degraded health makes
  // an operator-visible event rather than a silent divergence.
  (void)RetryStorageLocked("drop_append",
                           [&] { return it->second.Append({drop}); });
}

bool DbRegistry::Unregister(uint64_t id) {
  MutexLock lock(mu_);
  auto it = snapshots_.find(id);
  if (it == snapshots_.end()) return false;
  const uint64_t lineage_id = it->second->lineage;
  const uint32_t version = it->second->version;
  snapshots_.erase(it);
  bool lineage_gone = false;
  auto lineage_it = lineages_.find(lineage_id);
  if (lineage_it != lineages_.end()) {
    lineage_it->second.versions.erase(version);
    if (lineage_it->second.versions.empty()) {
      auto name_it = lineage_by_name_.find(lineage_it->second.name);
      if (name_it != lineage_by_name_.end() &&
          name_it->second == lineage_id) {
        lineage_by_name_.erase(name_it);
      }
      lineages_.erase(lineage_it);
      lineage_gone = true;
    }
  }
  ++stats_.unregistered;
  if (storage_ != nullptr && !restoring_) {
    PersistDropLocked(lineage_id, version, lineage_gone);
  }
  return true;
}

int DbRegistry::UnregisterLineage(uint64_t lineage) {
  MutexLock lock(mu_);
  auto lineage_it = lineages_.find(lineage);
  if (lineage_it == lineages_.end()) return 0;
  int dropped = 0;
  for (const auto& [version, snapshot] : lineage_it->second.versions) {
    snapshots_.erase(snapshot->id);
    ++dropped;
  }
  stats_.unregistered += dropped;
  auto name_it = lineage_by_name_.find(lineage_it->second.name);
  if (name_it != lineage_by_name_.end() && name_it->second == lineage) {
    lineage_by_name_.erase(name_it);
  }
  lineages_.erase(lineage_it);
  if (storage_ != nullptr && !restoring_) {
    PersistDropLocked(lineage, /*version=*/0, /*lineage_gone=*/true);
  }
  return dropped;
}

DbHandle DbRegistry::Find(uint64_t id) const {
  MutexLock lock(mu_);
  auto it = snapshots_.find(id);
  return it != snapshots_.end() ? DbHandle(it->second) : DbHandle();
}

DbHandle DbRegistry::Find(std::string_view name) const {
  MutexLock lock(mu_);
  auto name_it = lineage_by_name_.find(name);
  if (name_it == lineage_by_name_.end()) return DbHandle();
  auto lineage_it = lineages_.find(name_it->second);
  if (lineage_it == lineages_.end() || lineage_it->second.versions.empty()) {
    return DbHandle();
  }
  return DbHandle(lineage_it->second.versions.rbegin()->second);
}

DbHandle DbRegistry::Latest(uint64_t lineage) const {
  MutexLock lock(mu_);
  auto lineage_it = lineages_.find(lineage);
  if (lineage_it == lineages_.end() || lineage_it->second.versions.empty()) {
    return DbHandle();
  }
  return DbHandle(lineage_it->second.versions.rbegin()->second);
}

namespace {

// "1, 2, 5" from a versions map — for actionable Resolve errors.
std::string JoinVersions(
    const std::map<uint32_t, std::shared_ptr<const DbSnapshot>>& versions) {
  std::string out;
  for (const auto& [version, snapshot] : versions) {
    if (!out.empty()) out += ", ";
    out += std::to_string(version);
  }
  return out.empty() ? "none" : out;
}

std::string JoinNames(
    const std::map<std::string, uint64_t, std::less<>>& by_name) {
  std::string out;
  for (const auto& [name, lineage] : by_name) {
    if (!out.empty()) out += ", ";
    out += "'" + name + "'";
  }
  return out.empty() ? "none" : out;
}

}  // namespace

Result<DbHandle> DbRegistry::Resolve(std::string_view reference) const {
  std::string_view name = reference;
  std::string_view version_part;
  size_t at = reference.rfind('@');
  if (at != std::string_view::npos) {
    name = reference.substr(0, at);
    version_part = reference.substr(at + 1);
  }
  if (name.empty()) {
    return Status::InvalidArgument("Resolve: empty lineage name in '" +
                                   std::string(reference) + "'");
  }
  MutexLock lock(mu_);
  auto name_it = lineage_by_name_.find(name);
  if (name_it == lineage_by_name_.end()) {
    return Status::NotFound("Resolve: no lineage named '" +
                            std::string(name) + "' (registered: " +
                            JoinNames(lineage_by_name_) + ")");
  }
  auto lineage_it = lineages_.find(name_it->second);
  if (lineage_it == lineages_.end() || lineage_it->second.versions.empty()) {
    return Status::NotFound("Resolve: no lineage named '" +
                            std::string(name) + "' (registered: " +
                            JoinNames(lineage_by_name_) + ")");
  }
  const Lineage& lineage = lineage_it->second;
  if (at == std::string_view::npos || version_part == "latest") {
    return DbHandle(lineage.versions.rbegin()->second);
  }
  uint32_t version = 0;
  auto [end, ec] = std::from_chars(
      version_part.data(), version_part.data() + version_part.size(),
      version);
  if (ec != std::errc() || end != version_part.data() + version_part.size() ||
      version == 0) {
    return Status::InvalidArgument(
        "Resolve: bad version '" + std::string(version_part) +
        "' (want a positive integer or 'latest')");
  }
  auto version_it = lineage.versions.find(version);
  if (version_it == lineage.versions.end()) {
    return Status::NotFound("Resolve: lineage '" + std::string(name) +
                            "' has no version " + std::to_string(version) +
                            " (available: " + JoinVersions(lineage.versions) +
                            ")");
  }
  return DbHandle(version_it->second);
}

size_t DbRegistry::size() const {
  MutexLock lock(mu_);
  return snapshots_.size();
}

DbRegistry::Stats DbRegistry::stats() const {
  MutexLock lock(mu_);
  Stats stats = stats_;
  if (storage_ != nullptr) {
    for (const auto& [op, count] : storage_->fault_counts_) {
      stats.storage_faults += count;
    }
  }
  return stats;
}

DbRegistry::Gauges DbRegistry::gauges() const {
  MutexLock lock(mu_);
  Gauges gauges;
  gauges.lineages = static_cast<int64_t>(lineages_.size());
  gauges.snapshots = static_cast<int64_t>(snapshots_.size());
  for (const auto& [lineage_id, lineage] : lineages_) {
    gauges.max_version_depth =
        std::max(gauges.max_version_depth,
                 static_cast<int64_t>(lineage.versions.size()));
    if (lineage.versions.empty()) continue;
    const DbSnapshot& latest = *lineage.versions.rbegin()->second;
    gauges.nodes += latest.db.num_nodes();
    gauges.live_facts += latest.db.num_live_facts();
    gauges.dead_facts += latest.db.num_facts() - latest.db.num_live_facts();
    gauges.overlay_facts += latest.db.overlay_size();
  }
  if (storage_ != nullptr) {
    gauges.storage_persistent = 1;
    for (const auto& [lineage, bytes] : storage_->segment_bytes_) {
      gauges.storage_segment_bytes += bytes;
    }
    for (const auto& [lineage, writer] : storage_->writers_) {
      gauges.storage_journal_records += writer.records();
      gauges.storage_journal_bytes += writer.bytes();
    }
    gauges.storage_replay_micros = storage_->replay_micros_;
    gauges.storage_health = static_cast<int64_t>(storage_->health_);
    gauges.storage_swept_tmp_files =
        static_cast<int64_t>(storage_->swept_tmp_files_.size());
  }
  return gauges;
}

Status DbRegistry::storage_status() const {
  MutexLock lock(mu_);
  return storage_ != nullptr ? storage_->first_error_ : Status::OK();
}

HealthState DbRegistry::health() const {
  MutexLock lock(mu_);
  return storage_ != nullptr ? storage_->health_ : HealthState::kHealthy;
}

std::vector<std::pair<std::string, int64_t>> DbRegistry::storage_fault_counts()
    const {
  MutexLock lock(mu_);
  std::vector<std::pair<std::string, int64_t>> out;
  if (storage_ != nullptr) {
    out.assign(storage_->fault_counts_.begin(), storage_->fault_counts_.end());
  }
  return out;
}

std::vector<std::string> DbRegistry::swept_tmp_files() const {
  MutexLock lock(mu_);
  return storage_ != nullptr ? storage_->swept_tmp_files_
                             : std::vector<std::string>();
}

void DbRegistry::DegradeStorageForTesting(const Status& cause) {
  MutexLock lock(mu_);
  if (storage_ != nullptr) storage_->Degrade(cause);
}

Status DbRegistry::Restore() {
  if (storage_ == nullptr) {
    return Status::FailedPrecondition(
        "Restore: registry has no storage_dir configured");
  }
  {
    MutexLock lock(mu_);
    if (!snapshots_.empty()) {
      return Status::FailedPrecondition(
          "Restore: registry is not empty (restore before serving)");
    }
    RPQRES_RETURN_IF_ERROR(storage_->first_error_);
  }
  struct RestoringGuard {
    explicit RestoringGuard(DbRegistry* registry) : registry_(registry) {
      MutexLock lock(registry_->mu_);
      registry_->restoring_ = true;
    }
    ~RestoringGuard() {
      MutexLock lock(registry_->mu_);
      registry_->restoring_ = false;
    }
    DbRegistry* registry_;
  } guard(this);
  const auto start = std::chrono::steady_clock::now();

  // Scan the directory: leftover temp files from an interrupted segment
  // write are garbage (the rename never happened), segments and journals
  // are collected per lineage.
  std::vector<std::pair<uint64_t, std::string>> segments;
  std::map<uint64_t, std::string> journals;
  std::string dir;
  {
    MutexLock lock(mu_);
    dir = storage_->dir_;
  }
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec)) {
    const std::string filename = entry.path().filename().string();
    if (filename.ends_with(".tmp")) {
      // An interrupted segment write whose rename never happened. Swept,
      // but on the record: swept_tmp_files() and the
      // storage_swept_tmp_files gauge report every name.
      std::error_code remove_ec;
      std::filesystem::remove(entry.path(), remove_ec);
      MutexLock lock(mu_);
      storage_->swept_tmp_files_.push_back(filename);
      continue;
    }
    uint64_t lineage = 0;
    std::string_view stem = filename;
    bool is_segment = false;
    if (stem.starts_with("lineage_") && stem.ends_with(".seg")) {
      stem.remove_prefix(8);
      stem.remove_suffix(4);
      is_segment = true;
    } else if (stem.starts_with("lineage_") && stem.ends_with(".journal")) {
      stem.remove_prefix(8);
      stem.remove_suffix(8);
    } else {
      continue;
    }
    auto [end, parse_ec] =
        std::from_chars(stem.data(), stem.data() + stem.size(), lineage);
    if (parse_ec != std::errc() || end != stem.data() + stem.size()) continue;
    if (is_segment) {
      segments.emplace_back(lineage, entry.path().string());
    } else {
      journals.emplace(lineage, entry.path().string());
    }
  }
  if (ec) {
    return Status::Internal("Restore: cannot scan '" + dir +
                            "': " + ec.message());
  }
  // Lineage ids are assigned in registration order, so ascending-id
  // restore reproduces lineage_by_name_'s most-recent-wins semantics.
  std::sort(segments.begin(), segments.end());
  for (const auto& [journal_lineage, path] : journals) {
    const bool matched = std::any_of(
        segments.begin(), segments.end(),
        [journal_lineage](const auto& s) { return s.first == journal_lineage; });
    if (!matched) {
      return Status::DataLoss("Restore: journal '" + path +
                              "' has no matching segment");
    }
  }

  for (const auto& [lineage, segment_path] : segments) {
    RPQRES_ASSIGN_OR_RETURN(storage::LoadedSegment loaded,
                            storage::ReadSegment(segment_path));
    if (loaded.meta.lineage != lineage) {
      return Status::DataLoss(
          "Restore: segment '" + segment_path + "' claims lineage " +
          std::to_string(loaded.meta.lineage) + ", filename says " +
          std::to_string(lineage));
    }
    const uint32_t segment_version = loaded.meta.version;
    auto snapshot = std::make_shared<DbSnapshot>();
    snapshot->id = loaded.meta.snapshot_id;
    snapshot->lineage = lineage;
    snapshot->version = segment_version;
    snapshot->name = loaded.meta.name;
    snapshot->db = std::move(loaded.db);
    snapshot->label_index = LabelIndex(snapshot->db);
    snapshot->compacted = segment_version > 1;
    {
      MutexLock lock(mu_);
      snapshots_.emplace(snapshot->id, snapshot);
      Lineage& entry = lineages_[lineage];
      entry.name = snapshot->name;
      entry.versions.emplace(snapshot->version, snapshot);
      entry.next_version = segment_version + 1;
      next_id_ = std::max(next_id_, snapshot->id + 1);
      if (!snapshot->name.empty()) {
        lineage_by_name_[snapshot->name] = lineage;
      }
      storage_->segment_bytes_[lineage] = loaded.file_bytes;
    }

    auto journal_it = journals.find(lineage);
    int64_t journal_valid_bytes = -1;
    int64_t journal_records = 0;
    if (journal_it != journals.end()) {
      RPQRES_ASSIGN_OR_RETURN(storage::JournalContents contents,
                              storage::ReadJournal(journal_it->second,
                                                   lineage));
      journal_valid_bytes = contents.valid_bytes;
      journal_records = contents.records;
      for (const storage::JournalGroup& group : contents.groups) {
        if (group.is_drop) {
          uint64_t drop_id = 0;
          {
            MutexLock lock(mu_);
            auto lineage_it = lineages_.find(lineage);
            if (lineage_it != lineages_.end()) {
              auto version_it =
                  lineage_it->second.versions.find(group.drop_version);
              if (version_it != lineage_it->second.versions.end()) {
                drop_id = version_it->second->id;
              }
            }
          }
          // A drop of a version already folded away by a later
          // compaction (or already dropped) is a no-op.
          if (drop_id != 0) Unregister(drop_id);
          continue;
        }
        // Compaction crash window: the new segment renamed into place but
        // the journal reset did not land before the crash. Groups at or
        // below the segment's version are already folded into the base.
        if (group.commit_version <= segment_version) continue;
        DbHandle parent = Latest(lineage);
        if (!parent.valid() || parent.version() != group.parent_version) {
          return Status::DataLoss(
              "Restore: journal group committing version " +
              std::to_string(group.commit_version) + " of lineage " +
              std::to_string(lineage) + " expects parent version " +
              std::to_string(group.parent_version) + ", have " +
              (parent.valid() ? std::to_string(parent.version()) : "none"));
        }
        DeltaBatch batch = BeginDelta(parent);
        for (const storage::JournalOp& op : group.ops) {
          switch (op.type) {
            case storage::JournalOp::Type::kAddNode:
              batch.AddNode(op.name);
              break;
            case storage::JournalOp::Type::kAddFact: {
              Result<FactId> added =
                  batch.AddFact(op.source, op.label, op.target,
                                op.multiplicity);
              if (!added.ok()) {
                return Status::DataLoss(
                    "Restore: replaying AddFact for version " +
                    std::to_string(group.commit_version) + " of lineage " +
                    std::to_string(lineage) + " failed: " +
                    added.status().message());
              }
              break;
            }
            case storage::JournalOp::Type::kRemoveFact: {
              Status removed = batch.RemoveFact(op.source, op.label,
                                                op.target);
              if (!removed.ok()) {
                return Status::DataLoss(
                    "Restore: replaying RemoveFact for version " +
                    std::to_string(group.commit_version) + " of lineage " +
                    std::to_string(lineage) + " failed: " +
                    removed.message());
              }
              break;
            }
            default:
              return Status::DataLoss(
                  "Restore: unexpected op type inside a journal group");
          }
        }
        RPQRES_RETURN_IF_ERROR(
            CommitReplayed(&batch, group.commit_version, group.snapshot_id)
                .status());
      }
    }
    // Reopen the journal for appending, chopping any torn tail; a lineage
    // without a journal file gets a fresh one.
    std::string journal_path;
    {
      MutexLock lock(mu_);
      journal_path = storage_->JournalPath(lineage);
    }
    RPQRES_ASSIGN_OR_RETURN(
        storage::JournalWriter writer,
        storage::JournalWriter::Open(journal_path, lineage,
                                     journal_valid_bytes, journal_records));
    MutexLock lock(mu_);
    storage_->writers_.insert_or_assign(lineage, std::move(writer));
  }

  const auto elapsed = std::chrono::steady_clock::now() - start;
  MutexLock lock(mu_);
  storage_->replay_micros_ =
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count();
  return Status::OK();
}

Result<std::unique_ptr<DbRegistry>> DbRegistry::OpenStorage(std::string dir) {
  return OpenStorage(std::move(dir), Options());
}

Result<std::unique_ptr<DbRegistry>> DbRegistry::OpenStorage(std::string dir,
                                                            Options options) {
  options.storage_dir = std::move(dir);
  auto registry = std::make_unique<DbRegistry>(std::move(options));
  RPQRES_RETURN_IF_ERROR(registry->storage_status());
  RPQRES_RETURN_IF_ERROR(registry->Restore());
  return registry;
}

std::vector<uint64_t> DbRegistry::ids() const {
  MutexLock lock(mu_);
  std::vector<uint64_t> out;
  out.reserve(snapshots_.size());
  for (const auto& [id, snapshot] : snapshots_) out.push_back(id);
  return out;
}

}  // namespace rpqres
