#include "storage/segment.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "fault/failpoints.h"
#include "storage/xxhash64.h"

namespace rpqres {
namespace storage {
namespace {

// The fact and multiplicity columns use the in-memory layouts,
// little-endian, and ReadSegment reads them in place. Refuse to compile
// anywhere that would silently break them.
static_assert(std::endian::native == std::endian::little,
              "segment format requires a little-endian host");
static_assert(sizeof(Fact) == 12, "Fact must be 12 bytes on disk");
static_assert(offsetof(Fact, source) == 0);
static_assert(offsetof(Fact, label) == 4);
static_assert(offsetof(Fact, target) == 8);
static_assert(sizeof(Capacity) == 8);

constexpr char kMagic[8] = {'R', 'P', 'Q', 'S', 'E', 'G', '0', '1'};
// Version 3 stores the fact table alone. Versions 1 and 2 also stored
// derived arrays (adjacency, a sorted key permutation, the label index)
// and are refused.
constexpr uint32_t kFormatVersion = 3;
constexpr size_t kHeaderBytes = 64;
constexpr size_t kTableEntryBytes = 32;
constexpr size_t kSectionAlign = 64;

enum SectionKind : uint32_t {
  kMeta = 1,             // u32 name_len + name bytes
  kNodeNameOffsets = 2,  // (num_nodes + 1) * u32 into the name heap
  kNodeNameHeap = 3,     // concatenated name bytes
  kFacts = 4,            // num_facts * 12-byte Fact records
  kMultiplicities = 5,   // num_facts * i64
  kExogenous = 6,        // num_facts * u8 (0/1)
};
constexpr uint32_t kSectionCount = 6;

size_t AlignUp(size_t n) {
  return (n + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

void PutU32(std::vector<uint8_t>* buf, uint32_t v) {
  const size_t at = buf->size();
  buf->resize(at + sizeof(v));
  std::memcpy(buf->data() + at, &v, sizeof(v));
}

void PutI64(std::vector<uint8_t>* buf, int64_t v) {
  const size_t at = buf->size();
  buf->resize(at + sizeof(v));
  std::memcpy(buf->data() + at, &v, sizeof(v));
}

Status ErrnoStatus(const std::string& what, const std::string& path) {
  const int err = errno;
  std::string msg = what + " '" + path + "': " + std::strerror(err);
  // Media-full / I/O-class errors are transient from the registry's point
  // of view: WriteSegment rewrites the whole temp file on every attempt,
  // so a later clean pass is fully durable and retry-with-backoff is
  // sound. Anything else is an environment or programming error.
  if (err == EIO || err == ENOSPC || err == EDQUOT || err == EAGAIN ||
      err == ENOMEM) {
    return Status::Unavailable(std::move(msg));
  }
  return Status::Internal(std::move(msg));
}

/// An open mmap'ed file, unmapped when it goes out of scope.
struct Mapping {
  const uint8_t* data = nullptr;
  size_t size = 0;

  ~Mapping() { ::munmap(const_cast<uint8_t*>(data), size); }
};

}  // namespace

Status WriteSegment(const std::string& path, const GraphDb& db,
                    const SegmentMeta& meta, int64_t* bytes_written) {
  if (db.is_versioned()) {
    return Status::InvalidArgument(
        "WriteSegment: database must be flat (Compact() an overlay first)");
  }
  if (db.num_live_facts() != db.num_facts()) {
    return Status::InvalidArgument(
        "WriteSegment: database must be all-live");
  }
  const int num_nodes = db.num_nodes();
  const int num_facts = db.num_facts();

  // --- build every section payload in memory ------------------------------
  std::array<std::vector<uint8_t>, kSectionCount> sections;
  auto section = [&sections](SectionKind kind) -> std::vector<uint8_t>* {
    return &sections[kind - 1];
  };

  {
    std::vector<uint8_t>* s = section(kMeta);
    PutU32(s, static_cast<uint32_t>(meta.name.size()));
    s->insert(s->end(), meta.name.begin(), meta.name.end());
  }
  {
    std::vector<uint8_t>* offs = section(kNodeNameOffsets);
    std::vector<uint8_t>* heap = section(kNodeNameHeap);
    uint32_t at = 0;
    PutU32(offs, 0);
    for (NodeId v = 0; v < num_nodes; ++v) {
      const std::string& name = db.node_name(v);
      heap->insert(heap->end(), name.begin(), name.end());
      at += static_cast<uint32_t>(name.size());
      PutU32(offs, at);
    }
  }
  {
    // Facts are written field by field into zeroed records so the three
    // padding bytes are deterministic (they feed the section checksum).
    std::vector<uint8_t>* s = section(kFacts);
    s->assign(static_cast<size_t>(num_facts) * sizeof(Fact), 0);
    for (FactId f = 0; f < num_facts; ++f) {
      uint8_t* rec = s->data() + static_cast<size_t>(f) * sizeof(Fact);
      const Fact& fact = db.fact(f);
      std::memcpy(rec + offsetof(Fact, source), &fact.source,
                  sizeof(fact.source));
      rec[offsetof(Fact, label)] = static_cast<uint8_t>(fact.label);
      std::memcpy(rec + offsetof(Fact, target), &fact.target,
                  sizeof(fact.target));
    }
  }
  {
    std::vector<uint8_t>* mult = section(kMultiplicities);
    std::vector<uint8_t>* exo = section(kExogenous);
    for (FactId f = 0; f < num_facts; ++f) {
      PutI64(mult, db.multiplicity(f));
      exo->push_back(db.IsExogenous(f) ? 1 : 0);
    }
  }
  // --- assemble the file ---------------------------------------------------
  const size_t table_at = kHeaderBytes;
  size_t payload_at = AlignUp(table_at + kSectionCount * kTableEntryBytes);
  std::vector<uint8_t> table;
  table.reserve(kSectionCount * kTableEntryBytes);
  std::vector<size_t> offsets(kSectionCount);
  for (uint32_t k = 0; k < kSectionCount; ++k) {
    const std::vector<uint8_t>& body = sections[k];
    offsets[k] = payload_at;
    PutU32(&table, k + 1);  // kind
    PutU32(&table, 0);      // reserved
    PutI64(&table, static_cast<int64_t>(payload_at));
    PutI64(&table, static_cast<int64_t>(body.size()));
    PutI64(&table,
           static_cast<int64_t>(XxHash64(body.data(), body.size())));
    payload_at = AlignUp(payload_at + body.size());
  }

  std::vector<uint8_t> file(payload_at, 0);
  std::memcpy(file.data(), kMagic, sizeof(kMagic));
  auto put_at = [&file](size_t at, const void* src, size_t n) {
    if (n != 0) std::memcpy(file.data() + at, src, n);  // src may be null
  };
  const uint32_t format_version = kFormatVersion;
  const uint32_t section_count = kSectionCount;
  const uint32_t version = meta.version;
  const uint32_t num_nodes_u = static_cast<uint32_t>(num_nodes);
  const uint32_t num_facts_u = static_cast<uint32_t>(num_facts);
  const uint32_t reserved = 0;
  put_at(8, &format_version, 4);
  put_at(12, &section_count, 4);
  put_at(16, &meta.lineage, 8);
  put_at(24, &version, 4);
  put_at(28, &num_nodes_u, 4);
  put_at(32, &num_facts_u, 4);
  put_at(36, &reserved, 4);
  put_at(40, &meta.snapshot_id, 8);
  const uint64_t table_checksum = XxHash64(table.data(), table.size());
  put_at(48, &table_checksum, 8);
  const uint64_t header_checksum = XxHash64(file.data(), 56);
  put_at(56, &header_checksum, 8);
  put_at(table_at, table.data(), table.size());
  for (uint32_t k = 0; k < kSectionCount; ++k) {
    put_at(offsets[k], sections[k].data(), sections[k].size());
  }

  // --- temp file + fsync + atomic rename ----------------------------------
  const std::string tmp_path = path + ".tmp";
  int fd = fault::Open(fault::sites::kSegmentOpen, tmp_path.c_str(),
                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return ErrnoStatus("WriteSegment: cannot create", tmp_path);
  size_t written = 0;
  while (written < file.size()) {
    ssize_t n = fault::Write(fault::sites::kSegmentWrite,
                             fd, file.data() + written,
                             file.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);  // invariant-ok: error-path cleanup, write already failed
      ::unlink(tmp_path.c_str());
      return ErrnoStatus("WriteSegment: write failed for", tmp_path);
    }
    written += static_cast<size_t>(n);
  }
  if (fault::Fsync(fault::sites::kSegmentFsync, fd) != 0) {
    ::close(fd);  // invariant-ok: error-path cleanup, fsync already failed
    ::unlink(tmp_path.c_str());
    return ErrnoStatus("WriteSegment: fsync failed for", tmp_path);
  }
  // close() can surface deferred write-back errors; a segment that failed
  // to close is not known durable.
  if (fault::Close(fault::sites::kSegmentClose, fd) != 0) {
    ::unlink(tmp_path.c_str());
    return ErrnoStatus("WriteSegment: close failed for", tmp_path);
  }
  if (fault::Rename(fault::sites::kSegmentRename, tmp_path.c_str(),
                    path.c_str()) != 0) {
    ::unlink(tmp_path.c_str());
    return ErrnoStatus("WriteSegment: rename failed for", path);
  }
  // fsync the directory so the rename itself is durable. Opening the
  // directory stays best-effort (exotic filesystems), but once open, a
  // failed fsync means the rename's durability is unknown — surface it;
  // a retry reruns the whole (idempotent) temp-write + rename.
  const size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash);
  // invariant-ok(storage-raw-syscall): best-effort directory open — some
  // filesystems refuse O_DIRECTORY opens; the injectable durability step
  // is the fsync below, which does go through its failpoint site.
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    if (fault::Fsync(fault::sites::kSegmentDirFsync, dfd) != 0) {
      ::close(dfd);  // invariant-ok: error-path cleanup, fsync already failed
      return ErrnoStatus("WriteSegment: directory fsync failed for", dir);
    }
    ::close(dfd);  // invariant-ok: read-only directory fd
  }
  if (bytes_written != nullptr) {
    *bytes_written = static_cast<int64_t>(file.size());
  }
  return Status::OK();
}

Result<LoadedSegment> ReadSegment(const std::string& path) {
  // invariant-ok(storage-raw-syscall): read path — the injectable read
  // failure mode is the mmap below, which goes through its site.
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("ReadSegment: cannot open '" + path + "': " +
                            std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);  // invariant-ok: read-path cleanup
    return ErrnoStatus("ReadSegment: fstat failed for", path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < kHeaderBytes) {
    ::close(fd);  // invariant-ok: read-path cleanup
    return Status::DataLoss("ReadSegment: '" + path + "' is truncated (" +
                            std::to_string(size) + " bytes)");
  }
  void* addr = fault::Mmap(fault::sites::kSegmentMmap, nullptr, size,
                           PROT_READ, MAP_PRIVATE, fd, 0);
  // invariant-ok(storage-raw-syscall): the mapping keeps the file
  // referenced; closing a read-only fd has no durability consequence.
  ::close(fd);
  if (addr == MAP_FAILED) {
    return ErrnoStatus("ReadSegment: mmap failed for", path);
  }
  const Mapping mapping{static_cast<const uint8_t*>(addr), size};
  // Fault the pages in up front: every byte is checksummed and read once,
  // right away.
  ::madvise(addr, size, MADV_WILLNEED);

  const uint8_t* base = mapping.data;
  auto data_loss = [&path](const std::string& why) {
    return Status::DataLoss("ReadSegment: '" + path + "': " + why);
  };
  if (std::memcmp(base, kMagic, sizeof(kMagic)) != 0) {
    return data_loss("bad magic (not a segment file)");
  }
  auto read_u32 = [base](size_t at) {
    uint32_t v;
    std::memcpy(&v, base + at, 4);
    return v;
  };
  auto read_u64 = [base](size_t at) {
    uint64_t v;
    std::memcpy(&v, base + at, 8);
    return v;
  };
  if (read_u32(8) != kFormatVersion) {
    return data_loss("unsupported format version " +
                     std::to_string(read_u32(8)));
  }
  if (read_u64(56) != XxHash64(base, 56)) {
    return data_loss("header checksum mismatch");
  }
  const uint32_t section_count = read_u32(12);
  if (section_count != kSectionCount) {
    return data_loss("unexpected section count " +
                     std::to_string(section_count));
  }
  const size_t table_bytes = section_count * kTableEntryBytes;
  if (kHeaderBytes + table_bytes > size) {
    return data_loss("section table past end of file");
  }
  if (read_u64(48) != XxHash64(base + kHeaderBytes, table_bytes)) {
    return data_loss("section table checksum mismatch");
  }

  SegmentMeta meta;
  meta.lineage = read_u64(16);
  meta.version = read_u32(24);
  meta.snapshot_id = read_u64(40);
  const uint32_t num_nodes = read_u32(28);
  const uint32_t num_facts = read_u32(32);
  // Node and fact ids are int32 everywhere; larger counts cannot be valid.
  if (num_nodes > INT32_MAX || num_facts > INT32_MAX) {
    return data_loss("node or fact count exceeds int32");
  }

  struct Section {
    size_t offset = 0;
    size_t size = 0;
  };
  std::array<Section, kSectionCount> secs;
  size_t end = kHeaderBytes + table_bytes;
  for (uint32_t i = 0; i < section_count; ++i) {
    const size_t at = kHeaderBytes + i * kTableEntryBytes;
    const uint32_t kind = read_u32(at);
    if (kind < 1 || kind > kSectionCount) {
      return data_loss("unknown section kind " + std::to_string(kind));
    }
    Section& s = secs[kind - 1];
    s.offset = static_cast<size_t>(read_u64(at + 8));
    s.size = static_cast<size_t>(read_u64(at + 16));
    if (s.offset > size || s.size > size - s.offset) {
      return data_loss("section " + std::to_string(kind) +
                       " past end of file");
    }
    if (read_u64(at + 24) != XxHash64(base + s.offset, s.size)) {
      return data_loss("section " + std::to_string(kind) +
                       " checksum mismatch");
    }
    end = std::max(end, s.offset + s.size);
  }
  // The writer ends the file at the aligned end of its last section; a
  // longer file was appended to and a shorter one lost its tail, even
  // when the bytes cut were only padding.
  if (size != AlignUp(end)) {
    return data_loss("file is " + std::to_string(size) +
                     " bytes, its sections end at " +
                     std::to_string(AlignUp(end)));
  }
  // The checksums cover header, table, and every section; the only bytes
  // left are alignment padding, which WriteSegment zeroes. Verifying they
  // are still zero makes corruption detection total — any flipped byte in
  // the file is caught.
  {
    std::vector<std::pair<size_t, size_t>> covered;
    covered.reserve(kSectionCount + 1);
    covered.emplace_back(0, kHeaderBytes + table_bytes);
    for (const Section& s : secs) covered.emplace_back(s.offset, s.size);
    std::sort(covered.begin(), covered.end());
    size_t at = 0;
    for (const auto& [offset, length] : covered) {
      for (size_t pad = at; pad < offset; ++pad) {
        if (base[pad] != 0) {
          return data_loss("nonzero padding byte at offset " +
                           std::to_string(pad));
        }
      }
      at = std::max(at, offset + length);
    }
    for (size_t pad = at; pad < size; ++pad) {
      if (base[pad] != 0) {
        return data_loss("nonzero padding byte at offset " +
                         std::to_string(pad));
      }
    }
  }
  auto sec = [&secs](SectionKind kind) -> const Section& {
    return secs[kind - 1];
  };
  auto expect_size = [&](SectionKind kind, size_t want) -> Status {
    if (sec(kind).size != want) {
      return data_loss("section " + std::to_string(kind) + " has " +
                       std::to_string(sec(kind).size) + " bytes, want " +
                       std::to_string(want));
    }
    return Status::OK();
  };
  RPQRES_RETURN_IF_ERROR(
      expect_size(kNodeNameOffsets, (num_nodes + 1) * 4ul));
  RPQRES_RETURN_IF_ERROR(expect_size(kFacts, num_facts * sizeof(Fact)));
  RPQRES_RETURN_IF_ERROR(expect_size(kMultiplicities, num_facts * 8ul));
  RPQRES_RETURN_IF_ERROR(expect_size(kExogenous, num_facts * 1ul));

  {
    const Section& m = sec(kMeta);
    if (m.size < 4) return data_loss("meta section too small");
    uint32_t name_len;
    std::memcpy(&name_len, base + m.offset, 4);
    if (name_len > m.size - 4) return data_loss("meta name overflows section");
    meta.name.assign(reinterpret_cast<const char*>(base + m.offset + 4),
                     name_len);
  }

  // The database is built the way every other input builds one: AddNode
  // per node, then AddFact and SetExogenous per fact.
  LoadedSegment out;
  GraphDb& db = out.db;
  {
    const uint32_t* offs =
        reinterpret_cast<const uint32_t*>(base + sec(kNodeNameOffsets).offset);
    const char* heap =
        reinterpret_cast<const char*>(base + sec(kNodeNameHeap).offset);
    const size_t heap_size = sec(kNodeNameHeap).size;
    if (offs[0] != 0 || offs[num_nodes] != heap_size) {
      return data_loss("node name offsets do not cover the heap");
    }
    for (uint32_t v = 0; v < num_nodes; ++v) {
      if (offs[v + 1] < offs[v] || offs[v + 1] > heap_size) {
        return data_loss("node name offsets not monotonic");
      }
      db.AddNode(std::string(heap + offs[v], offs[v + 1] - offs[v]));
    }
  }
  // Each fact is checked before AddFact sees it: AddFact CHECK-fails on a
  // bad multiplicity and merges a repeated key, and a repeated key is not
  // a database (facts are a set).
  const Fact* facts = reinterpret_cast<const Fact*>(base + sec(kFacts).offset);
  const Capacity* multiplicities = reinterpret_cast<const Capacity*>(
      base + sec(kMultiplicities).offset);
  const uint8_t* exogenous = base + sec(kExogenous).offset;
  auto is_node = [num_nodes](NodeId v) {
    return v >= 0 && static_cast<uint32_t>(v) < num_nodes;
  };
  for (FactId f = 0; f < static_cast<FactId>(num_facts); ++f) {
    const Fact& fact = facts[f];
    auto bad_fact = [&](const std::string& why) {
      return data_loss("fact " + std::to_string(f) + " " + why);
    };
    if (!is_node(fact.source) || !is_node(fact.target)) {
      return bad_fact("has an endpoint outside the node table");
    }
    if (multiplicities[f] < 1 || multiplicities[f] > kMaxMultiplicity) {
      return bad_fact("has a multiplicity outside [1, kMaxMultiplicity]");
    }
    if (exogenous[f] > 1) {
      return bad_fact("has an exogenous flag other than 0 or 1");
    }
    const FactId earlier = db.FindFact(fact.source, fact.label, fact.target);
    if (earlier >= 0) {
      return bad_fact("repeats the key of fact " + std::to_string(earlier));
    }
    const FactId id =
        db.AddFact(fact.source, fact.label, fact.target, multiplicities[f]);
    if (exogenous[f] != 0) db.SetExogenous(id);
  }
  out.meta = std::move(meta);
  out.file_bytes = static_cast<int64_t>(size);
  return out;
}

}  // namespace storage
}  // namespace rpqres
