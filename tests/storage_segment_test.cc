// Unit tests for the storage layer's two file formats: base segments
// (storage/segment.h) and per-lineage delta journals (storage/journal.h).
// Round trips, checksum/corruption detection, the torn-tail rule, and
// sweeps that flip every byte of each format — the registry-level
// crash-recovery sweep lives in storage_recovery_test.cc.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "graphdb/generators.h"
#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
#include "graphdb/serialization.h"
#include "lang/language.h"
#include "lang/ro_enfa.h"
#include "resilience/local_resilience.h"
#include "storage/journal.h"
#include "storage/segment.h"
#include "storage/xxhash64.h"
#include "util/rng.h"

namespace rpqres {
namespace storage {
namespace {

std::string TempPath(const std::string& stem) {
  return (std::filesystem::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid())))
      .string();
}

GraphDb SampleDb() {
  GraphDb db;
  NodeId a = db.AddNode("alpha");
  NodeId b = db.AddNode("beta");
  NodeId c = db.AddNode();  // generated name
  NodeId d = db.AddNode("delta");
  db.AddFact(a, 'x', b, 3);
  db.AddFact(b, 'y', c);
  db.AddFact(c, 'x', a, 7);
  FactId f = db.AddFact(c, 'z', d);
  db.AddFact(d, 'y', a, 2);
  db.SetExogenous(f);
  return db;
}

std::vector<FactId> ToVector(std::span<const FactId> span) {
  return std::vector<FactId>(span.begin(), span.end());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Segment byte layout, as segment.h documents it: a 64-byte header whose
// format version sits at byte 8, the table checksum at 48 and the header
// checksum at 56, then one 32-byte table entry per section
// {kind u32, reserved u32, offset i64, size i64, XXH64 u64}.
constexpr size_t kHeaderBytes = 64;
constexpr size_t kTableEntryBytes = 32;
constexpr uint32_t kFactsSection = 4;           // one 12-byte Fact per fact
constexpr uint32_t kMultiplicitiesSection = 5;  // one i64 per fact

template <typename T>
T Load(const std::string& file, size_t at) {
  T value;
  std::memcpy(&value, file.data() + at, sizeof(T));
  return value;
}

template <typename T>
void Store(std::string* file, size_t at, T value) {
  std::memcpy(file->data() + at, &value, sizeof(T));
}

struct SectionBytes {
  uint32_t kind = 0;
  size_t offset = 0;
  size_t size = 0;
};

std::vector<SectionBytes> Sections(const std::string& file) {
  std::vector<SectionBytes> sections;
  const uint32_t count = Load<uint32_t>(file, 12);
  for (uint32_t i = 0; i < count; ++i) {
    const size_t at = kHeaderBytes + i * kTableEntryBytes;
    sections.push_back({Load<uint32_t>(file, at),
                        static_cast<size_t>(Load<int64_t>(file, at + 8)),
                        static_cast<size_t>(Load<int64_t>(file, at + 16))});
  }
  return sections;
}

// Recomputes every section checksum, then the table and header checksums:
// the file a writer would have sealed around the (edited) bytes.
void Reseal(std::string* file) {
  const std::vector<SectionBytes> sections = Sections(*file);
  for (size_t i = 0; i < sections.size(); ++i) {
    Store(file, kHeaderBytes + i * kTableEntryBytes + 24,
          XxHash64(file->data() + sections[i].offset, sections[i].size));
  }
  Store(file, 48,
        XxHash64(file->data() + kHeaderBytes,
                 sections.size() * kTableEntryBytes));
  Store(file, 56, XxHash64(file->data(), 56));
}

TEST(SegmentTest, RoundTripsDbAndIndex) {
  const std::string path = TempPath("seg_roundtrip");
  GraphDb db = SampleDb();
  SegmentMeta meta;
  meta.lineage = 42;
  meta.version = 7;
  meta.snapshot_id = 99;
  meta.name = "sample";
  int64_t bytes = 0;
  ASSERT_TRUE(WriteSegment(path, db, meta, &bytes).ok());
  EXPECT_GT(bytes, 0);

  Result<LoadedSegment> loaded = ReadSegment(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->meta.lineage, 42u);
  EXPECT_EQ(loaded->meta.version, 7u);
  EXPECT_EQ(loaded->meta.snapshot_id, 99u);
  EXPECT_EQ(loaded->meta.name, "sample");
  EXPECT_EQ(loaded->file_bytes, bytes);

  // Content equality, down to node names and multiplicities.
  EXPECT_EQ(SerializeGraphDb(loaded->db), SerializeGraphDb(db));
  ASSERT_EQ(loaded->db.num_nodes(), db.num_nodes());
  for (NodeId v = 0; v < db.num_nodes(); ++v) {
    EXPECT_EQ(loaded->db.node_name(v), db.node_name(v));
  }
  ASSERT_EQ(loaded->db.num_facts(), db.num_facts());
  for (FactId f = 0; f < db.num_facts(); ++f) {
    EXPECT_EQ(loaded->db.fact(f).source, db.fact(f).source);
    EXPECT_EQ(loaded->db.fact(f).label, db.fact(f).label);
    EXPECT_EQ(loaded->db.fact(f).target, db.fact(f).target);
    EXPECT_EQ(loaded->db.multiplicity(f), db.multiplicity(f));
    EXPECT_EQ(loaded->db.IsExogenous(f), db.IsExogenous(f));
    const Fact& fact = loaded->db.fact(f);
    EXPECT_EQ(loaded->db.FindFact(fact.source, fact.label, fact.target), f);
  }
  EXPECT_EQ(loaded->db.FindFact(2, 'x', 0), db.FindFact(2, 'x', 0));
  EXPECT_EQ(loaded->db.FindFact(0, 'q', 1), db.FindFact(0, 'q', 1));

  // The label index of the loaded database matches the in-memory index
  // span for span, per label and per node.
  LabelIndex rebuilt(db);
  const LabelIndex loaded_index(loaded->db);
  ASSERT_EQ(loaded_index.labels(), rebuilt.labels());
  for (char label : rebuilt.labels()) {
    EXPECT_EQ(ToVector(loaded_index.Facts(label)),
              ToVector(rebuilt.Facts(label)));
    for (NodeId v = 0; v < db.num_nodes(); ++v) {
      EXPECT_EQ(ToVector(loaded_index.FactsFrom(label, v)),
                ToVector(rebuilt.FactsFrom(label, v)));
      EXPECT_EQ(ToVector(loaded_index.FactsInto(label, v)),
                ToVector(rebuilt.FactsInto(label, v)));
    }
  }
  std::filesystem::remove(path);
}

TEST(SegmentTest, LoadedDbServesAsAnOverlayBase) {
  const std::string path = TempPath("seg_overlay_base");
  GraphDb db = SampleDb();
  SegmentMeta meta;
  meta.lineage = 1;
  ASSERT_TRUE(WriteSegment(path, db, meta).ok());
  Result<LoadedSegment> loaded = ReadSegment(path);
  ASSERT_TRUE(loaded.ok());
  // An overlay over a loaded base is the normal delta-commit path.
  auto base = std::make_shared<GraphDb>(loaded->db);
  GraphDb overlay =
      GraphDb::MakeOverlay(std::shared_ptr<const GraphDb>(base, base.get()));
  NodeId n = overlay.AddNode("extra");
  overlay.AddFact(0, 'w', n);
  EXPECT_EQ(overlay.num_facts(), db.num_facts() + 1);
  EXPECT_EQ(overlay.num_nodes(), db.num_nodes() + 1);
  std::filesystem::remove(path);
}

TEST(SegmentTest, RejectsNonFlatDatabases) {
  const std::string path = TempPath("seg_nonflat");
  auto base = std::make_shared<GraphDb>(SampleDb());
  GraphDb overlay =
      GraphDb::MakeOverlay(std::shared_ptr<const GraphDb>(base, base.get()));
  SegmentMeta meta;
  Status status = WriteSegment(path, overlay, meta);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(SegmentTest, DetectsCorruptionAnywhere) {
  const std::string path = TempPath("seg_corrupt");
  GraphDb db = SampleDb();
  SegmentMeta meta;
  meta.lineage = 3;
  int64_t bytes = 0;
  ASSERT_TRUE(WriteSegment(path, db, meta, &bytes).ok());
  std::string file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(static_cast<int64_t>(file.size()), bytes);
  // Flip one byte at a spread of offsets: header, table, and sections.
  for (size_t offset : {size_t{0}, size_t{8}, size_t{70},
                        file.size() / 2, file.size() - 1}) {
    std::string mutated = file;
    mutated[offset] ^= 0x40;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    Result<LoadedSegment> loaded = ReadSegment(path);
    EXPECT_FALSE(loaded.ok()) << "byte " << offset << " flip went unnoticed";
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << loaded.status().ToString();
    }
  }
  // Truncation at any point is also data loss (or NotFound for empty).
  for (size_t keep : {size_t{0}, size_t{13}, size_t{64}, file.size() - 7}) {
    std::string truncated = file.substr(0, keep);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(truncated.data(),
                static_cast<std::streamsize>(truncated.size()));
    }
    Result<LoadedSegment> loaded = ReadSegment(path);
    EXPECT_FALSE(loaded.ok()) << "truncation to " << keep << " loaded";
  }
  std::filesystem::remove(path);
}

TEST(SegmentTest, FormatVersionOneIsRefused) {
  // Versions 1 and 2 stored derived sections that version 3 dropped; an
  // older header, even correctly sealed, must not be read as version 3.
  const std::string path = TempPath("seg_version1");
  ASSERT_TRUE(WriteSegment(path, SampleDb(), SegmentMeta{}).ok());
  const std::string original = ReadFile(path);
  for (uint32_t version : {1u, 2u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::string file = original;
    Store<uint32_t>(&file, 8, version);
    Reseal(&file);
    WriteFile(path, file);
    Result<LoadedSegment> loaded = ReadSegment(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(loaded.status().message().find("unsupported format version " +
                                             std::to_string(version)),
              std::string::npos)
        << loaded.status().ToString();
  }
  std::filesystem::remove(path);
}

TEST(SegmentTest, ChecksumConsistentOutOfRangeFactIdIsDataLoss) {
  // A fact endpoint far past the node table, with every checksum
  // re-sealed around it: only id validation can refuse this file.
  const std::string path = TempPath("seg_bad_id");
  GraphDb db;
  NodeId u = db.AddNode("u"), v = db.AddNode("v"), w = db.AddNode("w");
  db.AddFact(u, 'a', v);
  db.AddFact(v, 'a', w);
  db.AddFact(w, 'b', u);
  ASSERT_TRUE(WriteSegment(path, db, SegmentMeta{}).ok());
  std::string file = ReadFile(path);
  for (const SectionBytes& section : Sections(file)) {
    if (section.kind == kFactsSection) {
      Store<int32_t>(&file, section.offset + offsetof(Fact, target), 1000000);
    }
  }
  Reseal(&file);
  WriteFile(path, file);
  Result<LoadedSegment> loaded = ReadSegment(path);
  ASSERT_FALSE(loaded.ok()) << "node id 1000000 of a 3-node table loaded";
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  std::filesystem::remove(path);
}

TEST(SegmentTest, ChecksumConsistentMultiplicityAboveTheBoundIsDataLoss) {
  // kMaxMultiplicity loads; one more, with every checksum re-sealed
  // around it, is refused by validation alone.
  const std::string path = TempPath("seg_big_multiplicity");
  GraphDb db;
  NodeId u = db.AddNode("u"), v = db.AddNode("v");
  db.AddFact(u, 'a', v, kMaxMultiplicity);
  ASSERT_TRUE(WriteSegment(path, db, SegmentMeta{}).ok());
  Result<LoadedSegment> at_bound = ReadSegment(path);
  ASSERT_TRUE(at_bound.ok()) << at_bound.status().ToString();
  EXPECT_EQ(at_bound->db.multiplicity(0), kMaxMultiplicity);
  std::string file = ReadFile(path);
  for (const SectionBytes& section : Sections(file)) {
    if (section.kind == kMultiplicitiesSection) {
      Store<int64_t>(&file, section.offset, kMaxMultiplicity + 1);
    }
  }
  Reseal(&file);
  WriteFile(path, file);
  Result<LoadedSegment> over = ReadSegment(path);
  ASSERT_FALSE(over.ok()) << "multiplicity 2^29 + 1 loaded";
  EXPECT_EQ(over.status().code(), StatusCode::kDataLoss);
  std::filesystem::remove(path);
}

TEST(SegmentTest, ResealedWordCorruptionIsRefusedOrStaysInRange) {
  // Seeded: overwrite one 4-byte word of an array section, re-seal every
  // checksum, read. The reader must refuse the file with kDataLoss, or
  // hand out a database whose every id is in range and whose keys are
  // unique, so that its index is too — and a local solve over them must
  // complete. The sanitize job runs this under ASan/UBSan.
  const std::string path = TempPath("seg_word_fuzz");
  Rng db_rng(5);
  GraphDb db = RandomGraphDb(&db_rng, 12, 40, {'a', 'x', 'b'}, 5);
  db.SetExogenous(0);
  ASSERT_TRUE(WriteSegment(path, db, SegmentMeta{}).ok());
  const std::string original = ReadFile(path);
  std::vector<SectionBytes> arrays;
  for (const SectionBytes& section : Sections(original)) {
    // Meta and the node-name heap are byte strings, not arrays.
    if (section.kind != 1 && section.kind != 3 && section.size >= 4) {
      arrays.push_back(section);
    }
  }
  const RoProductTables tables =
      BuildRoProductTables(
          BuildRoEnfa(Language::MustFromRegexString("ax*b")).ValueOrDie())
          .ValueOrDie();

  int refused = 0, accepted = 0;
  for (uint64_t seed = 0; seed < 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const SectionBytes& section = arrays[rng.NextBelow(arrays.size())];
    const size_t at = section.offset + 4 * rng.NextBelow(section.size / 4);
    const uint32_t old_word = Load<uint32_t>(original, at);
    uint32_t word = 0;
    switch (rng.NextBelow(3)) {
      case 0:  // anything
        word = static_cast<uint32_t>(rng.Next());
        break;
      case 1:  // near the old value: off-by-a-few ids and offsets
        word = old_word + static_cast<uint32_t>(rng.NextInRange(-3, 3));
        break;
      default:  // a small value, often a valid-looking id
        word = static_cast<uint32_t>(rng.NextBelow(64));
        break;
    }
    std::string file = original;
    Store(&file, at, word);
    Reseal(&file);
    WriteFile(path, file);

    Result<LoadedSegment> loaded = ReadSegment(path);
    if (!loaded.ok()) {
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << loaded.status().ToString();
      ++refused;
      continue;
    }
    ++accepted;
    const GraphDb& restored = loaded->db;
    const LabelIndex index(restored);
    const int n = restored.num_nodes();
    const int m = restored.num_facts();
    for (FactId f = 0; f < m; ++f) {
      const Fact& fact = restored.fact(f);
      ASSERT_GE(fact.source, 0);
      ASSERT_LT(fact.source, n);
      ASSERT_GE(fact.target, 0);
      ASSERT_LT(fact.target, n);
      ASSERT_EQ(restored.FindFact(fact.source, fact.label, fact.target), f);
    }
    for (char label : index.labels()) {
      for (FactId f : index.Facts(label)) {
        ASSERT_GE(f, 0);
        ASSERT_LT(f, m);
        ASSERT_EQ(restored.fact(f).label, label);
      }
      for (NodeId v = 0; v < n; ++v) {
        for (FactId f : index.FactsFrom(label, v)) {
          ASSERT_GE(f, 0);
          ASSERT_LT(f, m);
          ASSERT_EQ(restored.fact(f).source, v);
        }
        for (FactId f : index.FactsInto(label, v)) {
          ASSERT_GE(f, 0);
          ASSERT_LT(f, m);
          ASSERT_EQ(restored.fact(f).target, v);
        }
      }
    }
    // Bag semantics reads every multiplicity word: the reader refuses any
    // multiplicity above kMaxMultiplicity, so no accepted file can push
    // the flow core past its capacity limit.
    ResilienceResult result = SolveLocalResilienceWithTables(
        tables, restored, Semantics::kBag, &index);
    EXPECT_TRUE(result.infinite || result.value >= 0);
  }
  // Both outcomes occur, so neither leg is vacuous.
  EXPECT_GT(refused, 0);
  EXPECT_GT(accepted, 0);
  std::filesystem::remove(path);
}

TEST(SegmentTest, ChecksumConsistentRepeatedKeyIsDataLoss) {
  // Fact 1 rewritten to repeat fact 0's (source, label, target), with
  // every checksum re-sealed around it. Facts are a set, so this file is
  // not a database: loading it would leave two live copies of one key,
  // of which FindFact sees one.
  const std::string path = TempPath("seg_repeated_key");
  GraphDb db;
  NodeId u = db.AddNode("u"), v = db.AddNode("v"), w = db.AddNode("w");
  db.AddFact(u, 'a', v, 2);
  db.AddFact(u, 'a', w, 3);
  db.AddFact(w, 'b', u);
  ASSERT_TRUE(WriteSegment(path, db, SegmentMeta{}).ok());
  std::string file = ReadFile(path);
  for (const SectionBytes& section : Sections(file)) {
    if (section.kind == kFactsSection) {
      Store<int32_t>(&file, section.offset + sizeof(Fact) +
                                offsetof(Fact, target), v);
    }
  }
  Reseal(&file);
  WriteFile(path, file);
  Result<LoadedSegment> loaded = ReadSegment(path);
  ASSERT_FALSE(loaded.ok()) << "a repeated (u, a, v) key loaded";
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("fact 1 repeats the key of fact 0"),
            std::string::npos)
      << loaded.status().ToString();
  std::filesystem::remove(path);
}

// A chain of `num_facts` facts over num_facts + 1 nodes whose names and
// labels vary, so that the sizes sweep the section paddings.
GraphDb ChainDb(int num_facts) {
  GraphDb db;
  db.AddNode("v0");
  for (int i = 0; i < num_facts; ++i) {
    NodeId next = db.AddNode("v" + std::to_string(i + 1));
    db.AddFact(next - 1, static_cast<char>('a' + i % 3), next, i + 1);
  }
  return db;
}

TEST(SegmentTest, EveryTailCutIsDataLoss) {
  // The file must end exactly where its writer ended it: a cut of 1-63
  // bytes removes at most padding from some segments, which the
  // checksums alone do not notice.
  const std::string path = TempPath("seg_tail_cut");
  for (int num_facts = 1; num_facts <= 40; ++num_facts) {
    ASSERT_TRUE(WriteSegment(path, ChainDb(num_facts), SegmentMeta{}).ok());
    const std::string file = ReadFile(path);
    for (size_t cut = 1; cut <= 63; ++cut) {
      WriteFile(path, file.substr(0, file.size() - cut));
      Result<LoadedSegment> loaded = ReadSegment(path);
      ASSERT_FALSE(loaded.ok())
          << num_facts << " facts, " << cut << " tail bytes cut";
      EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
          << loaded.status().ToString();
    }
  }
  std::filesystem::remove(path);
}

TEST(SegmentTest, EveryByteFlipIsDataLoss) {
  // Header, table, sections and padding: every byte of the file is
  // covered by a checksum, the padding check or the length check.
  const std::string path = TempPath("seg_byte_flip");
  GraphDb db = ChainDb(40);
  db.SetExogenous(7);
  ASSERT_TRUE(WriteSegment(path, db, SegmentMeta{9, 2, 11, "chain"}).ok());
  const std::string original = ReadFile(path);
  for (size_t at = 0; at < original.size(); ++at) {
    std::string file = original;
    file[at] = static_cast<char>(file[at] ^ 0xff);
    WriteFile(path, file);
    Result<LoadedSegment> loaded = ReadSegment(path);
    ASSERT_FALSE(loaded.ok()) << "byte " << at << " flip went unnoticed";
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << loaded.status().ToString();
  }
  std::filesystem::remove(path);
}

TEST(SegmentTest, MissingFileIsNotDataLoss) {
  Result<LoadedSegment> loaded = ReadSegment(TempPath("seg_never_written"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().code(), StatusCode::kDataLoss);
}

TEST(JournalTest, AppendsAndReadsGroups) {
  const std::string path = TempPath("journal_roundtrip");
  std::filesystem::remove(path);
  Result<JournalWriter> writer = JournalWriter::Open(path, 5);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();

  std::vector<JournalOp> group;
  JournalOp begin;
  begin.type = JournalOp::Type::kBegin;
  begin.version = 1;
  group.push_back(begin);
  JournalOp add_node;
  add_node.type = JournalOp::Type::kAddNode;
  add_node.name = "fresh";
  group.push_back(add_node);
  JournalOp add_fact;
  add_fact.type = JournalOp::Type::kAddFact;
  add_fact.source = 0;
  add_fact.target = 1;
  add_fact.label = 'q';
  add_fact.multiplicity = 4;
  group.push_back(add_fact);
  JournalOp remove_fact;
  remove_fact.type = JournalOp::Type::kRemoveFact;
  remove_fact.source = 1;
  remove_fact.target = 2;
  remove_fact.label = 'r';
  group.push_back(remove_fact);
  JournalOp commit;
  commit.type = JournalOp::Type::kCommit;
  commit.version = 2;
  commit.snapshot_id = 17;
  group.push_back(commit);
  ASSERT_TRUE(writer->Append(group).ok());

  JournalOp drop;
  drop.type = JournalOp::Type::kDropVersion;
  drop.version = 1;
  ASSERT_TRUE(writer->Append({drop}).ok());
  EXPECT_EQ(writer->records(), 6);

  Result<JournalContents> contents = ReadJournal(path, 5);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  EXPECT_EQ(contents->lineage, 5u);
  EXPECT_EQ(contents->records, 6);
  ASSERT_EQ(contents->groups.size(), 2u);
  const JournalGroup& g = contents->groups[0];
  EXPECT_FALSE(g.is_drop);
  EXPECT_EQ(g.parent_version, 1u);
  EXPECT_EQ(g.commit_version, 2u);
  EXPECT_EQ(g.snapshot_id, 17u);
  ASSERT_EQ(g.ops.size(), 3u);
  EXPECT_EQ(g.ops[0].type, JournalOp::Type::kAddNode);
  EXPECT_EQ(g.ops[0].name, "fresh");
  EXPECT_EQ(g.ops[1].type, JournalOp::Type::kAddFact);
  EXPECT_EQ(g.ops[1].source, 0);
  EXPECT_EQ(g.ops[1].target, 1);
  EXPECT_EQ(g.ops[1].label, 'q');
  EXPECT_EQ(g.ops[1].multiplicity, 4);
  EXPECT_EQ(g.ops[2].type, JournalOp::Type::kRemoveFact);
  EXPECT_TRUE(contents->groups[1].is_drop);
  EXPECT_EQ(contents->groups[1].drop_version, 1u);
  std::filesystem::remove(path);
}

TEST(JournalTest, LineageMismatchIsDataLoss) {
  const std::string path = TempPath("journal_lineage");
  std::filesystem::remove(path);
  ASSERT_TRUE(JournalWriter::Open(path, 5).ok());
  Result<JournalContents> contents = ReadJournal(path, 6);
  EXPECT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kDataLoss);
  Result<JournalWriter> writer = JournalWriter::Open(path, 6);
  EXPECT_FALSE(writer.ok());
  std::filesystem::remove(path);
}

TEST(JournalTest, TornTailRollsBackToLastCommit) {
  const std::string path = TempPath("journal_torn");
  std::filesystem::remove(path);
  Result<JournalWriter> writer = JournalWriter::Open(path, 9);
  ASSERT_TRUE(writer.ok());
  auto make_group = [](uint32_t parent, uint32_t version) {
    std::vector<JournalOp> group;
    JournalOp begin;
    begin.type = JournalOp::Type::kBegin;
    begin.version = parent;
    group.push_back(begin);
    JournalOp add;
    add.type = JournalOp::Type::kAddFact;
    add.source = 0;
    add.target = 1;
    add.label = 'a';
    group.push_back(add);
    JournalOp commit;
    commit.type = JournalOp::Type::kCommit;
    commit.version = version;
    commit.snapshot_id = version;
    group.push_back(commit);
    return group;
  };
  ASSERT_TRUE(writer->Append(make_group(1, 2)).ok());
  const int64_t after_first = writer->bytes();
  ASSERT_TRUE(writer->Append(make_group(2, 3)).ok());
  const int64_t full = writer->bytes();

  std::string file;
  {
    std::ifstream in(path, std::ios::binary);
    file.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_EQ(static_cast<int64_t>(file.size()), full);
  // Truncating anywhere inside the second group rolls back to the first:
  // its Commit record is gone, so none of it counts.
  for (int64_t keep = after_first; keep < full; ++keep) {
    std::string truncated = file.substr(0, static_cast<size_t>(keep));
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(truncated.data(),
                static_cast<std::streamsize>(truncated.size()));
    }
    Result<JournalContents> contents = ReadJournal(path, 9);
    ASSERT_TRUE(contents.ok()) << contents.status().ToString();
    EXPECT_EQ(contents->valid_bytes, after_first) << "keep=" << keep;
    ASSERT_EQ(contents->groups.size(), 1u) << "keep=" << keep;
    EXPECT_EQ(contents->groups[0].commit_version, 2u);
  }
  // A corrupt byte inside the second group has the same effect.
  {
    std::string mutated = file;
    mutated[static_cast<size_t>(after_first) + 14] ^= 0x01;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
  }
  Result<JournalContents> contents = ReadJournal(path, 9);
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents->valid_bytes, after_first);
  ASSERT_EQ(contents->groups.size(), 1u);

  // Reopening at valid_bytes chops the tail and appending works again.
  Result<JournalWriter> reopened =
      JournalWriter::Open(path, 9, contents->valid_bytes, contents->records);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened->bytes(), after_first);
  ASSERT_TRUE(reopened->Append(make_group(2, 3)).ok());
  Result<JournalContents> reread = ReadJournal(path, 9);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(reread->groups.size(), 2u);
  std::filesystem::remove(path);
}

TEST(JournalTest, ResetTruncatesToHeader) {
  const std::string path = TempPath("journal_reset");
  std::filesystem::remove(path);
  Result<JournalWriter> writer = JournalWriter::Open(path, 4);
  ASSERT_TRUE(writer.ok());
  JournalOp drop;
  drop.type = JournalOp::Type::kDropVersion;
  drop.version = 1;
  ASSERT_TRUE(writer->Append({drop}).ok());
  ASSERT_TRUE(writer->Reset().ok());
  EXPECT_EQ(writer->records(), 0);
  Result<JournalContents> contents = ReadJournal(path, 4);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->groups.empty());
  std::filesystem::remove(path);
}

bool SameOps(const std::vector<JournalOp>& a,
             const std::vector<JournalOp>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].type != b[i].type || a[i].version != b[i].version ||
        a[i].snapshot_id != b[i].snapshot_id || a[i].source != b[i].source ||
        a[i].target != b[i].target || a[i].label != b[i].label ||
        a[i].multiplicity != b[i].multiplicity || a[i].name != b[i].name) {
      return false;
    }
  }
  return true;
}

bool SameGroup(const JournalGroup& a, const JournalGroup& b) {
  return a.is_drop == b.is_drop && a.drop_version == b.drop_version &&
         a.parent_version == b.parent_version &&
         a.commit_version == b.commit_version &&
         a.snapshot_id == b.snapshot_id && SameOps(a.ops, b.ops);
}

TEST(JournalTest, EveryByteFlipIsDataLossOrAPrefix) {
  // A flipped header byte is kDataLoss; a flipped record byte cuts the
  // journal at that record's group. Either way no group that survives
  // differs from the one written.
  const std::string path = TempPath("journal_byte_flip");
  std::filesystem::remove(path);
  Result<JournalWriter> writer = JournalWriter::Open(path, 12);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  auto op = [](JournalOp::Type type) {
    JournalOp out;
    out.type = type;
    return out;
  };
  JournalOp begin = op(JournalOp::Type::kBegin);
  begin.version = 1;
  JournalOp add_node = op(JournalOp::Type::kAddNode);
  add_node.name = "fresh";
  JournalOp add_fact = op(JournalOp::Type::kAddFact);
  add_fact.source = 0;
  add_fact.target = 1;
  add_fact.label = 'q';
  add_fact.multiplicity = 4;
  JournalOp commit = op(JournalOp::Type::kCommit);
  commit.version = 2;
  commit.snapshot_id = 17;
  ASSERT_TRUE(writer->Append({begin, add_node, add_fact, commit}).ok());
  JournalOp drop = op(JournalOp::Type::kDropVersion);
  drop.version = 1;
  ASSERT_TRUE(writer->Append({drop}).ok());
  JournalOp remove_fact = op(JournalOp::Type::kRemoveFact);
  remove_fact.source = 0;
  remove_fact.target = 1;
  remove_fact.label = 'q';
  begin.version = 2;
  commit.version = 3;
  commit.snapshot_id = 18;
  ASSERT_TRUE(writer->Append({begin, remove_fact, commit}).ok());

  Result<JournalContents> written = ReadJournal(path, 12);
  ASSERT_TRUE(written.ok()) << written.status().ToString();
  ASSERT_EQ(written->groups.size(), 3u);
  const std::string original = ReadFile(path);
  int refused = 0, cut = 0;
  for (size_t at = 0; at < original.size(); ++at) {
    SCOPED_TRACE("byte " + std::to_string(at));
    std::string file = original;
    file[at] = static_cast<char>(file[at] ^ 0xff);
    WriteFile(path, file);
    Result<JournalContents> contents = ReadJournal(path, 12);
    if (!contents.ok()) {
      EXPECT_EQ(contents.status().code(), StatusCode::kDataLoss)
          << contents.status().ToString();
      ++refused;
      continue;
    }
    ++cut;
    ASSERT_LT(contents->groups.size(), written->groups.size());
    for (size_t g = 0; g < contents->groups.size(); ++g) {
      EXPECT_TRUE(SameGroup(contents->groups[g], written->groups[g]))
          << "group " << g;
    }
  }
  // Both outcomes occur, so neither leg is vacuous.
  EXPECT_GT(refused, 0);
  EXPECT_GT(cut, 0);
  std::filesystem::remove(path);
}

TEST(XxHashTest, MatchesReferenceVectors) {
  // Reference values from the canonical xxHash implementation.
  EXPECT_EQ(XxHash64(nullptr, 0), 0xef46db3751d8e999ULL);
  const char kAbc[] = "abc";
  EXPECT_EQ(XxHash64(kAbc, 3), 0x44bc2cf5ad770999ULL);
  const char kLong[] = "xxhash is a fast non-cryptographic hash";
  EXPECT_NE(XxHash64(kLong, sizeof(kLong) - 1),
            XxHash64(kLong, sizeof(kLong) - 2));
}

}  // namespace
}  // namespace storage
}  // namespace rpqres
