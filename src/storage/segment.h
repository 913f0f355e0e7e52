// rpqres — storage/segment: the on-disk snapshot segment format.
//
// One segment file holds one *flat* database snapshot as its fact table
// alone — the node table, the name dictionary and the dense fact columns
// — in the little-endian layouts the in-memory structures use, in the
// spirit of RDF-3X's paged fact / dictionary segments. Everything derived
// from the facts (the LabelIndex, the key table) is rebuilt on open, so
// no stored byte is trusted without being checked.
//
// File layout (all integers little-endian), format version 3:
//
//   [0,  64)  header: magic "RPQSEG01", format version, section count,
//             lineage / version / snapshot id, node and fact counts,
//             XXH64 of the section table, XXH64 of the header itself.
//   [64, ..)  section table: one 32-byte entry per section
//             {kind, offset, size, XXH64 checksum}.
//   ...       6 sections, each 64-byte aligned, zero-padded between and
//             after: meta (lineage name), node-name offsets and heap,
//             facts, multiplicities, exogenous flags. The file ends at
//             the aligned end of its last section.
//
// Versions 1 and 2 also stored derived arrays (adjacency, a sorted key
// permutation, the label index); ReadSegment refuses them as kDataLoss.
//
// Torn or corrupt files are detected by the checksums, the padding and
// the file length, and reported as kDataLoss. ReadSegment builds the
// database through AddNode / AddFact, the path every other input takes,
// and refuses a checksum-consistent file whose facts are not a database:
// an endpoint outside the node table, a multiplicity outside
// [1, kMaxMultiplicity], an exogenous flag other than 0 or 1, or a
// repeated (source, label, target) key. A segment is only ever published
// via temp file + fsync + atomic rename, so a crash mid-write leaves the
// previous segment (or nothing) in place, never a half-written one.

#ifndef RPQRES_STORAGE_SEGMENT_H_
#define RPQRES_STORAGE_SEGMENT_H_

#include <cstdint>
#include <string>

#include "graphdb/graph_db.h"
#include "util/status.h"

namespace rpqres {
namespace storage {

/// Registry identity of the snapshot a segment stores.
struct SegmentMeta {
  uint64_t lineage = 0;
  uint32_t version = 1;
  uint64_t snapshot_id = 0;
  std::string name;  ///< lineage display name ("" when unnamed)
};

/// A segment opened by ReadSegment: the flat database it stores, plus
/// the snapshot identity and the file size.
struct LoadedSegment {
  GraphDb db;
  SegmentMeta meta;
  int64_t file_bytes = 0;
};

/// Serializes the flat, all-live database `db` to `path` via temp file +
/// fsync + atomic rename. `db` must not be an overlay — compact first. On
/// success `*bytes_written` (optional) receives the final file size.
Status WriteSegment(const std::string& path, const GraphDb& db,
                    const SegmentMeta& meta, int64_t* bytes_written = nullptr);

/// Maps the segment at `path` and builds the database it stores.
/// Validates magic, format version, section table, every section
/// checksum and padding byte, the file length, and every fact;
/// corruption, truncation or an unsupported version yields kDataLoss.
Result<LoadedSegment> ReadSegment(const std::string& path);

}  // namespace storage
}  // namespace rpqres

#endif  // RPQRES_STORAGE_SEGMENT_H_
