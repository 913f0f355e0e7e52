// rpqres — storage/segment: the on-disk snapshot segment format.
//
// One segment file holds one *flat* database snapshot — the node table,
// name dictionary, dense fact arrays, and the per-(label, node) CSR
// arrays of its LabelIndex, the snapshot's only adjacency — in exactly
// the little-endian layouts the in-memory structures use, in the spirit
// of RDF-3X's paged fact / dictionary segments. Because the byte layout
// matches the memory layout, ReadSegment can mmap the file and hand the
// arrays to GraphDb::FromMappedFlat / LabelIndex::FromMapped with zero
// parse and no copy of the arrays; only the node-name dictionary is
// materialized.
//
// File layout (all integers little-endian), format version 2:
//
//   [0,  64)  header: magic "RPQSEG01", format version, section count,
//             lineage / version / snapshot id, node and fact counts,
//             XXH64 of the section table, XXH64 of the header itself.
//   [64, ..)  section table: one 32-byte entry per section
//             {kind, offset, size, XXH64 checksum}.
//   ...       13 sections, each 64-byte aligned, zero-padded between:
//             meta (lineage name), node-name offsets and heap, facts,
//             multiplicities, exogenous flags, the (source, label,
//             target)-sorted fact permutation, and the label index —
//             label directory, per-label fact lists, and per-label
//             source and target CSRs (adjacency plus offsets).
//
// Version 1 also stored a label-blind per-node CSR in four more
// sections; ReadSegment refuses version-1 files as kDataLoss.
//
// Torn or corrupt files are detected by the checksums and reported as
// kDataLoss, and so is a checksum-consistent file whose ids or offsets
// are out of range: ReadSegment validates every array once before any
// solver reads it. A segment is only ever published via temp file +
// fsync + atomic rename, so a crash mid-write leaves the previous
// segment (or nothing) in place, never a half-written one.

#ifndef RPQRES_STORAGE_SEGMENT_H_
#define RPQRES_STORAGE_SEGMENT_H_

#include <cstdint>
#include <string>

#include "graphdb/graph_db.h"
#include "graphdb/label_index.h"
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

/// A segment opened by ReadSegment: a mapped GraphDb + LabelIndex view
/// over the file's arrays (both keep the mapping alive), plus the
/// snapshot identity and the mapped size.
struct LoadedSegment {
  GraphDb db;
  LabelIndex label_index;
  SegmentMeta meta;
  int64_t file_bytes = 0;
};

/// Serializes the flat, all-live database `db` and the arrays of
/// LabelIndex(db) to `path` via temp file + fsync + atomic rename. `db` must not be versioned or mapped-overlay state —
/// compact first. On success `*bytes_written` (optional) receives the
/// final file size.
Status WriteSegment(const std::string& path, const GraphDb& db,
                    const SegmentMeta& meta, int64_t* bytes_written = nullptr);

/// Maps the segment at `path` and returns a zero-copy view of it.
/// Validates magic, format version, section table, every section
/// checksum and padding byte, and every id and offset the arrays hold;
/// corruption, truncation or an unsupported version yields kDataLoss.
Result<LoadedSegment> ReadSegment(const std::string& path);

}  // namespace storage
}  // namespace rpqres

#endif  // RPQRES_STORAGE_SEGMENT_H_
