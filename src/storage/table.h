/// \file table.h
/// In-memory base tables and materialized relations.
///
/// A `Table` is a schema plus one full-length `Column` per field. Base
/// tables live in the catalog; intermediate relations (CTE results,
/// ITERATE state, analytics operator inputs) use the same representation so
/// layer-3 and layer-4 code paths share storage machinery — a prerequisite
/// for the paper's layer-vs-layer comparisons to be apples-to-apples.
///
/// Tables have two physical states (DESIGN.md §9):
///  - **flat**: one decoded `Column` per field — the build format every
///    DML staging path and intermediate relation uses. Columns are held by
///    `shared_ptr`, so tables can share them: a column selection of a
///    flat table (`FlatView` with `cols`) shares its buffers instead of
///    copying them. A write goes through the non-const `column(i)`, which
///    first copies a column some other table still holds, so a write never
///    reaches another table's buffer.
///  - **sealed**: rows live only in immutable encoded row groups (one
///    `Segment` per column per group, storage/segment.h), optionally
///    clustered into partitions (storage/partition.h). Scans stream
///    segments straight into DataChunks; a consumer that needs random
///    access decodes the columns it selects into its own flat copy
///    (`FlatView`), charged to its statement's QueryGuard. A sealed table
///    never holds decoded columns itself. Sealing is invisible to SQL
///    semantics; it only changes footprint and scan mechanics.

#ifndef SODA_STORAGE_TABLE_H_
#define SODA_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/data_chunk.h"
#include "storage/partition.h"
#include "storage/segment.h"
#include "types/schema.h"
#include "types/value.h"
#include "util/logging.h"
#include "util/status.h"

namespace soda {

class QueryGuard;
class Table;
using TablePtr = std::shared_ptr<Table>;

/// One row group of a sealed table: one segment per column.
using RowGroup = std::vector<SegmentPtr>;

/// A flat next version (ApplyDelta) below this row count stays flat
/// — encoding tiny tables costs more than it saves. Partitioned tables
/// always seal regardless (pruning needs the clustered layout).
inline constexpr size_t kSealMinRows = 4096;

/// A named, schema-full, columnar relation.
class Table {
 public:
  Table() = default;
  Table(std::string name, Schema schema);

  // Move-only: operators hand whole result tables around, and a copy would
  // silently duplicate the payload.
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const {
    if (sealed_) return group_offsets_.empty() ? 0 : group_offsets_.back();
    return columns_.empty() ? 0 : columns_[0]->size();
  }
  size_t num_columns() const { return columns_.size(); }

  /// Column access; flat tables only. Readers of a possibly-sealed table
  /// go through ScanSlice or FlatView. The non-const overload is the write
  /// path: it first copies the column when another table shares it.
  Column& column(size_t i);
  const Column& column(size_t i) const {
    SODA_DCHECK(!sealed_);
    return *columns_[i];
  }

  void Reserve(size_t n) {
    for (size_t c = 0; c < columns_.size(); ++c) column(c).Reserve(n);
  }

  /// Appends one boxed row (types must be appendable to each column).
  /// Charges the growth to the calling thread's QueryGuard (if a
  /// MemoryScope is active) under the "storage.append" probe site; fails
  /// with kResourceExhausted — before mutating any column — when the
  /// query's memory budget is exceeded. Fails on sealed tables (DML goes
  /// through stage-and-swap, never in-place appends).
  Status AppendRow(const std::vector<Value>& row);

  /// Appends all rows of a chunk (column types must match positionally).
  /// Memory-accounted like AppendRow; fails on sealed tables.
  Status AppendChunk(const DataChunk& chunk);

  /// Copies rows [offset, offset+count) into `out` (columns created to
  /// match the schema if `out` is empty). On a sealed table this decodes
  /// straight from the segments.
  /// With `cols` set, only those physical columns are materialized, in the
  /// given order (`out` gets one column per entry) — on sealed tables the
  /// dropped columns are never decoded at all.
  void ScanSlice(size_t offset, size_t count, DataChunk* out,
                 const std::vector<size_t>* cols = nullptr) const;

  /// Predicate-aware sealed scan: copies the rows of [offset,
  /// offset+count) that satisfy every predicate in `preds`, evaluating on
  /// the encoded payloads (dictionary codes / RLE runs / FOR frames) and
  /// skipping whole segments the stats footers rule out. Returns false —
  /// without touching `out` — when the table is not sealed or a predicate
  /// is not evaluable here; the caller falls back to ScanSlice and the
  /// regular Filter transform. `cols` projects the output like ScanSlice's
  /// (predicates may reference columns outside the projection — they
  /// evaluate on the encoded payloads either way).
  bool ScanSliceFiltered(size_t offset, size_t count,
                         const std::vector<ScanPredicate>& preds,
                         DataChunk* out,
                         const std::vector<size_t>* cols = nullptr) const;

  /// Zone-map check for a sealed table: false when the stats footers of
  /// row group `g` prove that some predicate of `preds` matches no row.
  bool GroupMayMatch(size_t g, const std::vector<ScanPredicate>& preds) const;

  /// Replaces the payload of column `i` wholesale (bulk loading; flat
  /// tables only).
  Status SetColumn(size_t i, Column column);

  std::vector<Value> GetRow(size_t row) const;

  size_t MemoryUsage() const;

  /// Renders up to `max_rows` as an aligned ASCII table (debugging /
  /// examples).
  std::string ToString(size_t max_rows = 20) const;

  // --- Sealed representation ---------------------------------------------

  bool sealed() const { return sealed_; }

  const PartitionSpec& partition_spec() const { return spec_; }
  /// Installs the partition clause (CREATE TABLE time, before any rows).
  void set_partition_spec(PartitionSpec spec) { spec_ = std::move(spec); }

  /// Encodes the flat columns into row groups of kSegmentRows rows,
  /// clustering rows by partition first when a partition spec is set, and
  /// drops the flat payload. No-op when already sealed. Fault site:
  /// "storage.segment_encode".
  Status Seal();

  /// Row ranges: partition p spans [partition_offsets()[p],
  /// partition_offsets()[p+1]). Sealed tables always expose offsets — an
  /// unpartitioned sealed table reports the single range [0, num_rows).
  const std::vector<size_t>& partition_offsets() const {
    return partition_offsets_;
  }

  size_t num_row_groups() const { return groups_.size(); }
  size_t group_offset(size_t g) const { return group_offsets_[g]; }
  size_t group_rows(size_t g) const {
    return group_offsets_[g + 1] - group_offsets_[g];
  }
  const SegmentPtr& group_segment(size_t g, size_t c) const {
    return groups_[g][c];
  }
  const RowGroup& row_group(size_t g) const { return groups_[g]; }

  /// Installs an already-encoded representation wholesale (deserialization
  /// and ApplyDelta). `groups` is outer=group,
  /// inner=column; `partition_offsets` must be group-aligned and span
  /// [0, total rows]. Replaces any existing payload (and clears any
  /// quarantine flags — callers re-mark after adopting).
  Status AdoptSealed(std::vector<RowGroup> groups,
                     std::vector<size_t> partition_offsets);

  // --- Quarantine (self-healing storage, DESIGN.md §10) --------------------
  //
  // A row group whose segment failed its CRC check is *quarantined*: its
  // payload was replaced by a decode-safe all-NULL placeholder and reads
  // that touch it must fail with kDataLoss instead of silently returning
  // the placeholder. Scans of unaffected row groups / partitions proceed
  // — degraded reads. A fully-quarantined table (its whole checkpoint
  // block was corrupt) rejects every read.

  /// Marks row group `g` of a sealed table as quarantined.
  void MarkGroupQuarantined(size_t g);

  /// Marks the entire table as quarantined (corrupt checkpoint block —
  /// only name + schema survived).
  void MarkTableQuarantined() { table_quarantined_ = true; }

  /// True when any row group (or the whole table) is quarantined.
  bool quarantined() const;

  /// True only for whole-table quarantine (corrupt checkpoint block);
  /// false when merely some row groups are quarantined. Whole-table
  /// quarantine does not survive a checkpoint rewrite (the stub has no
  /// rows), so heal paths must check this before rewriting.
  bool table_level_quarantined() const { return table_quarantined_; }

  bool group_quarantined(size_t g) const {
    return table_quarantined_ ||
           (g < group_quarantined_.size() && group_quarantined_[g] != 0);
  }

  /// Gate for readers: kDataLoss naming the table and first quarantined
  /// row group when [offset, offset+count) touches quarantined data; OK
  /// otherwise. Exec scans call this per morsel (after partition pruning,
  /// so pruned queries keep working on the healthy partitions).
  Status CheckReadable(size_t offset, size_t count) const;

  // --- Versioning (plan cache / hash-table recycler, DESIGN.md §11) --------
  //
  // Every table published through the catalog carries a version drawn from
  // the catalog's global monotonic counter. DML/DDL goes through the
  // stage-and-swap ReplaceTable path, so any change to a base table's
  // contents installs a fresh Table object with a fresh version — cached
  // plans and recycled hash tables embed (name, version, schema) in their
  // fingerprints and go stale automatically.

  /// Version stamped by the catalog at publication; 0 = never published
  /// (intermediate relation).
  uint64_t version() const { return version_; }

  /// Catalog-only: stamps the publication version. Legal only before the
  /// table becomes shared (tables are immutable once registered).
  void set_version(uint64_t v) { version_ = v; }

 private:
  std::string name_;
  Schema schema_;
  PartitionSpec spec_;

  /// Flat payload, possibly shared with other tables (see column(i)); on a
  /// sealed table every column is empty.
  std::vector<std::shared_ptr<Column>> columns_;

  bool sealed_ = false;
  std::vector<RowGroup> groups_;                 // [group][column]
  std::vector<size_t> group_offsets_;            // groups_.size() + 1
  std::vector<size_t> partition_offsets_;        // group-aligned

  /// Per-group quarantine flags (empty = none quarantined); see
  /// MarkGroupQuarantined. table_quarantined_ overrides per-group state.
  std::vector<uint8_t> group_quarantined_;
  bool table_quarantined_ = false;

  uint64_t version_ = 0;  ///< catalog publication version (see version())

  friend Result<TablePtr> FlatView(TablePtr, QueryGuard*,
                                   const std::vector<size_t>*, const Schema*);
};

/// The whole of `table` for a random-access consumer (hash-join builds,
/// sorts, analytics inputs), or with `cols` set only those columns, in
/// that order, named by `schema` (the selected fields when null). Flat:
/// `table` itself, or a table sharing the selected columns; nothing is
/// copied or charged. Sealed: the selected columns decoded into a
/// per-statement flat table, charged to `guard` under
/// "storage.segment_decode" before decoding anything. kDataLoss on
/// quarantined data.
Result<TablePtr> FlatView(TablePtr table, QueryGuard* guard,
                          const std::vector<size_t>* cols = nullptr,
                          const Schema* schema = nullptr);

// --- Table versions (DESIGN.md §9) -----------------------------------------
//
// Published tables are immutable. Every write (CREATE TABLE, CTAS, INSERT,
// UPDATE, DELETE) is one TableDelta: ApplyDelta builds the next version
// from it, the WAL logs it as one record, and replay applies that record
// with the same ApplyDelta, so a recovered table has exactly the row groups
// the live engine built.

/// One write to one table. A delta counts a flat table as one group, 0;
/// replacing that group drops all its rows, so a flat table's edited rows
/// travel in `appended`.
struct TableDelta {
  std::string table;   ///< lower-cased name
  Schema schema;       ///< the table's schema
  bool create = false; ///< the write creates the table (with `spec`)
  PartitionSpec spec;  ///< create only
  size_t prev_rows = 0;    ///< row count of the version the write edits
  size_t prev_groups = 0;  ///< ... and its group count
  /// Replaced groups of that version, ascending, each with its encoded
  /// replacement groups; an empty replacement drops the group.
  std::vector<std::pair<size_t, std::vector<RowGroup>>> replaced;
  /// Flat rows appended at the end of their partition (empty = none).
  std::vector<Column> appended;
};

/// A delta against `prev` that replaces and appends nothing yet.
TableDelta DeltaFor(const Table& prev);

/// Appends rows [begin, end) of `columns` to `groups` as row groups of at
/// most kSegmentRows rows. Fault site: "storage.segment_encode".
Status EncodeGroups(const std::vector<Column>& columns, size_t begin,
                    size_t end, std::vector<RowGroup>* groups);

/// Builds the next version of `prev` (null when the delta creates the
/// table; partitioned tables are sealed from birth). Kept groups are
/// shared with `prev` by pointer, replacement groups are adopted as they
/// are, and appended rows are bucketed by partition and encoded. A flat
/// `prev` yields a flat copy, charged to the thread's QueryGuard under
/// "storage.append" and sealed when the table is partitioned or holds at
/// least kSealMinRows rows. kDataLoss when the delta's prev counts or group
/// indices do not match `prev`.
Result<TablePtr> ApplyDelta(const Table* prev, const TableDelta& delta);

}  // namespace soda

#endif  // SODA_STORAGE_TABLE_H_
