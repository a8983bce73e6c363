/// \file hash_kernels.h
/// Columnar hash kernels shared by the pipeline breakers (join build,
/// join probe, hash aggregation).
///
/// The paper's performance argument (§6.1) hinges on operator inner loops
/// running at memory bandwidth. Hashing a key column one cell at a time
/// through type dispatch (the old `HashCell` per-row path) costs a switch
/// and a validity branch per cell; these kernels hoist the dispatch out of
/// the loop and hash whole column ranges with typed inner loops, writing
/// 64-bit hashes into a caller-provided array. Multi-column keys are
/// combined with a mix-after-combine scheme (`h' = Mix(rotl(h, 1) ^ cell)`):
/// unlike the old linear `h*31 + cell` combiner, constructed collisions in
/// one column cannot cancel against another column's contribution (the
/// combiner is re-randomized through the full-avalanche finalizer at every
/// step).

#ifndef SODA_EXEC_HASH_KERNELS_H_
#define SODA_EXEC_HASH_KERNELS_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "storage/column.h"
#include "util/mix_hash.h"

namespace soda {

/// Seed for the row-hash fold (FNV offset basis, kept from the old
/// combiner so single-column hashes stay recognizable in debuggers).
inline constexpr uint64_t kHashSeed = 0xCBF29CE484222325ULL;

/// Hash of a NULL cell; any fixed tag works (NULLs never compare equal in
/// joins, and group-equality re-checks the cells).
inline constexpr uint64_t kNullHash = 0x9E3779B97F4A7C15ULL;

/// Folds one cell hash into a running row hash. Mix-after-combine: the
/// result avalanches before the next column is folded in, so per-column
/// collisions do not survive the combine (regression-tested against the
/// old `h*31 + cell` scheme's constructible collisions). The rotation makes
/// the fold depend on column position, so `(a, b)` and `(b, a)` differ.
inline uint64_t CombineHash(uint64_t h, uint64_t cell) {
  return MixHash(std::rotl(h, 1) ^ cell);
}

/// Writes the cell hashes of rows [begin, end) of `col` to
/// `out[0 .. end-begin)`. Typed inner loops; NULL cells hash to kNullHash.
void HashColumn(const Column& col, size_t begin, size_t end, uint64_t* out);

/// Folds the cell hashes of rows [begin, end) of `col` into
/// `inout[0 .. end-begin)` via CombineHash.
void HashColumnCombine(const Column& col, size_t begin, size_t end,
                       uint64_t* inout);

/// Combined key hash for rows [begin, end) over `cols` (first column
/// initializes, the rest fold in). Zero columns (global aggregates) write
/// kHashSeed everywhere.
void HashRows(const std::vector<const Column*>& cols, size_t begin,
              size_t end, uint64_t* out);

/// Scalar row hash, consistent with HashRows (used by merge paths that
/// touch one row at a time).
uint64_t HashRow(const std::vector<const Column*>& cols, size_t row);

/// True when row `ra` of `a` and row `rb` of `b` are SQL-equal: BIGINT/BOOL
/// exactly, DOUBLE by CompareDoubles (NaN equals NaN, -0.0 equals 0.0),
/// mixed numeric as DOUBLE, VARCHAR bytewise, VARCHAR against a number
/// never. NULL never equals anything. Grouping builds on it; the join probe
/// uses the batch form below, which shares its definition.
bool CellsEqual(const Column& a, size_t ra, const Column& b, size_t rb);

/// Keeps the row pairs (a_rows[k], b_rows[k]) whose cells in `a` and `b`
/// are equal by CellsEqual's rule, compacting both selections in place
/// with one typed pass. The join probe's key verification, one call per
/// key column.
void KeepEqualCells(const Column& a, const Column& b,
                    std::vector<uint32_t>* a_rows,
                    std::vector<uint32_t>* b_rows);

}  // namespace soda

#endif  // SODA_EXEC_HASH_KERNELS_H_
