#include "exec/hash_kernels.h"

#include <bit>
#include <cmath>
#include <functional>

namespace soda {

namespace {

/// Integral doubles hash like the corresponding int64; -0.0 like 0.0, and
/// every NaN alike (CompareDoubles makes NaN equal NaN). Keeps mixed-type
/// keys consistent after binder-inserted casts.
uint64_t HashDoubleCanonical(double d) {
  if (d == 0.0) return MixHash(0);
  if (std::isnan(d)) return MixHash(0x7FF8000000000000ULL);  // quiet NaN
  double r = std::nearbyint(d);
  if (r == d && std::fabs(d) < 9.2e18) {
    return MixHash(static_cast<uint64_t>(static_cast<int64_t>(d)));
  }
  return MixHash(std::bit_cast<uint64_t>(d));
}

/// Shared skeleton: `cell(i)` produces the cell hash for row i, `fold`
/// merges it into the output slot. The validity test is hoisted so dense
/// columns run a branch-free inner loop.
template <typename CellFn, typename FoldFn>
void ForEachCellHash(const Column& col, size_t begin, size_t end,
                     uint64_t* out, CellFn cell, FoldFn fold) {
  const std::vector<uint8_t>& validity = col.Validity();
  if (validity.empty()) {
    for (size_t i = begin; i < end; ++i) fold(out[i - begin], cell(i));
    return;
  }
  const uint8_t* valid = validity.data();
  for (size_t i = begin; i < end; ++i) {
    fold(out[i - begin], valid[i] ? cell(i) : kNullHash);
  }
}

template <typename FoldFn>
void HashColumnImpl(const Column& col, size_t begin, size_t end,
                    uint64_t* out, FoldFn fold) {
  switch (col.type()) {
    case DataType::kBool:
    case DataType::kBigInt: {
      const int64_t* data = col.I64Data();
      ForEachCellHash(
          col, begin, end, out,
          [data](size_t i) { return MixHash(static_cast<uint64_t>(data[i])); },
          fold);
      return;
    }
    case DataType::kDouble: {
      const double* data = col.F64Data();
      ForEachCellHash(
          col, begin, end, out,
          [data](size_t i) { return HashDoubleCanonical(data[i]); }, fold);
      return;
    }
    case DataType::kVarchar: {
      const std::vector<std::string>& strs = col.Strings();
      ForEachCellHash(
          col, begin, end, out,
          [&strs](size_t i) { return std::hash<std::string>{}(strs[i]); },
          fold);
      return;
    }
    default: {
      ForEachCellHash(
          col, begin, end, out, [](size_t) { return uint64_t{0}; }, fold);
      return;
    }
  }
}

/// The one definition of SQL cell equality for non-NULL cells: calls
/// `fn(eq)` with a typed `eq(i, j)` saying whether row i of `a` equals row
/// j of `b`. BIGINT/BOOL compare exactly, DOUBLE by CompareDoubles (NaN
/// equals NaN, -0.0 equals 0.0), mixed numeric as DOUBLE, VARCHAR bytewise,
/// and VARCHAR never equals a number.
template <typename Fn>
void WithCellEquality(const Column& a, const Column& b, Fn fn) {
  const DataType at = a.type();
  const DataType bt = b.type();
  if (at == DataType::kVarchar || bt == DataType::kVarchar) {
    if (at != bt) {
      fn([](uint32_t, uint32_t) { return false; });
      return;
    }
    const std::string* x = a.Strings().data();
    const std::string* y = b.Strings().data();
    fn([x, y](uint32_t i, uint32_t j) { return x[i] == y[j]; });
  } else if (at == DataType::kDouble && bt == DataType::kDouble) {
    const double* x = a.F64Data();
    const double* y = b.F64Data();
    fn([x, y](uint32_t i, uint32_t j) {
      return CompareDoubles(x[i], y[j]) == 0;
    });
  } else if (at == DataType::kDouble || bt == DataType::kDouble) {
    fn([&a, &b](uint32_t i, uint32_t j) {
      return CompareDoubles(a.GetNumeric(i), b.GetNumeric(j)) == 0;
    });
  } else {
    const int64_t* x = a.I64Data();
    const int64_t* y = b.I64Data();
    fn([x, y](uint32_t i, uint32_t j) { return x[i] == y[j]; });
  }
}

/// Keeps the pairs (a_rows[k], b_rows[k]) for which both cells are
/// non-NULL and `eq(a_rows[k], b_rows[k])`, compacting in place.
template <typename Eq>
void KeepPairs(const Column& a, const Column& b, std::vector<uint32_t>* a_rows,
               std::vector<uint32_t>* b_rows, Eq eq) {
  uint32_t* x = a_rows->data();
  uint32_t* y = b_rows->data();
  const size_t m = a_rows->size();
  const uint8_t* va = a.Validity().empty() ? nullptr : a.Validity().data();
  const uint8_t* vb = b.Validity().empty() ? nullptr : b.Validity().data();
  size_t kept = 0;
  for (size_t k = 0; k < m; ++k) {
    const bool keep = (va == nullptr || va[x[k]]) &&
                      (vb == nullptr || vb[y[k]]) && eq(x[k], y[k]);
    x[kept] = x[k];
    y[kept] = y[k];
    kept += keep;
  }
  a_rows->resize(kept);
  b_rows->resize(kept);
}

}  // namespace

void HashColumn(const Column& col, size_t begin, size_t end, uint64_t* out) {
  HashColumnImpl(col, begin, end, out,
                 [](uint64_t& slot, uint64_t cell) { slot = cell; });
}

void HashColumnCombine(const Column& col, size_t begin, size_t end,
                       uint64_t* inout) {
  HashColumnImpl(col, begin, end, inout, [](uint64_t& slot, uint64_t cell) {
    slot = CombineHash(slot, cell);
  });
}

void HashRows(const std::vector<const Column*>& cols, size_t begin,
              size_t end, uint64_t* out) {
  if (cols.empty()) {
    for (size_t i = 0; i < end - begin; ++i) out[i] = kHashSeed;
    return;
  }
  HashColumn(*cols[0], begin, end, out);
  for (size_t c = 1; c < cols.size(); ++c) {
    HashColumnCombine(*cols[c], begin, end, out);
  }
}

uint64_t HashRow(const std::vector<const Column*>& cols, size_t row) {
  uint64_t h = kHashSeed;
  HashRows(cols, row, row + 1, &h);
  return h;
}

bool CellsEqual(const Column& a, size_t ra, const Column& b, size_t rb) {
  if (a.IsNull(ra) || b.IsNull(rb)) return false;
  bool equal = false;
  WithCellEquality(a, b, [&](auto eq) {
    equal = eq(static_cast<uint32_t>(ra), static_cast<uint32_t>(rb));
  });
  return equal;
}

void KeepEqualCells(const Column& a, const Column& b,
                    std::vector<uint32_t>* a_rows,
                    std::vector<uint32_t>* b_rows) {
  WithCellEquality(a, b, [&](auto eq) {
    KeepPairs(a, b, a_rows, b_rows, eq);
  });
}

}  // namespace soda
