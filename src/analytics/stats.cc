#include "analytics/stats.h"

#include <cmath>
#include <unordered_map>

#include "util/parallel.h"

namespace soda {

namespace {

struct LocalState {
  std::unordered_map<int64_t, size_t> class_index;
  std::vector<int64_t> classes;
  std::vector<std::vector<Moments>> cells;

  std::vector<Moments>& CellsFor(int64_t label, size_t num_attrs) {
    auto [it, inserted] = class_index.emplace(label, classes.size());
    if (inserted) {
      classes.push_back(label);
      cells.emplace_back(num_attrs);
    }
    return cells[it->second];
  }
};

}  // namespace

Result<GroupedMoments> ComputeGroupedMoments(const Table& input,
                                             QueryGuard* guard) {
  if (input.num_columns() < 2) {
    return Status::InvalidArgument(
        "grouped moments require a label column plus at least one attribute");
  }
  const Column& label_col = input.column(0);
  if (label_col.type() != DataType::kBigInt &&
      label_col.type() != DataType::kBool) {
    return Status::TypeError("class label column must be integer");
  }
  const size_t num_attrs = input.num_columns() - 1;
  for (size_t c = 1; c < input.num_columns(); ++c) {
    if (!IsNumeric(input.column(c).type())) {
      return Status::TypeError("attribute columns must be numeric (column " +
                               input.schema().field(c).name + ")");
    }
  }

  // One state per morsel (whose boundaries do not depend on the worker
  // count), merged in morsel order below: the moments are the same at
  // every thread count.
  const size_t n = input.num_rows();
  std::vector<LocalState> locals(NumMorsels(n));
  SODA_RETURN_NOT_OK(ParallelFor(
      guard, n, [&](size_t begin, size_t end, size_t) {
        LocalState& local = locals[MorselIndex(begin)];
        for (size_t i = begin; i < end; ++i) {
          int64_t label = label_col.GetBigInt(i);
          auto& cells = local.CellsFor(label, num_attrs);
          for (size_t a = 0; a < num_attrs; ++a) {
            cells[a].Update(input.column(a + 1).GetNumeric(i));
          }
        }
      }));

  GroupedMoments out;
  out.num_attributes = num_attrs;
  std::unordered_map<int64_t, size_t> index;
  for (const auto& local : locals) {
    for (size_t c = 0; c < local.classes.size(); ++c) {
      int64_t label = local.classes[c];
      auto [it, inserted] = index.emplace(label, out.classes.size());
      if (inserted) {
        out.classes.push_back(label);
        out.cells.emplace_back(num_attrs);
      }
      auto& target = out.cells[it->second];
      for (size_t a = 0; a < num_attrs; ++a) {
        target[a].Merge(local.cells[c][a]);
      }
    }
  }
  return out;
}

Result<TablePtr> SummarizeByClass(const Table& input, QueryGuard* guard) {
  SODA_ASSIGN_OR_RETURN(GroupedMoments gm,
                        ComputeGroupedMoments(input, guard));
  Schema schema({Field("class", DataType::kBigInt),
                 Field("attr", DataType::kBigInt),
                 Field("cnt", DataType::kBigInt),
                 Field("sum", DataType::kDouble),
                 Field("sumsq", DataType::kDouble),
                 Field("mean", DataType::kDouble),
                 Field("stddev", DataType::kDouble)});
  auto out = std::make_shared<Table>("summarize", schema);
  out->Reserve(gm.classes.size() * gm.num_attributes);
  for (size_t c = 0; c < gm.classes.size(); ++c) {
    for (size_t a = 0; a < gm.num_attributes; ++a) {
      const Moments& m = gm.cells[c][a];
      out->column(0).AppendBigInt(gm.classes[c]);
      out->column(1).AppendBigInt(static_cast<int64_t>(a) + 1);
      out->column(2).AppendBigInt(m.count);
      out->column(3).AppendDouble(m.sum);
      out->column(4).AppendDouble(m.sumsq);
      out->column(5).AppendDouble(m.Mean());
      out->column(6).AppendDouble(std::sqrt(m.Variance()));
    }
  }
  return out;
}

}  // namespace soda
