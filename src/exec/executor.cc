#include "exec/executor.h"

#include <algorithm>

#include "exec/physical_plan.h"
#include "exec/plan_verifier.h"
#include "util/parallel.h"
#include "util/query_guard.h"

namespace soda {

MaterializeSink::MaterializeSink(Schema schema, size_t offset, size_t limit)
    : schema_(std::move(schema)), offset_(offset), limit_(limit) {
  partials_.resize(NumWorkers());
}

Status MaterializeSink::Consume(DataChunk& chunk, const SinkContext& sctx) {
  Partial& partial = partials_[sctx.worker_id];
  // The chunks one source chunk yields arrive back to back on one worker.
  const bool extends = !partial.runs.empty() &&
                       partial.runs.back().branch == sctx.branch &&
                       partial.runs.back().sequence == sctx.sequence;
  if (!extends && (partial.pieces.empty() ||
                   (partials_.size() > 1 &&
                    partial.pieces.back()->num_rows() >= kSegmentRows))) {
    partial.pieces.push_back(std::make_unique<Table>("partial", schema_));
  }
  Table& piece = *partial.pieces.back();
  const size_t begin = piece.num_rows();
  SODA_RETURN_NOT_OK(piece.AppendChunk(chunk));
  if (extends) {
    partial.runs.back().rows += chunk.num_rows();
  } else {
    partial.runs.push_back({sctx.branch, sctx.sequence,
                            partial.pieces.size() - 1, begin,
                            chunk.num_rows()});
  }
  return Status::OK();
}

Status MaterializeSink::Finalize() {
  struct Ref {
    const Run* run;
    size_t worker;
  };
  std::vector<Ref> refs;
  Partial* only = nullptr;
  size_t populated = 0;
  size_t rows = 0;
  for (size_t w = 0; w < partials_.size(); ++w) {
    if (partials_[w].pieces.empty()) continue;
    ++populated;
    only = &partials_[w];
    for (const Run& r : partials_[w].runs) {
      refs.push_back({&r, w});
      rows += r.rows;
    }
  }
  // The window [first, last) of the concatenation.
  const size_t first = std::min(offset_, rows);
  const size_t last = first + std::min(limit_, rows - first);
  auto before = [](const Ref& a, const Ref& b) {
    return a.run->branch != b.run->branch ? a.run->branch < b.run->branch
                                          : a.run->sequence < b.run->sequence;
  };
  if (populated == 1 && only->pieces.size() == 1 && first == 0 &&
      last == rows && std::is_sorted(refs.begin(), refs.end(), before)) {
    result_ = std::move(only->pieces[0]);
    partials_.clear();
    return Status::OK();
  }
  std::sort(refs.begin(), refs.end(), before);
  // A worker consumes source chunks in (branch, sequence) order, so while
  // the copy runs at most one piece per partial is partly copied: that
  // overlap is what the copy adds on top of the charged partials.
  size_t overlap = 0;
  std::vector<std::vector<size_t>> rows_left(partials_.size());
  for (size_t w = 0; w < partials_.size(); ++w) {
    size_t largest = 0;
    for (const auto& piece : partials_[w].pieces) {
      largest = std::max(largest, piece->MemoryUsage());
      rows_left[w].push_back(piece->num_rows());
    }
    overlap += largest;
  }
  SODA_RETURN_NOT_OK(
      GuardReserve(QueryGuard::Current(), overlap, "storage.append"));
  auto out = std::make_shared<Table>("result", schema_);
  out->Reserve(last - first);
  size_t at = 0;  // concatenation position of the run's first row
  for (const Ref& ref : refs) {
    const Run& run = *ref.run;
    auto& piece = partials_[ref.worker].pieces[run.piece];
    const size_t lo = std::clamp(at, first, last);
    const size_t hi = std::clamp(at + run.rows, first, last);
    if (lo < hi) {
      for (size_t c = 0; c < out->num_columns(); ++c) {
        out->column(c).AppendSlice(piece->column(c), run.begin + (lo - at),
                                   hi - lo);
      }
    }
    at += run.rows;
    size_t& left = rows_left[ref.worker][run.piece];
    left -= run.rows;
    if (left == 0) piece.reset();
  }
  partials_.clear();
  result_ = std::move(out);
  return Status::OK();
}

Result<TablePtr> ExecutePlan(const PlanNode& plan, ExecContext& ctx) {
  SODA_ASSIGN_OR_RETURN(PhysicalPlan physical, LowerPlan(plan));
  if (ctx.verify_plans || kPlanVerifierAlwaysOn) {
    SODA_RETURN_NOT_OK(ctx.Probe(kVerifyPlanSite));
    SODA_RETURN_NOT_OK(VerifyPlan(plan, physical));
  }
  SODA_RETURN_NOT_OK(physical.Execute(ctx));
  return physical.result();
}

}  // namespace soda
