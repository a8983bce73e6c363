#include "exec/executor.h"

#include <algorithm>

#include "exec/physical_plan.h"
#include "exec/plan_verifier.h"
#include "util/parallel.h"

namespace soda {

MaterializeSink::MaterializeSink(Schema schema) : schema_(std::move(schema)) {
  partials_.resize(NumWorkers());
}

Status MaterializeSink::Consume(DataChunk& chunk, const SinkContext& sctx) {
  Partial& partial = partials_[sctx.worker_id];
  if (!partial.table) {
    partial.table = std::make_unique<Table>("partial", schema_);
  }
  const size_t begin = partial.table->num_rows();
  SODA_RETURN_NOT_OK(partial.table->AppendChunk(chunk));
  // The chunks one source chunk yields arrive back to back on one worker.
  if (!partial.runs.empty() && partial.runs.back().branch == sctx.branch &&
      partial.runs.back().sequence == sctx.sequence) {
    partial.runs.back().rows += chunk.num_rows();
  } else {
    partial.runs.push_back(
        {sctx.branch, sctx.sequence, begin, chunk.num_rows()});
  }
  return Status::OK();
}

Status MaterializeSink::Finalize() {
  struct Ref {
    const Run* run;
    const Table* table;
  };
  std::vector<Ref> refs;
  Partial* only = nullptr;
  size_t populated = 0;
  for (Partial& partial : partials_) {
    if (!partial.table) continue;
    ++populated;
    only = &partial;
    for (const Run& r : partial.runs) refs.push_back({&r, partial.table.get()});
  }
  auto before = [](const Ref& a, const Ref& b) {
    return a.run->branch != b.run->branch ? a.run->branch < b.run->branch
                                          : a.run->sequence < b.run->sequence;
  };
  if (populated == 1 && std::is_sorted(refs.begin(), refs.end(), before)) {
    result_ = std::move(only->table);
    partials_.clear();
    return Status::OK();
  }
  std::sort(refs.begin(), refs.end(), before);
  auto out = std::make_shared<Table>("result", schema_);
  size_t rows = 0;
  for (const Ref& ref : refs) rows += ref.run->rows;
  out->Reserve(rows);
  for (const Ref& ref : refs) {
    for (size_t c = 0; c < out->num_columns(); ++c) {
      out->column(c).AppendSlice(ref.table->column(c), ref.run->begin,
                                 ref.run->rows);
    }
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
