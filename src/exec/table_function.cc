#include "exec/table_function.h"

#include "analytics/connected_components.h"
#include "analytics/kmeans.h"
#include "analytics/naive_bayes.h"
#include "analytics/pagerank.h"
#include "analytics/stats.h"
#include "exec/exec_context.h"
#include "expr/lambda_kernel.h"
#include "sql/logical_plan.h"
#include "util/fault_sites.h"

namespace soda {

namespace {

Status RequireAllNumeric(const Schema& schema, const std::string& what) {
  for (const auto& f : schema.fields()) {
    if (!IsNumeric(f.type)) {
      return Status::TypeError(what + " requires numeric columns; '" +
                               f.name + "' is " + DataTypeToString(f.type));
    }
  }
  return Status::OK();
}

/// Graph operators take an edge relation starting with (src, dst).
Status RequireEdges(const Schema& edges, const std::string& name) {
  if (edges.num_fields() < 2 || edges.field(0).type != DataType::kBigInt ||
      edges.field(1).type != DataType::kBigInt) {
    return Status::BindError(
        name + ": edge input must start with BIGINT (src, dst) columns");
  }
  return Status::OK();
}

/// Naive Bayes training and its statistics building block take a labeled
/// relation: a BIGINT class label followed by numeric attributes.
Status RequireLabeled(const Schema& labeled, const std::string& name) {
  if (labeled.num_fields() < 2 ||
      labeled.field(0).type != DataType::kBigInt) {
    return Status::BindError(
        name + ": input must be (label BIGINT, attributes NUMERIC...)");
  }
  for (size_t i = 1; i < labeled.num_fields(); ++i) {
    if (!IsNumeric(labeled.field(i).type)) {
      return Status::BindError(name + ": attribute columns must be numeric");
    }
  }
  return Status::OK();
}

Schema FaultSitesSchema() {
  return Schema({Field("site", DataType::kVarchar),
                 Field("description", DataType::kVarchar)});
}

Schema StatusSchema() {
  return Schema({Field("metric", DataType::kVarchar),
                 Field("value", DataType::kBigInt)});
}

const std::vector<TableFunction>& Registry() {
  static const std::vector<TableFunction> registry = {
      // KMEANS((data), (initial_centers) [, λ(a, b) distance]
      //        [, max_iterations [, min_change_fraction]])
      // The distance lambda is binary over (data, centers);
      // min_change_fraction is §6.1's softened convergence criterion.
      {"kmeans",
       {2, {{0, 1}}, 0, {DataType::kBigInt, DataType::kDouble}},
       [](const std::vector<Schema>& in) -> Result<Schema> {
         SODA_RETURN_NOT_OK(RequireAllNumeric(in[0], "kmeans"));
         SODA_RETURN_NOT_OK(RequireAllNumeric(in[1], "kmeans"));
         if (in[0].num_fields() != in[1].num_fields()) {
           return Status::BindError(
               "kmeans: data and centers must have matching column counts");
         }
         Schema out;
         out.AddField(Field("cluster", DataType::kBigInt));
         for (const auto& f : in[1].fields()) {
           out.AddField(Field(f.name, DataType::kDouble));
         }
         return out;
       },
       [](const TableFunctionCall& c) -> Result<TablePtr> {
         KMeansOptions options;
         if (!c.scalars.empty()) {
           options.max_iterations = c.scalars[0].AsBigInt();
         }
         if (c.scalars.size() > 1) {
           options.min_change_fraction = c.scalars[1].AsDouble();
         }
         if (!c.lambdas.empty()) options.distance = &c.lambdas[0];
         options.guard = c.ctx.guard;
         SODA_ASSIGN_OR_RETURN(KMeansResult result,
                               RunKMeans(*c.inputs[0], *c.inputs[1], options));
         c.ctx.stats.iterations_run +=
             static_cast<size_t>(result.iterations_run);
         return result.centers;
       }},
      // PAGERANK((edges) [, damping [, epsilon [, max_iterations]]]
      //          [, λ(e) weight])
      // The edge-weight lambda is unary over (edges).
      {"pagerank",
       {1,
        {{0}},
        0,
        {DataType::kDouble, DataType::kDouble, DataType::kBigInt}},
       [](const std::vector<Schema>& in) -> Result<Schema> {
         SODA_RETURN_NOT_OK(RequireEdges(in[0], "pagerank"));
         return Schema({Field("vertex", DataType::kBigInt),
                        Field("rank", DataType::kDouble)});
       },
       [](const TableFunctionCall& c) -> Result<TablePtr> {
         PageRankOptions options;
         if (!c.scalars.empty()) options.damping = c.scalars[0].AsDouble();
         if (c.scalars.size() > 1) options.epsilon = c.scalars[1].AsDouble();
         if (c.scalars.size() > 2) {
           options.max_iterations = c.scalars[2].AsBigInt();
         }
         if (!c.lambdas.empty()) options.edge_weight = &c.lambdas[0];
         options.guard = c.ctx.guard;
         PageRankStats stats;
         SODA_ASSIGN_OR_RETURN(TablePtr result,
                               RunPageRank(*c.inputs[0], options, &stats));
         c.ctx.stats.iterations_run +=
             static_cast<size_t>(stats.iterations_run);
         return result;
       }},
      // NAIVE_BAYES_TRAIN((labeled))  -- first column = class label
      {"naive_bayes_train",
       {1, {}, 0, {}},
       [](const std::vector<Schema>& in) -> Result<Schema> {
         SODA_RETURN_NOT_OK(RequireLabeled(in[0], "naive_bayes_train"));
         return NaiveBayesModelSchema();
       },
       [](const TableFunctionCall& c) -> Result<TablePtr> {
         return TrainNaiveBayes(*c.inputs[0], c.ctx.guard);
       }},
      // NAIVE_BAYES_PREDICT((model), (data))
      {"naive_bayes_predict",
       {2, {}, 0, {}},
       [](const std::vector<Schema>& in) -> Result<Schema> {
         if (!in[0].TypesEqual(NaiveBayesModelSchema())) {
           return Status::BindError(
               "naive_bayes_predict: first input must be a model relation " +
               NaiveBayesModelSchema().ToString());
         }
         SODA_RETURN_NOT_OK(RequireAllNumeric(in[1], "naive_bayes_predict"));
         Schema out = in[1];
         out.AddField(Field("predicted", DataType::kBigInt));
         return out;
       },
       [](const TableFunctionCall& c) -> Result<TablePtr> {
         return PredictNaiveBayes(*c.inputs[0], *c.inputs[1], c.ctx.guard);
       }},
      // SUMMARIZE((labeled))  -- per-class moments, the statistics
      //                          building block (§6.2)
      {"summarize",
       {1, {}, 0, {}},
       [](const std::vector<Schema>& in) -> Result<Schema> {
         SODA_RETURN_NOT_OK(RequireLabeled(in[0], "summarize"));
         return Schema({Field("class", DataType::kBigInt),
                        Field("attr", DataType::kBigInt),
                        Field("cnt", DataType::kBigInt),
                        Field("sum", DataType::kDouble),
                        Field("sumsq", DataType::kDouble),
                        Field("mean", DataType::kDouble),
                        Field("stddev", DataType::kDouble)});
       },
       [](const TableFunctionCall& c) -> Result<TablePtr> {
         return SummarizeByClass(*c.inputs[0], c.ctx.guard);
       }},
      // CONNECTED_COMPONENTS((edges))  -- min-label propagation on the
      //                                  PageRank CSR building block
      {"connected_components",
       {1, {}, 0, {}},
       [](const std::vector<Schema>& in) -> Result<Schema> {
         SODA_RETURN_NOT_OK(RequireEdges(in[0], "connected_components"));
         return Schema({Field("vertex", DataType::kBigInt),
                        Field("component", DataType::kBigInt)});
       },
       [](const TableFunctionCall& c) -> Result<TablePtr> {
         ConnectedComponentsStats stats;
         SODA_ASSIGN_OR_RETURN(
             TablePtr result,
             RunConnectedComponents(*c.inputs[0], &stats, c.ctx.guard));
         c.ctx.stats.iterations_run +=
             static_cast<size_t>(stats.iterations_run);
         return result;
       }},
      // SODA_FAULT_SITES()  -- one row per registered fault-injection
      // site, straight from the compile-time registry
      // (util/fault_sites.h). Keeps SQL-level introspection and the
      // robustness-matrix coverage test honest.
      {"soda_fault_sites",
       {},
       [](const std::vector<Schema>&) -> Result<Schema> {
         return FaultSitesSchema();
       },
       [](const TableFunctionCall&) -> Result<TablePtr> {
         auto table =
             std::make_shared<Table>("soda_fault_sites", FaultSitesSchema());
         for (const FaultSiteInfo& info : kFaultSites) {
           SODA_RETURN_NOT_OK(table->AppendRow(
               {Value::Varchar(info.site), Value::Varchar(info.description)}));
         }
         return table;
       }},
      // SODA_STATUS()  -- engine health counters (WAL size,
      // checkpoint/scrub progress, quarantine extent, cache counters) as
      // metric/value rows, supplied by the engine's status provider.
      {"soda_status",
       {},
       [](const std::vector<Schema>&) -> Result<Schema> {
         return StatusSchema();
       },
       [](const TableFunctionCall& c) -> Result<TablePtr> {
         if (!c.ctx.status_provider) {
           return Status::InvalidArgument(
               "soda_status() requires an engine execution context");
         }
         auto table = std::make_shared<Table>("soda_status", StatusSchema());
         for (const auto& [metric, value] : c.ctx.status_provider()) {
           SODA_RETURN_NOT_OK(table->AppendRow(
               {Value::Varchar(metric), Value::BigInt(value)}));
         }
         return table;
       }},
  };
  return registry;
}

}  // namespace

const TableFunction* FindTableFunction(std::string_view lower_name) {
  for (const TableFunction& fn : Registry()) {
    if (lower_name == fn.name) return &fn;
  }
  return nullptr;
}

Result<TablePtr> ExecuteTableFunctionWithInputs(
    const PlanNode& plan, const std::vector<TablePtr>& inputs,
    ExecContext& ctx) {
  // Relation inputs arrive pre-materialized by the physical plan's input
  // pipelines (paper Fig. 2a: arbitrarily pre-processed input).
  const TableFunction* fn = FindTableFunction(plan.function_name);
  if (fn == nullptr) {
    return Status::Internal("unknown table function at execution: " +
                            plan.function_name);
  }
  // Compile lambdas into kernels (plan-time bound bodies -> flat numeric
  // programs; see expr/lambda_kernel.h).
  std::vector<LambdaKernel> kernels;
  kernels.reserve(plan.lambdas.size());
  for (const auto& l : plan.lambdas) {
    SODA_ASSIGN_OR_RETURN(LambdaKernel k,
                          LambdaKernel::Compile(*l.body, l.a_width));
    kernels.push_back(std::move(k));
  }
  return fn->run(TableFunctionCall{inputs, plan.scalar_args, kernels, ctx});
}

}  // namespace soda
