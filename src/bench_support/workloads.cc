#include "bench_support/workloads.h"

#include <cmath>

#include "util/rng.h"

namespace soda::workloads {

namespace {

Schema VectorSchema(size_t d, bool with_id, const char* first_col) {
  Schema schema;
  if (with_id) schema.AddField(Field(first_col, DataType::kBigInt));
  for (size_t j = 0; j < d; ++j) {
    schema.AddField(Field("x" + std::to_string(j + 1), DataType::kDouble));
  }
  return schema;
}

/// Squared-L2 distance text between `a.x1..xd` and `b.x1..xd`.
std::string DistanceExpr(const std::string& a, const std::string& b,
                         size_t d) {
  std::string out;
  for (size_t j = 1; j <= d; ++j) {
    if (j > 1) out += " + ";
    out += "(" + a + ".x" + std::to_string(j) + " - " + b + ".x" +
           std::to_string(j) + ")^2";
  }
  return out;
}

std::string AvgList(const std::string& alias, size_t d,
                    const std::string& out_prefix) {
  std::string out;
  for (size_t j = 1; j <= d; ++j) {
    if (j > 1) out += ", ";
    out += "avg(" + alias + ".x" + std::to_string(j) + ") " + out_prefix +
           std::to_string(j);
  }
  return out;
}

/// Subquery text computing centers from the current assignment relation
/// `state` (id->cid) joined with `data`.
std::string CentersFromAssignments(const std::string& state,
                                   const std::string& data, size_t d,
                                   const std::string& a_alias,
                                   const std::string& d_alias) {
  return "(SELECT " + a_alias + ".cid cid, " + AvgList(d_alias, d, "x") +
         " FROM " + state + " " + a_alias + " JOIN " + data + " " + d_alias +
         " ON " + d_alias + ".id = " + a_alias + ".id GROUP BY " + a_alias +
         ".cid)";
}

/// The reassignment step: computes, for every data tuple, the id of the
/// nearest center drawn from `centers_sql` (a relation (cid, x1..xd)).
/// Produces (i+1, id, cid) relative to iteration relation `state`.
std::string ReassignSql(const std::string& data,
                        const std::string& centers_sql_a,
                        const std::string& centers_sql_b, size_t d,
                        const std::string& state) {
  // min-distance per tuple, then match (the standard argmin-in-SQL idiom).
  return "SELECT a.i + 1 i, dd.id id, min(nc.cid) cid"
         " FROM " + data + " dd, " + centers_sql_a + " nc, "
         "(SELECT d2.id did, min(" + DistanceExpr("d2", "nc2", d) + ") mind"
         " FROM " + data + " d2, " + centers_sql_b + " nc2 GROUP BY d2.id) m, "
         + state + " a"
         " WHERE a.id = dd.id AND m.did = dd.id AND (" +
         DistanceExpr("dd", "nc", d) + ") = m.mind"
         " GROUP BY a.i, dd.id";
}

}  // namespace

Result<TablePtr> GenerateVectorTable(Catalog* catalog,
                                     const std::string& name, size_t n,
                                     size_t d, uint64_t seed) {
  SODA_ASSIGN_OR_RETURN(TablePtr table,
                        catalog->CreateTable(name, VectorSchema(d, true, "id")));
  std::vector<int64_t> ids(n);
  for (size_t i = 0; i < n; ++i) ids[i] = static_cast<int64_t>(i);
  SODA_RETURN_NOT_OK(table->SetColumn(0, Column::FromBigInts(std::move(ids))));
  // One RNG per column, filled serially: the same data at every thread
  // count.
  for (size_t j = 0; j < d; ++j) {
    std::vector<double> col(n);
    Rng rng(seed * 1315423911u + j * 2654435761u);
    for (double& x : col) x = rng.Uniform(0, 100);
    SODA_RETURN_NOT_OK(
        table->SetColumn(j + 1, Column::FromDoubles(std::move(col))));
  }
  return table;
}

Result<TablePtr> GenerateLabeledTable(Catalog* catalog,
                                      const std::string& name, size_t n,
                                      size_t d, uint64_t seed) {
  SODA_ASSIGN_OR_RETURN(
      TablePtr table,
      catalog->CreateTable(name, VectorSchema(d, true, "label")));
  std::vector<int64_t> labels(n);
  Rng label_rng(seed * 104729);
  for (int64_t& l : labels) l = static_cast<int64_t>(label_rng.Below(2));
  for (size_t j = 0; j < d; ++j) {
    std::vector<double> col(n);
    Rng rng(seed * 7368787 + j * 104651);
    for (size_t i = 0; i < n; ++i) {
      // Class-shifted uniform: separable but overlapping (§8.1.2).
      col[i] = rng.Uniform(0, 100) + 30.0 * static_cast<double>(labels[i]);
    }
    SODA_RETURN_NOT_OK(
        table->SetColumn(j + 1, Column::FromDoubles(std::move(col))));
  }
  SODA_RETURN_NOT_OK(
      table->SetColumn(0, Column::FromBigInts(std::move(labels))));
  return table;
}

Result<TablePtr> RegisterGraph(Catalog* catalog, const std::string& name,
                               const GeneratedGraph& graph) {
  Schema schema(
      {Field("src", DataType::kBigInt), Field("dst", DataType::kBigInt)});
  SODA_ASSIGN_OR_RETURN(TablePtr table, catalog->CreateTable(name, schema));
  SODA_RETURN_NOT_OK(table->SetColumn(0, Column::FromBigInts(graph.src)));
  SODA_RETURN_NOT_OK(table->SetColumn(1, Column::FromBigInts(graph.dst)));
  return table;
}

Result<TablePtr> SampleInitialCenters(Catalog* catalog,
                                      const std::string& name,
                                      const Table& data, size_t k,
                                      uint64_t seed) {
  if (data.num_rows() < k || data.num_columns() < 2) {
    return Status::InvalidArgument("not enough data to sample centers");
  }
  const size_t d = data.num_columns() - 1;  // skip id column
  SODA_ASSIGN_OR_RETURN(TablePtr table,
                        catalog->CreateTable(name, VectorSchema(d, true, "cid")));
  Rng rng(seed);
  for (size_t c = 0; c < k; ++c) {
    size_t row = static_cast<size_t>(rng.Below(data.num_rows()));
    table->column(0).AppendBigInt(static_cast<int64_t>(c));
    for (size_t j = 0; j < d; ++j) {
      table->column(j + 1).AppendDouble(data.column(j + 1).GetNumeric(row));
    }
  }
  return table;
}

std::string FeatureList(size_t d, const std::string& prefix,
                        const std::string& table_alias) {
  std::string out;
  for (size_t j = 1; j <= d; ++j) {
    if (j > 1) out += ", ";
    if (!table_alias.empty()) out += table_alias + ".";
    out += prefix + "x" + std::to_string(j);
  }
  return out;
}

std::string KMeansIterateSql(const std::string& data,
                             const std::string& centers, size_t d,
                             int64_t iterations) {
  // State: the per-tuple assignment relation (i, id, cid) — n rows, which
  // ITERATE replaces each round while a recursive CTE would append
  // (paper §5.1's n·i vs 2·n memory argument).
  std::string init =
      "SELECT 0 i, dd.id id, min(cc.cid) cid"
      " FROM " + data + " dd, " + centers + " cc, "
      "(SELECT d2.id did, min(" + DistanceExpr("d2", "c2", d) + ") mind"
      " FROM " + data + " d2, " + centers + " c2 GROUP BY d2.id) m"
      " WHERE m.did = dd.id AND (" + DistanceExpr("dd", "cc", d) +
      ") = m.mind GROUP BY dd.id";
  std::string step = ReassignSql(
      data, CentersFromAssignments("iterate", data, d, "a2", "d3"),
      CentersFromAssignments("iterate", data, d, "a3", "d4"), d, "iterate");
  std::string stop =
      "SELECT 1 FROM iterate WHERE i >= " + std::to_string(iterations);
  // Final centers from the last assignment.
  return "SELECT fa.cid cid, " + AvgList("fd", d, "x") +
         " FROM ITERATE((" + init + "), (" + step + "), (" + stop + ")) fa"
         " JOIN " + data + " fd ON fd.id = fa.id"
         " GROUP BY fa.cid ORDER BY fa.cid";
}

std::string KMeansRecursiveCteSql(const std::string& data,
                                  const std::string& centers, size_t d,
                                  int64_t iterations) {
  std::string init =
      "SELECT 0 i, dd.id id, min(cc.cid) cid"
      " FROM " + data + " dd, " + centers + " cc, "
      "(SELECT d2.id did, min(" + DistanceExpr("d2", "c2", d) + ") mind"
      " FROM " + data + " d2, " + centers + " c2 GROUP BY d2.id) m"
      " WHERE m.did = dd.id AND (" + DistanceExpr("dd", "cc", d) +
      ") = m.mind GROUP BY dd.id";
  // The step prunes itself once i reaches the iteration budget — the
  // fixpoint then terminates because no new tuples are produced.
  std::string step = ReassignSql(
      data, CentersFromAssignments("km", data, d, "a2", "d3"),
      CentersFromAssignments("km", data, d, "a3", "d4"), d, "km");
  step += " HAVING a.i + 1 <= " + std::to_string(iterations);
  return "WITH RECURSIVE km (i, id, cid) AS ((" + init + ") UNION ALL (" +
         step + ")) SELECT fa.cid cid, " + AvgList("fd", d, "x") +
         " FROM km fa JOIN " + data + " fd ON fd.id = fa.id"
         " WHERE fa.i = " + std::to_string(iterations) +
         " GROUP BY fa.cid ORDER BY fa.cid";
}

std::string KMeansOperatorSql(const std::string& data,
                              const std::string& centers, size_t d,
                              int64_t iterations,
                              const std::string& lambda_body) {
  std::string body =
      lambda_body.empty() ? DistanceExpr("a", "b", d) : lambda_body;
  return "SELECT * FROM KMEANS((SELECT " + FeatureList(d) + " FROM " + data +
         "), (SELECT " + FeatureList(d) + " FROM " + centers +
         "), lambda(a, b) " + body + ", " +
         std::to_string(iterations) + ") ORDER BY cluster";
}

std::string DegreeTableSql(const std::string& edges) {
  return "SELECT src, count(*) cnt FROM " + edges + " GROUP BY src";
}

namespace {
std::string PageRankStepSql(const std::string& edges, const std::string& deg,
                            size_t num_vertices, double damping,
                            const std::string& state) {
  std::string n = std::to_string(num_vertices);
  std::string dmp = std::to_string(damping);
  return "SELECT rr.i + 1 i, e.dst v, (1.0 - " + dmp + ") / " + n + " + " +
         dmp + " * sum(rr.r / dg.cnt) r"
         " FROM " + edges + " e JOIN " + state + " rr ON e.src = rr.v"
         " JOIN " + deg + " dg ON dg.src = e.src"
         " GROUP BY rr.i, e.dst";
}
}  // namespace

std::string PageRankIterateSql(const std::string& edges,
                               const std::string& deg, size_t num_vertices,
                               double damping, int64_t iterations) {
  std::string n = std::to_string(num_vertices);
  std::string init = "SELECT 0 i, dg0.src v, 1.0 / " + n + " r FROM " + deg +
                     " dg0";
  std::string step =
      PageRankStepSql(edges, deg, num_vertices, damping, "iterate");
  std::string stop =
      "SELECT 1 FROM iterate WHERE i >= " + std::to_string(iterations);
  return "SELECT v, r FROM ITERATE((" + init + "), (" + step + "), (" + stop +
         ")) ORDER BY r DESC, v LIMIT 100";
}

std::string PageRankRecursiveCteSql(const std::string& edges,
                                    const std::string& deg,
                                    size_t num_vertices, double damping,
                                    int64_t iterations) {
  std::string n = std::to_string(num_vertices);
  std::string init = "SELECT 0 i, dg0.src v, 1.0 / " + n + " r FROM " + deg +
                     " dg0";
  std::string step =
      PageRankStepSql(edges, deg, num_vertices, damping, "pr") +
      " HAVING rr.i + 1 <= " + std::to_string(iterations);
  return "WITH RECURSIVE pr (i, v, r) AS ((" + init + ") UNION ALL (" + step +
         ")) SELECT v, r FROM pr WHERE i = " + std::to_string(iterations) +
         " ORDER BY r DESC, v LIMIT 100";
}

std::string PageRankOperatorSql(const std::string& edges, double damping,
                                double epsilon, int64_t iterations) {
  return "SELECT * FROM PAGERANK((SELECT src, dst FROM " + edges + "), " +
         std::to_string(damping) + ", " + std::to_string(epsilon) + ", " +
         std::to_string(iterations) +
         ") ORDER BY rank DESC, vertex LIMIT 100";
}

std::string NaiveBayesSql(const std::string& labeled, size_t d) {
  // One aggregation pass computing the sufficient statistics the training
  // operator keeps per class and attribute (§6.2): count, sum, sum².
  std::string sql = "SELECT label, count(*) cnt";
  for (size_t j = 1; j <= d; ++j) {
    std::string x = "x" + std::to_string(j);
    sql += ", sum(" + x + ") s" + std::to_string(j);
    sql += ", sum(" + x + " * " + x + ") q" + std::to_string(j);
  }
  sql += " FROM " + labeled + " GROUP BY label ORDER BY label";
  return sql;
}

std::string NaiveBayesOperatorSql(const std::string& labeled, size_t d) {
  return "SELECT * FROM NAIVE_BAYES_TRAIN((SELECT label, " + FeatureList(d) +
         " FROM " + labeled + ")) ORDER BY class, attr";
}

}  // namespace soda::workloads
