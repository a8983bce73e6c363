/// Ablation for §7: lambda-parameterized operators vs the hard-coded
/// default. The paper's claim: "because all code is compiled together, no
/// virtual function calls are involved" — the user lambda should cost at
/// most a small constant over the built-in metric, and a *different*
/// lambda (L1 / weighted) should cost about the same as L2. These three
/// have a per-dimension form and run k-Means' column-blocked kernel;
/// sqrt(L2) has none and times the expression-evaluator path.

#include "bench/bench_util.h"
#include "bench_support/workloads.h"

namespace {

/// Manhattan-distance lambda body over d dims.
std::string L1Body(size_t d) {
  std::string out;
  for (size_t j = 1; j <= d; ++j) {
    if (j > 1) out += " + ";
    out += "abs(a.x" + std::to_string(j) + " - b.x" + std::to_string(j) + ")";
  }
  return out;
}

/// Coordinate-weighted squared distance (first dim counts 4x).
std::string WeightedBody(size_t d) {
  std::string out = "4.0 * (a.x1 - b.x1)^2";
  for (size_t j = 2; j <= d; ++j) {
    out += " + (a.x" + std::to_string(j) + " - b.x" + std::to_string(j) +
           ")^2";
  }
  return out;
}

/// Euclidean (not squared) distance: no per-dimension form.
std::string SqrtL2Body(size_t d) {
  std::string out = "sqrt(";
  for (size_t j = 1; j <= d; ++j) {
    if (j > 1) out += " + ";
    out += "(a.x" + std::to_string(j) + " - b.x" + std::to_string(j) + ")^2";
  }
  return out + ")";
}

std::string NoLambdaSql(const std::string& data, const std::string& centers,
                        size_t d, int64_t iters) {
  return "SELECT * FROM KMEANS((SELECT " + soda::workloads::FeatureList(d) +
         " FROM " + data + "), (SELECT " + soda::workloads::FeatureList(d) +
         " FROM " + centers + "), " + std::to_string(iters) + ")";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace soda;
  using namespace soda::bench;
  Scale scale = ParseScale(argc, argv);
  const size_t n = 4000000 / scale.divisor;
  const size_t k = 5;
  const int64_t iters = 3;

  std::printf("=== Ablation (§7): lambda distance vs built-in metric ===\n");
  std::printf("scale=%s; n=%s, k=%zu, i=%lld; seconds\n\n", scale.name,
              Human(n).c_str(), k, static_cast<long long>(iters));
  PrintHeader({"dimensions", "built-in L2", "lambda L2", "lambda L1",
               "lambda weighted", "lambda sqrt(L2)", "lambda/builtin"});

  for (size_t d : {3, 10, 25}) {
    Engine engine;
    auto data =
        workloads::GenerateVectorTable(&engine.catalog(), "data", n, d, d);
    if (!data.ok()) return 1;
    auto centers = workloads::SampleInitialCenters(&engine.catalog(),
                                                   "centers", **data, k, 3);
    if (!centers.ok()) return 1;

    double builtin = TimeQuery(engine, NoLambdaSql("data", "centers", d, iters));
    double lambda_l2 = TimeQuery(
        engine, workloads::KMeansOperatorSql("data", "centers", d, iters));
    double lambda_l1 = TimeQuery(
        engine,
        workloads::KMeansOperatorSql("data", "centers", d, iters, L1Body(d)));
    double lambda_w = TimeQuery(
        engine, workloads::KMeansOperatorSql("data", "centers", d, iters,
                                             WeightedBody(d)));
    double lambda_sqrt = TimeQuery(
        engine, workloads::KMeansOperatorSql("data", "centers", d, iters,
                                             SqrtL2Body(d)));

    PrintCell(std::to_string(d));
    PrintSeconds(builtin);
    PrintSeconds(lambda_l2);
    PrintSeconds(lambda_l1);
    PrintSeconds(lambda_w);
    PrintSeconds(lambda_sqrt);
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.2fx", lambda_l2 / builtin);
    PrintCell(ratio);
    EndRow();
    std::fflush(stdout);
  }
  return 0;
}
