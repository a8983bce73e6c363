/// \file analyze_test.cc
/// Drives soda-analyze's check engine over tests/analyze_fixtures/: each
/// check has one fixture with a seeded violation (asserted down to the
/// exact check id, file, and line) and a clean twin that must pass.
/// The lock-order fixture is the "deliberately introduced inversion"
/// demonstration: commit_mu_ taken before write_mu_ is what the CI job
/// would refuse.

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/analyze/checks.h"
#include "tools/analyze/compile_commands.h"
#include "tools/analyze/report.h"
#include "tools/analyze/source_model.h"

namespace soda::analyze {
namespace {

AnalyzerConfig FixtureConfig() {
  AnalyzerConfig cfg;
  cfg.engine_prefixes.clear();  // fixtures live at the fixture root
  cfg.skip_prefixes.clear();
  cfg.probe_loop_prefixes = {"exec_"};
  cfg.serde_prefixes = {"serde_"};
  cfg.registry_suffix = "fault_registry.h";
  cfg.tests_prefix = "site_tests";
  return cfg;
}

std::vector<Finding> RunOn(const std::vector<std::string>& files,
                           const std::set<std::string>& only,
                           const AnalyzerConfig& cfg = FixtureConfig()) {
  auto streams = LoadAnalysisSet(SODA_ANALYZE_FIXTURE_DIR, files);
  EXPECT_TRUE(streams.ok()) << streams.status().ToString();
  SourceModel model;
  model.Build(streams.MoveValueOrDie());
  return RunChecks(model, cfg, only);
}

bool HasFinding(const std::vector<Finding>& findings,
                const std::string& check, const std::string& file,
                int line) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) {
                       return f.check == check && f.file == file &&
                              f.line == line;
                     });
}

std::string Describe(const std::vector<Finding>& findings) {
  return RenderText(findings);
}

TEST(AnalyzeLockOrder, DetectsCommitBeforeWriteInversion) {
  auto findings = RunOn({"lock_order_bad.cc"}, {"lock-order"});
  // The seeded inversion: write_mu_ (rank 0) acquired while
  // commit_mu_ (rank 1) is held.
  EXPECT_TRUE(HasFinding(findings, "lock-order", "lock_order_bad.cc", 20))
      << Describe(findings);
  bool saw_inversion = false;
  for (const Finding& f : findings) {
    if (f.line == 20) {
      saw_inversion = true;
      EXPECT_NE(f.message.find("Engine::write_mu_"), std::string::npos)
          << f.message;
      EXPECT_NE(f.message.find("DurabilityManager::commit_mu_"),
                std::string::npos)
          << f.message;
    }
  }
  EXPECT_TRUE(saw_inversion);
  // The immediately-destroyed MutexLock temporary.
  EXPECT_TRUE(HasFinding(findings, "lock-order", "lock_order_bad.cc", 24))
      << Describe(findings);
}

TEST(AnalyzeLockOrder, CleanTwinPasses) {
  auto findings = RunOn({"lock_order_ok.cc"}, {"lock-order"});
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(AnalyzeStatus, DetectsDiscardCollapseAndProvenance) {
  auto findings =
      RunOn({"status_bad.cc"},
            {"status-discard", "status-collapse", "status-provenance"});
  EXPECT_EQ(findings.size(), 3u) << Describe(findings);
  EXPECT_TRUE(HasFinding(findings, "status-discard", "status_bad.cc", 12))
      << Describe(findings);
  EXPECT_TRUE(HasFinding(findings, "status-collapse", "status_bad.cc", 16))
      << Describe(findings);
  EXPECT_TRUE(
      HasFinding(findings, "status-provenance", "status_bad.cc", 22))
      << Describe(findings);
}

TEST(AnalyzeStatus, CleanTwinPasses) {
  auto findings =
      RunOn({"status_ok.cc"},
            {"status-discard", "status-collapse", "status-provenance"});
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(AnalyzeGuardProbe, DetectsUnprobedRowLoop) {
  auto findings = RunOn({"exec_loop_bad.cc"}, {"guard-probe"});
  ASSERT_EQ(findings.size(), 1u) << Describe(findings);
  EXPECT_TRUE(
      HasFinding(findings, "guard-probe", "exec_loop_bad.cc", 11))
      << Describe(findings);
  EXPECT_NE(findings[0].message.find("SumRows"), std::string::npos)
      << findings[0].message;
}

TEST(AnalyzeGuardProbe, ProbedAndAnnotatedTwinPasses) {
  auto findings = RunOn({"exec_loop_ok.cc"}, {"guard-probe"});
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(AnalyzeFaultSite, RegistryCodeAndTestsMustAgree) {
  auto findings = RunOn(
      {"fault_registry.h", "sites_code.cc", "site_tests.cc"},
      {"fault-site"});
  EXPECT_EQ(findings.size(), 3u) << Describe(findings);
  // Probed in code but missing from the registry.
  EXPECT_TRUE(HasFinding(findings, "fault-site", "sites_code.cc", 13))
      << Describe(findings);
  // Registered but unreachable (no probe site) and untested.
  EXPECT_TRUE(HasFinding(findings, "fault-site", "fault_registry.h", 11))
      << Describe(findings);
  size_t orphan = 0;
  for (const Finding& f : findings) {
    if (f.file == "fault_registry.h" && f.line == 11) ++orphan;
  }
  EXPECT_EQ(orphan, 2u) << Describe(findings);
}

TEST(AnalyzeSerde, DetectsRawPayloadAccess) {
  auto findings = RunOn({"serde_bad.cc"}, {"serde-bounds"});
  EXPECT_EQ(findings.size(), 2u) << Describe(findings);
  EXPECT_TRUE(HasFinding(findings, "serde-bounds", "serde_bad.cc", 14))
      << Describe(findings);
  EXPECT_TRUE(HasFinding(findings, "serde-bounds", "serde_bad.cc", 19))
      << Describe(findings);
}

TEST(AnalyzeSerde, CodecAndPunningTwinPasses) {
  auto findings = RunOn({"serde_ok.cc"}, {"serde-bounds"});
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(AnalyzeFsync, DetectsDiscardedSyncResults) {
  auto findings = RunOn({"fsync_bad.cc"}, {"fsync-discard"});
  EXPECT_EQ(findings.size(), 2u) << Describe(findings);
  EXPECT_TRUE(HasFinding(findings, "fsync-discard", "fsync_bad.cc", 8))
      << Describe(findings);
  EXPECT_TRUE(HasFinding(findings, "fsync-discard", "fsync_bad.cc", 9))
      << Describe(findings);
}

TEST(AnalyzeFsync, CheckedAndAnnotatedTwinPasses) {
  auto findings = RunOn({"fsync_ok.cc"}, {"fsync-discard"});
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(AnalyzeRawSync, DetectsStdSyncTypesOutsideMutexHeader) {
  AnalyzerConfig cfg = FixtureConfig();
  cfg.raw_sync_prefixes = {"raw_sync_"};
  auto findings = RunOn({"raw_sync_bad.cc"}, {"raw-sync"}, cfg);
  EXPECT_EQ(findings.size(), 4u) << Describe(findings);
  for (int line : {8, 9, 10}) {
    EXPECT_TRUE(HasFinding(findings, "raw-sync", "raw_sync_bad.cc", line))
        << Describe(findings);
  }
  // The owning header is exempt.
  cfg.raw_sync_owner = "raw_sync_bad.cc";
  EXPECT_TRUE(RunOn({"raw_sync_bad.cc"}, {"raw-sync"}, cfg).empty());
}

TEST(AnalyzeRawSync, CommentsStringsAndAnnotatedTwinPass) {
  AnalyzerConfig cfg = FixtureConfig();
  cfg.raw_sync_prefixes = {"raw_sync_"};
  auto findings = RunOn({"raw_sync_ok.cc"}, {"raw-sync"}, cfg);
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(AnalyzeRawThread, DetectsStdThreadOutsideThePool) {
  AnalyzerConfig cfg = FixtureConfig();
  cfg.raw_thread_prefixes = {"raw_thread_"};
  auto findings = RunOn({"raw_thread_bad.cc"}, {"raw-thread"}, cfg);
  EXPECT_EQ(findings.size(), 2u) << Describe(findings);
  for (int line : {8, 9}) {
    EXPECT_TRUE(HasFinding(findings, "raw-thread", "raw_thread_bad.cc", line))
        << Describe(findings);
  }
  // The pool is exempt, and so is every file outside the prefixes (tests).
  cfg.raw_thread_owner = "raw_thread_bad";
  EXPECT_TRUE(RunOn({"raw_thread_bad.cc"}, {"raw-thread"}, cfg).empty());
  cfg = FixtureConfig();
  cfg.raw_thread_prefixes = {"src/"};
  EXPECT_TRUE(RunOn({"raw_thread_bad.cc"}, {"raw-thread"}, cfg).empty());
}

TEST(AnalyzeRawThread, ThisThreadCommentsStringsAndAnnotatedTwinPass) {
  AnalyzerConfig cfg = FixtureConfig();
  cfg.raw_thread_prefixes = {"raw_thread_"};
  auto findings = RunOn({"raw_thread_ok.cc"}, {"raw-thread"}, cfg);
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(AnalyzeRawAnnotation, DetectsRawThreadSafetyAttributes) {
  AnalyzerConfig cfg = FixtureConfig();
  cfg.raw_sync_prefixes = {"raw_annotation_"};
  auto findings = RunOn({"raw_annotation_bad.cc"}, {"raw-annotation"}, cfg);
  EXPECT_EQ(findings.size(), 3u) << Describe(findings);
  for (int line : {4, 5, 6}) {
    EXPECT_TRUE(HasFinding(findings, "raw-annotation",
                           "raw_annotation_bad.cc", line))
        << Describe(findings);
  }
  // The macro header is exempt.
  cfg.raw_annotation_owner = "raw_annotation_bad.cc";
  EXPECT_TRUE(
      RunOn({"raw_annotation_bad.cc"}, {"raw-annotation"}, cfg).empty());
}

TEST(AnalyzeRawAnnotation, MacrosCommentsStringsAndAnnotatedTwinPass) {
  AnalyzerConfig cfg = FixtureConfig();
  cfg.raw_sync_prefixes = {"raw_annotation_"};
  auto findings = RunOn({"raw_annotation_ok.cc"}, {"raw-annotation"}, cfg);
  EXPECT_TRUE(findings.empty()) << Describe(findings);
}

TEST(AnalyzeBaseline, RoundTripSuppressesKnownFindings) {
  auto findings = RunOn({"status_bad.cc"},
                        {"status-discard", "status-collapse"});
  ASSERT_FALSE(findings.empty());
  auto keys = ParseBaseline(RenderBaseline(findings));
  ASSERT_TRUE(keys.ok()) << keys.status().ToString();
  std::vector<Finding> fresh, suppressed;
  DiffBaseline(findings, keys.ValueOrDie(), &fresh, &suppressed);
  EXPECT_TRUE(fresh.empty()) << Describe(fresh);
  EXPECT_EQ(suppressed.size(), findings.size());

  // A finding not in the baseline stays fresh.
  Finding novel{"status-discard", "other.cc", 7, "new regression"};
  fresh.clear();
  suppressed.clear();
  DiffBaseline({novel}, keys.ValueOrDie(), &fresh, &suppressed);
  EXPECT_EQ(fresh.size(), 1u);
  EXPECT_TRUE(suppressed.empty());
}

TEST(AnalyzeBaseline, IdentityIgnoresLineNumbers) {
  Finding a{"guard-probe", "x.cc", 10, "loop without probe"};
  Finding moved = a;
  moved.line = 42;  // the file was edited above the finding
  auto keys = ParseBaseline(RenderBaseline({a}));
  ASSERT_TRUE(keys.ok());
  std::vector<Finding> fresh, suppressed;
  DiffBaseline({moved}, keys.ValueOrDie(), &fresh, &suppressed);
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(suppressed.size(), 1u);
}

TEST(AnalyzeReport, SarifCarriesRuleAndLocation) {
  Finding f{"lock-order", "src/core/engine.cc", 12, "inverted edge"};
  std::string sarif = RenderSarif({f});
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"lock-order\""), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/core/engine.cc\""),
            std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 12"), std::string::npos);
}

TEST(AnalyzeAnnotations, ReasonIsMandatory) {
  TokenStream s = Tokenize(
      "t.cc",
      "// analyze:allow(fsync:)\nint x;\n// analyze:allow(fsync: why)\n"
      "int y;\n");
  EXPECT_FALSE(s.HasAllowAnnotation(2, "fsync"));
  EXPECT_TRUE(s.HasAllowAnnotation(4, "fsync"));
}

}  // namespace
}  // namespace soda::analyze
