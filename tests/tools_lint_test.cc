// Unit tests for the bbv_lint rule engine: each enforced invariant must fire
// on its fixture file (tests/lint_fixtures/) and stay silent on clean and
// suppressed code. The repo-wide gate itself runs as the bbv_lint_repo ctest
// test; here we additionally assert the live tree is clean through the
// library API so a violation fails fast in unit tests too.

#include "tools/lint_rules.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "json_test_util.h"

namespace bbv::tools {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(BBV_TEST_SOURCE_DIR) + "/lint_fixtures/" + name;
}

size_t CountRule(const std::vector<LintFinding>& findings,
                 const std::string& rule) {
  return static_cast<size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const LintFinding& f) { return f.rule == rule; }));
}

TEST(LintRulesTest, FlagsWrongIncludeGuard) {
  const auto findings =
      LintFile("src/fixture/bad_guard.h", FixturePath("bad_guard.h"));
  ASSERT_EQ(CountRule(findings, "include-guard"), 1u);
  EXPECT_NE(findings[0].message.find("BBV_FIXTURE_BAD_GUARD_H_"),
            std::string::npos);
}

TEST(LintRulesTest, FlagsMissingIncludeGuard) {
  const auto findings =
      LintFile("src/fixture/missing_guard.h", FixturePath("missing_guard.h"));
  ASSERT_EQ(CountRule(findings, "include-guard"), 1u);
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_NE(findings[0].message.find("BBV_FIXTURE_MISSING_GUARD_H_"),
            std::string::npos);
}

TEST(LintRulesTest, AcceptsPathDerivedGuard) {
  const auto findings = LintFileContents(
      "src/fixture/clean.h",
      "#ifndef BBV_FIXTURE_CLEAN_H_\n#define BBV_FIXTURE_CLEAN_H_\n"
      "#endif  // BBV_FIXTURE_CLEAN_H_\n");
  EXPECT_EQ(CountRule(findings, "include-guard"), 0u);
}

TEST(LintRulesTest, ToolsAndBenchHeadersKeepFullPathInGuard) {
  // Only the src/ prefix is stripped: tools/foo.h guards as BBV_TOOLS_FOO_H_.
  const auto findings = LintFileContents(
      "tools/fixture.h",
      "#ifndef BBV_TOOLS_FIXTURE_H_\n#define BBV_TOOLS_FIXTURE_H_\n#endif\n");
  EXPECT_EQ(CountRule(findings, "include-guard"), 0u);
}

TEST(LintRulesTest, FlagsEveryBannedRandomnessSource) {
  const auto findings =
      LintFile("src/fixture/bad_rng.cc", FixturePath("bad_rng.cc"));
  // mt19937, random_device, srand, rand, plus the time(nullptr) seed.
  EXPECT_GE(CountRule(findings, "rng"), 5u);
}

TEST(LintRulesTest, RngHomeFilesAreExempt) {
  const auto findings = LintFileContents(
      "src/common/rng.cc", "uint64_t x = std::mt19937(seed)();\n");
  EXPECT_EQ(CountRule(findings, "rng"), 0u);
}

TEST(LintRulesTest, MentionsInCommentsAndStringsAreClean) {
  const auto findings = LintFileContents(
      "src/fixture/comments.cc",
      "// std::rand and time(nullptr) discussed in prose\n"
      "const char* kDoc = \"std::mt19937 is banned\";\n");
  EXPECT_EQ(CountRule(findings, "rng"), 0u);
}

TEST(LintRulesTest, FlagsFloatLiteralEqualityInStatsAndMl) {
  const auto findings =
      LintFile("src/stats/bad_float_eq.cc", FixturePath("bad_float_eq.cc"));
  EXPECT_EQ(CountRule(findings, "float-eq"), 3u);
}

TEST(LintRulesTest, FloatEqualityRuleScopedToStatsAndMl) {
  // The same contents under src/linalg/ (sparsity skips are idiomatic there)
  // must not be flagged.
  std::ifstream input(FixturePath("bad_float_eq.cc"));
  std::ostringstream buffer;
  buffer << input.rdbuf();
  const auto findings =
      LintFileContents("src/linalg/bad_float_eq.cc", buffer.str());
  EXPECT_EQ(CountRule(findings, "float-eq"), 0u);
}

TEST(LintRulesTest, FlagsStdoutInLibraryCode) {
  const auto findings =
      LintFile("src/fixture/bad_cout.cc", FixturePath("bad_cout.cc"));
  EXPECT_EQ(CountRule(findings, "stdout"), 1u);
}

TEST(LintRulesTest, StdoutAllowedOutsideLibraryCode) {
  std::ifstream input(FixturePath("bad_cout.cc"));
  std::ostringstream buffer;
  buffer << input.rdbuf();
  const auto findings =
      LintFileContents("tools/bad_cout.cc", buffer.str());
  EXPECT_EQ(CountRule(findings, "stdout"), 0u);
}

TEST(LintRulesTest, FlagsAssertButNotStaticAssert) {
  const auto findings =
      LintFile("src/fixture/bad_assert.cc", FixturePath("bad_assert.cc"));
  // One for <cassert>, one for the assert() call; static_assert is clean.
  EXPECT_EQ(CountRule(findings, "assert"), 2u);
  for (const LintFinding& finding : findings) {
    EXPECT_NE(finding.line, 7u) << "static_assert must not be flagged";
  }
}

TEST(LintRulesTest, FlagsRawThreadPrimitives) {
  const auto findings =
      LintFile("src/fixture/bad_thread.cc", FixturePath("bad_thread.cc"));
  // <future>, <thread>, std::thread, std::jthread and std::async each fire.
  EXPECT_GE(CountRule(findings, "thread"), 5u);
}

TEST(LintRulesTest, ParallelHomeFilesAreExemptFromThreadRule) {
  const auto findings = LintFileContents(
      "src/common/parallel.cc",
      "#include <thread>\nstd::thread worker([] {});\n");
  EXPECT_EQ(CountRule(findings, "thread"), 0u);
}

TEST(LintRulesTest, ThreadRuleKeepsThreadLocalAndCommentsClean) {
  const auto findings = LintFileContents(
      "src/fixture/thread_local_ok.cc",
      "// std::thread is discussed in prose only\n"
      "thread_local bool tls_flag = false;\n"
      "int threads = 4;\n");
  EXPECT_EQ(CountRule(findings, "thread"), 0u);
}

TEST(LintRulesTest, FlagsRawStreamIo) {
  const auto findings =
      LintFile("src/fixture/bad_raw_io.cc", FixturePath("bad_raw_io.cc"));
  // write, sputn, read, readsome and sgetn each fire, on their own lines.
  EXPECT_EQ(CountRule(findings, "raw-io"), 5u);
}

TEST(LintRulesTest, RawIoRuleExemptsOnlyTheArchive) {
  const std::string contents =
      "void F(std::ostream& out) { out.write(\"x\", 1); }\n";
  EXPECT_EQ(CountRule(LintFileContents("src/common/serialize.cc", contents),
                      "raw-io"),
            0u);
  EXPECT_EQ(CountRule(LintFileContents("src/common/serialize.h", contents),
                      "raw-io"),
            1u);
  EXPECT_EQ(CountRule(LintFileContents("bench/fixture.cc", contents),
                      "raw-io"),
            1u);
  // Free functions and comments named read/write are not stream calls.
  EXPECT_EQ(CountRule(LintFileContents("src/fixture/free.cc",
                                       "// out.write(x) in prose\n"
                                       "int read(int fd);\n"
                                       "int n = read(3);\n"),
                      "raw-io"),
            0u);
}

TEST(LintRulesTest, FlagsAdHocTiming) {
  const auto findings =
      LintFile("src/fixture/bad_chrono.cc", FixturePath("bad_chrono.cc"));
  // <chrono>, <ctime>, <sys/time.h>, std::chrono, clock_gettime and
  // gettimeofday each fire.
  EXPECT_GE(CountRule(findings, "timing"), 6u);
}

TEST(LintRulesTest, TimingHomeFilesAreExempt) {
  std::ifstream input(FixturePath("bad_chrono.cc"));
  std::ostringstream buffer;
  buffer << input.rdbuf();
  const std::string contents = buffer.str();
  for (const char* home :
       {"src/common/telemetry.h", "src/common/telemetry.cc",
        "bench/bench_util.h", "bench/bench_util.cc"}) {
    const auto findings = LintFileContents(home, contents);
    EXPECT_EQ(CountRule(findings, "timing"), 0u) << home;
  }
}

TEST(LintRulesTest, TimingRuleKeepsProseAndStringsClean) {
  const auto findings = LintFileContents(
      "src/fixture/timing_prose.cc",
      "// std::chrono is discussed in prose only\n"
      "const char* kDoc = \"clock_gettime(...) is banned\";\n");
  EXPECT_EQ(CountRule(findings, "timing"), 0u);
}

TEST(LintRulesTest, SuppressionMarkerSilencesFindings) {
  const auto findings =
      LintFile("src/ml/suppressed.cc", FixturePath("suppressed.cc"));
  EXPECT_TRUE(findings.empty())
      << "unexpected: " << FormatFinding(findings.front());
}

TEST(LintRulesTest, FormatIsPathLineRuleMessage) {
  const LintFinding finding{"src/a.cc", 12, "rng", "banned"};
  EXPECT_EQ(FormatFinding(finding), "src/a.cc:12: [rng] banned");
}

TEST(LintRulesTest, FlagsUnorderedContainersInLibraryCode) {
  const auto findings =
      LintFile("src/fixture/bad_det_iter.cc", FixturePath("bad_det_iter.cc"));
  // Two type mentions, one range-for and one .begin() traversal; the
  // suppressed declaration and the lookup-only access stay silent.
  EXPECT_EQ(CountRule(findings, "det-iter"), 4u);
}

TEST(LintRulesTest, DetIterRuleScopedToSrc) {
  std::ifstream input(FixturePath("bad_det_iter.cc"));
  std::ostringstream buffer;
  buffer << input.rdbuf();
  // Tools and tests may use hash containers; only src/ is result-affecting.
  const auto findings =
      LintFileContents("tools/bad_det_iter.cc", buffer.str());
  EXPECT_EQ(CountRule(findings, "det-iter"), 0u);
}

TEST(LintRulesTest, FlagsPointerKeyedOrderedContainers) {
  const auto findings = LintFile("src/fixture/bad_det_iter_ptr_key.cc",
                                 FixturePath("bad_det_iter_ptr_key.cc"));
  // Raw-pointer set parameter, const-pointer map key, shared_ptr key and a
  // pointer inside a compound key; the string-keyed containers and the
  // suppressed declaration stay silent.
  EXPECT_EQ(CountRule(findings, "det-iter"), 4u);
}

TEST(LintRulesTest, PointerKeyRuleScopedToSrc) {
  std::ifstream input(FixturePath("bad_det_iter_ptr_key.cc"));
  std::ostringstream buffer;
  buffer << input.rdbuf();
  const auto findings =
      LintFileContents("tools/bad_det_iter_ptr_key.cc", buffer.str());
  EXPECT_EQ(CountRule(findings, "det-iter"), 0u);
}

TEST(LintRulesTest, PointerOnValueSideOfMapIsAllowed) {
  const auto findings = LintFileContents(
      "src/fixture/value_ptr.cc",
      "#include <map>\n"
      "#include <string>\n"
      "struct Node {};\n"
      "std::map<std::string, Node*> Index();\n");
  EXPECT_EQ(CountRule(findings, "det-iter"), 0u);
}

TEST(LintRulesTest, DetIterTraversalNeedsADeclaredVariable) {
  // A range-for over an ordered map is fine even when an unordered variable
  // exists elsewhere in the file.
  const auto findings = LintFileContents(
      "src/fixture/ordered.cc",
      "#include <map>\n"
      "double Sum(const std::map<int, double>& m) {\n"
      "  double total = 0.0;\n"
      "  for (const auto& [k, v] : m) total += v;\n"
      "  return total;\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "det-iter"), 0u);
}

TEST(LintRulesTest, ModuleLayersMatchTheDocumentedDag) {
  EXPECT_EQ(ModuleLayer("common"), 0);
  EXPECT_EQ(ModuleLayer("stats"), 1);
  EXPECT_EQ(ModuleLayer("linalg"), 1);
  EXPECT_EQ(ModuleLayer("data"), 1);
  EXPECT_EQ(ModuleLayer("ml"), 2);
  EXPECT_EQ(ModuleLayer("errors"), 2);
  EXPECT_EQ(ModuleLayer("featurize"), 2);
  EXPECT_EQ(ModuleLayer("datasets"), 2);
  EXPECT_EQ(ModuleLayer("core"), 3);
  EXPECT_EQ(ModuleLayer("serve"), 3);
  EXPECT_EQ(ModuleLayer("automl"), 3);
  EXPECT_EQ(ModuleLayer("no_such_module"), -1);
}

TEST(LintRulesTest, AllowedEdgesPointDownOrRideTheAuditList) {
  EXPECT_TRUE(IsAllowedModuleEdge("core", "common"));
  EXPECT_TRUE(IsAllowedModuleEdge("ml", "data"));
  EXPECT_TRUE(IsAllowedModuleEdge("stats", "stats"));
  // The four audited same-layer edges.
  EXPECT_TRUE(IsAllowedModuleEdge("stats", "linalg"));
  EXPECT_TRUE(IsAllowedModuleEdge("ml", "featurize"));
  EXPECT_TRUE(IsAllowedModuleEdge("errors", "ml"));
  EXPECT_TRUE(IsAllowedModuleEdge("serve", "core"));
  // Reversals and climbs are rejected.
  EXPECT_FALSE(IsAllowedModuleEdge("linalg", "stats"));
  EXPECT_FALSE(IsAllowedModuleEdge("common", "core"));
  EXPECT_FALSE(IsAllowedModuleEdge("stats", "ml"));
  EXPECT_FALSE(IsAllowedModuleEdge("core", "serve"));
}

TEST(LintRulesTest, FlagsBackEdgeIncludes) {
  const auto findings =
      LintFile("src/stats/bad_layering.cc", FixturePath("bad_layering.cc"));
  // stats -> core and stats -> ml fire; common/linalg includes and the
  // suppressed serve include stay silent.
  EXPECT_EQ(CountRule(findings, "layering"), 2u);
  for (const LintFinding& finding : findings) {
    if (finding.rule != "layering") continue;
    EXPECT_NE(finding.message.find("stats"), std::string::npos);
  }
}

TEST(LintRulesTest, LayeringIgnoresSystemAndUnknownIncludes) {
  const auto findings = LintFileContents(
      "src/stats/clean_includes.cc",
      "#include <vector>\n#include \"third_party/some_lib.h\"\n");
  EXPECT_EQ(CountRule(findings, "layering"), 0u);
}

TEST(LintRulesTest, FindsConstructedModuleCycle) {
  const std::vector<ModuleEdge> edges = {
      {"data", "ml", 1, false},
      {"ml", "stats", 2, true},
      {"stats", "data", 1, false},
  };
  const auto cycle = FindModuleCycle(edges);
  ASSERT_GE(cycle.size(), 4u);
  EXPECT_EQ(cycle.front(), cycle.back());
}

TEST(LintRulesTest, AcyclicGraphAndSelfEdgesHaveNoCycle) {
  const std::vector<ModuleEdge> acyclic = {
      {"ml", "stats", 1, true},
      {"stats", "common", 3, true},
      {"ml", "common", 2, true},
  };
  EXPECT_TRUE(FindModuleCycle(acyclic).empty());
  const std::vector<ModuleEdge> self_only = {{"ml", "ml", 5, true}};
  EXPECT_TRUE(FindModuleCycle(self_only).empty());
}

TEST(LintRulesTest, DotExportNamesModulesAndMarksViolations) {
  const std::vector<ModuleEdge> edges = {
      {"linalg", "stats", 1, false},
      {"stats", "common", 4, true},
  };
  const std::string dot = ModuleGraphDot(edges);
  EXPECT_NE(dot.find("digraph bbv_modules"), std::string::npos);
  EXPECT_NE(dot.find("\"stats\" -> \"common\""), std::string::npos);
  EXPECT_NE(dot.find("\"linalg\" -> \"stats\""), std::string::npos);
  EXPECT_NE(dot.find("red"), std::string::npos);  // the violating edge
}

TEST(LintRulesTest, FlagsDiscardedStatusCalls) {
  const auto findings = LintFile("src/fixture/bad_status_discard.cc",
                                 FixturePath("bad_status_discard.cc"));
  // Bare DoWork(), worker.Run() and Compute() statements; captures,
  // conditions, returns, strings and the suppressed call stay silent.
  EXPECT_EQ(CountRule(findings, "status-discard"), 3u);
  bool names_callee = false;
  for (const LintFinding& finding : findings) {
    if (finding.rule == "status-discard" &&
        finding.message.find("DoWork") != std::string::npos) {
      names_callee = true;
    }
  }
  EXPECT_TRUE(names_callee);
}

TEST(LintRulesTest, AmbiguousStatusNamesAreSkipped) {
  // A name declared with both Status and void return types anywhere in the
  // tree is ambiguous; the name-based rule defers to [[nodiscard]].
  AnalysisContext context;
  context.status_functions.insert("DoWork");
  context.void_functions.insert("DoWork");
  const auto findings = LintFileContentsWithContext(
      "src/fixture/ambiguous.cc", "void Use() {\n  DoWork();\n}\n", context);
  EXPECT_EQ(CountRule(findings, "status-discard"), 0u);
}

TEST(LintRulesTest, FlagsPredictRowInLoops) {
  const auto findings =
      LintFile("src/fixture/bad_batch_api.cc", FixturePath("bad_batch_api.cc"));
  // The braced for body, the while body, the single-statement for body and
  // the scalar-estimate loop; the lone calls, the string literal, the
  // suppressed loop and the plural span surface stay silent.
  EXPECT_EQ(CountRule(findings, "batch-api"), 4u);
}

TEST(LintRulesTest, ScalarEstimateInLoopIsFlagged) {
  const auto findings = LintFileContents(
      "serve/fixture/estimate_loop.cc",
      "void All(const Predictor& p, const Rows& rows, Est* out) {\n"
      "  for (size_t i = 0; i < rows.size(); ++i) {\n"
      "    out[i] = p.EstimateScoreFromStatistics(rows[i]);\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "batch-api"), 1u);
}

TEST(LintRulesTest, BatchEstimateSpanSurfaceIsCleanInLoops) {
  // The plural span overload IS the sanctioned batch surface; calling it
  // repeatedly (e.g. once per monitoring epoch) is fine.
  const auto findings = LintFileContents(
      "serve/fixture/estimate_batch.cc",
      "void Epochs(const Predictor& p, const Matrix& x, Span out) {\n"
      "  for (int epoch = 0; epoch < 5; ++epoch) {\n"
      "    BBV_CHECK(p.EstimateScoresFromStatistics(x, out).ok());\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "batch-api"), 0u);
}

TEST(LintRulesTest, PredictRowInStringLiteralDoesNotFire) {
  const auto findings = LintFileContents(
      "src/fixture/doc_string.cc",
      "const char* Doc() {\n"
      "  for (int i = 0; i < 3; ++i) {\n"
      "    return \"never call PredictRow(row) per row\";\n"
      "  }\n"
      "  return \"\";\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "batch-api"), 0u);
}

TEST(LintRulesTest, PredictRowOutsideLoopsIsClean) {
  const auto findings = LintFileContents(
      "src/fixture/single_row.cc",
      "double One(const Model& m, const double* row) {\n"
      "  return m.PredictRow(row);\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "batch-api"), 0u);
}

TEST(LintRulesTest, PredictRowInParallelForLambdaIsFlagged) {
  // A ParallelFor callable runs once per item: per-row inference inside it
  // is a loop body even without a lexical loop keyword. bench/ harnesses
  // are covered like everything else.
  const auto findings = LintFileContents(
      "bench/fixture/parallel_predict.cc",
      "void All(const Model& m, const Matrix& x, double* out) {\n"
      "  ParallelFor(x.rows(), [&](size_t i) {\n"
      "    out[i] = m.PredictRow(x.RowData(i));\n"
      "    return Status::OK();\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "batch-api"), 1u);
}

TEST(LintRulesTest, PredictRowInParallelMapWithTemplateArgsIsFlagged) {
  const auto findings = LintFileContents(
      "src/fixture/parallel_map_predict.cc",
      "std::vector<double> All(const Model& m, const Matrix& x) {\n"
      "  return common::ParallelMap<double>(x.rows(), [&](size_t i) {\n"
      "    return m.PredictRow(x.RowData(i));\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "batch-api"), 1u);
}

TEST(LintRulesTest, SuppressedParallelForPredictRowIsClean) {
  const auto findings = LintFileContents(
      "bench/fixture/parallel_predict.cc",
      "void All(const Model& m, const Matrix& x, double* out) {\n"
      "  ParallelFor(x.rows(), [&](size_t i) {\n"
      "    // bbv-lint: allow(batch-api) scalar timing baseline\n"
      "    out[i] = m.PredictRow(x.RowData(i));\n"
      "    return Status::OK();\n"
      "  });\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "batch-api"), 0u);
}

TEST(LintRulesTest, PredictRowAfterParallelForCallIsClean) {
  // The call frame expires at the matching ')': per-row calls after the
  // parallel section are single-row latency paths, not hidden loops.
  const auto findings = LintFileContents(
      "src/fixture/after_parallel.cc",
      "double One(const Model& m, const Matrix& x, double* out) {\n"
      "  ParallelFor(x.rows(), [&](size_t i) { out[i] = 0.0; });\n"
      "  return m.PredictRow(x.RowData(0));\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, "batch-api"), 0u);
}

TEST(LintRulesTest, AnalyzeTreePopulatesTheModuleGraph) {
  const std::filesystem::path repo_root =
      std::filesystem::path(BBV_TEST_SOURCE_DIR).parent_path();
  const TreeAnalysis analysis = AnalyzeTree(repo_root.string());
  EXPECT_GT(analysis.num_files_scanned, 0u);
  ASSERT_FALSE(analysis.edges.empty());
  bool saw_core_to_common = false;
  for (const ModuleEdge& edge : analysis.edges) {
    EXPECT_TRUE(edge.allowed) << edge.from << " -> " << edge.to;
    if (edge.from == "core" && edge.to == "common") saw_core_to_common = true;
  }
  EXPECT_TRUE(saw_core_to_common);
  EXPECT_TRUE(FindModuleCycle(analysis.edges).empty());
  // Edges arrive sorted by (from, to) so diffs of --dot output are stable.
  for (size_t i = 1; i < analysis.edges.size(); ++i) {
    const ModuleEdge& a = analysis.edges[i - 1];
    const ModuleEdge& b = analysis.edges[i];
    EXPECT_LE(std::tie(a.from, a.to), std::tie(b.from, b.to));
  }
}

TEST(LintRulesTest, FindingsJsonIsWellFormedAndCountsRules) {
  TreeAnalysis analysis;
  analysis.num_files_scanned = 3;
  analysis.findings.push_back(
      {"src/a.cc", 7, "det-iter", "message with \"quotes\" and \\ slash"});
  analysis.findings.push_back({"src/b.cc", 9, "det-iter", "second"});
  analysis.findings.push_back({"src/b.cc", 12, "layering", "third"});
  const std::string json = FindingsJson(analysis);
  EXPECT_TRUE(bbv::testing::JsonParses(json)) << json;
  EXPECT_NE(json.find("\"tool\": \"bbv_lint\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"num_findings\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"det-iter\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"layering\": 1"), std::string::npos);
  // Every rule id appears in rule_counts, including untriggered ones.
  EXPECT_NE(json.find("\"batch-api\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"status-discard\": 0"), std::string::npos);
}

TEST(LintRulesTest, EmptyFindingsJsonStillParses) {
  TreeAnalysis analysis;
  analysis.num_files_scanned = 177;
  const std::string json = FindingsJson(analysis);
  EXPECT_TRUE(bbv::testing::JsonParses(json)) << json;
  EXPECT_NE(json.find("\"num_findings\": 0"), std::string::npos);
}

TEST(LintRulesTest, LiveRepositoryIsClean) {
  const std::filesystem::path repo_root =
      std::filesystem::path(BBV_TEST_SOURCE_DIR).parent_path();
  const auto findings = LintTree(repo_root.string());
  for (const LintFinding& finding : findings) {
    ADD_FAILURE() << FormatFinding(finding);
  }
}

}  // namespace
}  // namespace bbv::tools
