#ifndef BBV_TOOLS_LINT_RULES_H_
#define BBV_TOOLS_LINT_RULES_H_

#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace bbv::tools {

/// One violation of a repo-specific invariant.
struct LintFinding {
  std::string file;     ///< Path relative to the repo root.
  size_t line = 0;      ///< 1-based line number.
  std::string rule;     ///< Rule id, e.g. "include-guard" or "det-iter".
  std::string message;  ///< Human-readable explanation.
};

/// Repo-specific invariants that clang-tidy cannot express, enforced on a
/// real token stream (tools/cpp_lexer.h): comments, string/char literals and
/// raw strings never trigger rules, and structural rules (statement shape,
/// loop nesting, include graph) see tokens with provenance. Rule ids:
///
///  - "include-guard": every header under src/, tools/, bench/ and tests/
///    carries the path-derived guard BBV_<PATH>_H_ (src/ prefix stripped),
///    with a matching #define as the next directive.
///  - "rng": no std::rand/srand, time(nullptr)/time(0), std::mt19937 or
///    std::random_device outside src/common/rng.* — all randomness flows
///    through explicitly seeded common::Rng so reproductions stay
///    deterministic.
///  - "float-eq": no ==/!= against floating-point literals in src/stats and
///    src/ml, where silent precision loss corrupts statistics.
///  - "stdout": no std::cout in library code under src/ — libraries report
///    through Status or return values; printing belongs to tools/examples.
///  - "assert": no C assert() or <cassert> include — invariants use
///    BBV_CHECK/BBV_DCHECK, which log file:line and streamed context.
///  - "thread": no std::thread/std::jthread/std::async and no <thread> or
///    <future> include outside src/common/parallel.* — all concurrency flows
///    through common::ParallelFor/ParallelMap, whose pre-forked-Rng contract
///    keeps results bit-identical at every thread count.
///  - "timing": no ad-hoc wall-clock reads (<chrono>, clock_gettime,
///    gettimeofday) outside src/common/telemetry.* and bench/bench_util.* —
///    timing is observation-only and lives in the telemetry subsystem.
///  - "raw-io": no binary stream read/write/readsome/sgetn/sputn member
///    call outside src/common/serialize.cc — every archive byte moves
///    through common::BinaryWriter/BinaryReader, which check bounds and
///    length prefixes in one place.
///  - "det-iter": result-affecting library code (src/) must not name or
///    traverse std::unordered_map/std::unordered_set. Hash iteration order
///    is unspecified and silently leaks into float accumulation order,
///    feature indices and serialized bytes, breaking the determinism gate.
///    Both the type mention and any range-for / .begin() traversal of a
///    variable declared unordered are flagged. Pointer-keyed std::map /
///    std::set (raw or smart-pointer keys, including inside compound keys)
///    are flagged too: they are ordered, but over pointer values, which
///    follow allocation layout and change run to run.
///  - "layering": #include edges between src/ modules must follow the
///    documented DAG common -> {stats, linalg, data} -> {ml, errors,
///    featurize, datasets} -> {core, serve, automl}, plus four audited
///    same-layer edges (stats->linalg, ml->featurize, errors->ml,
///    serve->core). Any other edge is an error; see ModuleGraphDot for the
///    Graphviz export of the observed graph.
///  - "status-discard": a call to a Status/Result-returning function used as
///    a bare expression statement drops the error. Backed by [[nodiscard]]
///    on the types; the lint additionally catches files compiled without
///    warnings enabled (fixtures, generated code) and names the callee.
///    Matching is name-based: a name declared with both a Status and a void
///    return type anywhere in the tree is ambiguous and skipped (the
///    compiler's [[nodiscard]] warning still covers those call sites).
///  - "batch-api": PredictRow (the legacy RegressionTree node walk) inside a
///    loop body re-opens the per-row inference path; batch prediction must
///    flow through the ml::ForestKernel-backed surfaces
///    (RandomForestRegressor::PredictInto,
///    GradientBoostedTrees::PredictProbaInto).
///    ParallelFor/ParallelMap callables count as loop bodies (the callable
///    runs once per item), so per-row calls hidden in a parallel lambda —
///    including in bench/ harnesses — are flagged too; deliberate scalar
///    baselines carry an allow(batch-api) suppression. The same contract
///    holds one layer up: scalar EstimateScoreFromStatistics inside a loop
///    is flagged — batched interval estimation flows through the sanctioned
///    EstimateScoresFromStatistics(matrix, span<ScoreEstimate>) surface,
///    which is never flagged.
///
/// A finding on line N is suppressed when line N or line N-1 contains the
/// comment marker "bbv-lint: allow(<rule>)"; every suppression must carry a
/// written justification after the closing parenthesis.
///
/// `path_from_root` selects the applicable rules (forward slashes); the file
/// does not need to exist on disk.

/// Facts the cross-file rules need: collected over the whole tree by
/// AnalyzeTree (pass 1), or from the file itself in single-file linting.
struct AnalysisContext {
  /// Function names declared with a Status / Result<...> return type.
  std::set<std::string> status_functions;
  /// Function names declared with a void return type. A name in both sets is
  /// ambiguous (e.g. Matrix::AppendRows vs DataFrame::AppendRows) and the
  /// name-based status-discard rule skips it — [[nodiscard]] plus -Werror
  /// still covers those call sites at compile time.
  std::set<std::string> void_functions;
  /// Variable/member names declared with an unordered container type.
  std::set<std::string> unordered_variables;
};

/// Harvests AnalysisContext facts from one file into `context`.
void CollectContext(const std::string& path_from_root,
                    const std::string& contents, AnalysisContext* context);

/// One observed module-dependency edge in the src/ include graph.
struct ModuleEdge {
  std::string from;
  std::string to;
  size_t count = 0;    ///< Number of #include directives inducing the edge.
  bool allowed = true; ///< Whether the documented DAG permits the edge.
};

/// Full-tree analysis result: findings plus the observed module graph.
struct TreeAnalysis {
  std::vector<LintFinding> findings;
  size_t num_files_scanned = 0;
  std::vector<ModuleEdge> edges;  ///< Sorted by (from, to).
};

/// Lints one file with facts local to that file (plus built-in knowledge).
std::vector<LintFinding> LintFileContents(const std::string& path_from_root,
                                          const std::string& contents);

/// Lints one file against externally collected facts (tree-wide passes).
std::vector<LintFinding> LintFileContentsWithContext(
    const std::string& path_from_root, const std::string& contents,
    const AnalysisContext& context);

/// Reads and lints one file on disk. `path_from_root` is the rule-selection
/// path; `disk_path` is where to read the bytes.
std::vector<LintFinding> LintFile(const std::string& path_from_root,
                                  const std::string& disk_path);

/// Walks src/, tools/, bench/ and tests/ under `repo_root` (skipping
/// tests/lint_fixtures, which are deliberately bad) and lints every .h/.cc
/// file in two passes: pass 1 collects the AnalysisContext and the module
/// include graph, pass 2 applies every rule. Findings are sorted by path
/// then line.
TreeAnalysis AnalyzeTree(const std::string& repo_root);

/// Findings-only wrapper around AnalyzeTree. When `num_files_scanned` is
/// non-null it receives the number of files examined, so callers can
/// distinguish "clean" from "looked at nothing" (wrong root, empty tree).
std::vector<LintFinding> LintTree(const std::string& repo_root,
                                  size_t* num_files_scanned = nullptr);

/// Layer of a src/ module in the documented DAG (0 = common), or -1 for an
/// unknown module name.
int ModuleLayer(const std::string& module);

/// True when the documented DAG allows `from` to include headers of `to`.
bool IsAllowedModuleEdge(const std::string& from, const std::string& to);

/// Graphviz rendering of the observed module graph: one box per module,
/// layers as ranks, one edge per ModuleEdge labeled with its include count;
/// edges violating the DAG are drawn red and bold.
std::string ModuleGraphDot(const std::vector<ModuleEdge>& edges);

/// A module cycle in `edges` as a path m0 -> m1 -> ... -> m0, or an empty
/// vector when the graph is acyclic. Self-edges (module including itself)
/// are not cycles.
std::vector<std::string> FindModuleCycle(const std::vector<ModuleEdge>& edges);

/// Machine-readable export following the BENCH_*.json conventions of
/// bench/bench_util: one top-level object, two-space indent, one line per
/// finding, plus a per-rule count object so CI can diff finding counts.
std::string FindingsJson(const TreeAnalysis& analysis);

/// "path:line: [rule] message" — the canonical one-line rendering.
std::string FormatFinding(const LintFinding& finding);

}  // namespace bbv::tools

#endif  // BBV_TOOLS_LINT_RULES_H_
