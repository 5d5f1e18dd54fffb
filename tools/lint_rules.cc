#include "tools/lint_rules.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "tools/cpp_lexer.h"

namespace bbv::tools {

namespace {

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool IsIdent(const Token& token, const char* text) {
  return token.kind == TokenKind::kIdentifier && token.text == text;
}

bool IsPunct(const Token& token, const char* text) {
  return token.kind == TokenKind::kPunct && token.text == text;
}

/// True when the pp-number token spells a floating-point literal: it has a
/// fraction dot or a decimal exponent (hex literals are never flagged).
bool IsFloatingLiteral(const Token& token) {
  if (token.kind != TokenKind::kNumber) return false;
  const std::string& text = token.text;
  if (StartsWith(text, "0x") || StartsWith(text, "0X")) return false;
  if (text.find('.') != std::string::npos) return true;
  return text.find('e') != std::string::npos ||
         text.find('E') != std::string::npos;
}

/// Index one past a balanced <...> template argument list starting at
/// `open` (which must be a '<'), treating '>>' as two closers. Returns
/// `open` when tokens[open] is not '<' (no template arguments present).
size_t SkipTemplateArgs(const std::vector<Token>& tokens, size_t open) {
  if (open >= tokens.size() || !IsPunct(tokens[open], "<")) return open;
  int depth = 0;
  for (size_t i = open; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.kind != TokenKind::kPunct) continue;
    if (token.text == "<") ++depth;
    if (token.text == ">") --depth;
    if (token.text == ">>") depth -= 2;
    if (depth <= 0) return i + 1;
  }
  return tokens.size();
}

/// Index of the ')' matching the '(' at `open`, or tokens.size().
size_t FindMatchingParen(const std::vector<Token>& tokens, size_t open) {
  int depth = 0;
  for (size_t i = open; i < tokens.size(); ++i) {
    if (IsPunct(tokens[i], "(")) ++depth;
    if (IsPunct(tokens[i], ")")) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return tokens.size();
}

std::string ExpectedGuard(const std::string& path_from_root) {
  std::string trimmed = path_from_root;
  if (StartsWith(trimmed, "src/")) trimmed = trimmed.substr(4);
  std::string guard = "BBV_";
  for (char c : trimmed) {
    if (c == '/' || c == '.' || c == '-') {
      guard += '_';
    } else {
      guard += static_cast<char>(
          std::toupper(static_cast<unsigned char>(c)));
    }
  }
  guard += '_';
  return guard;
}

void Report(const std::string& path, const LexedFile& lexed, size_t line,
            const std::string& rule, std::string message,
            std::vector<LintFinding>& findings) {
  if (IsSuppressed(lexed, line, rule)) return;
  findings.push_back({path, line, rule, std::move(message)});
}

// ---------------------------------------------------------------------------
// Ported rules (previously regex-based, now token-exact)
// ---------------------------------------------------------------------------

void CheckIncludeGuard(const std::string& path, const LexedFile& lexed,
                       std::vector<LintFinding>& findings) {
  const std::string expected = ExpectedGuard(path);
  const std::string rule = "include-guard";
  const std::vector<Token>& tokens = lexed.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokenKind::kDirective ||
        tokens[i].text != "#ifndef") {
      continue;
    }
    const std::string guard =
        i + 1 < tokens.size() ? tokens[i + 1].text : "<missing>";
    if (guard != expected) {
      Report(path, lexed, tokens[i].line, rule,
             "include guard '" + guard + "' should be '" + expected + "'",
             findings);
      return;
    }
    // The matching #define must be the next directive.
    for (size_t j = i + 2; j < tokens.size(); ++j) {
      if (tokens[j].kind != TokenKind::kDirective) continue;
      if (tokens[j].text == "#define" && j + 1 < tokens.size() &&
          tokens[j + 1].text == expected) {
        return;
      }
      break;
    }
    Report(path, lexed, tokens[i].line, rule,
           "#ifndef " + expected + " is not followed by '#define " + expected +
               "'",
           findings);
    return;
  }
  Report(path, lexed, 1, rule, "header is missing include guard " + expected,
         findings);
}

bool IncludesHeader(const Token& token, const char* header) {
  return token.kind == TokenKind::kHeaderName && token.text == header;
}

void CheckBannedRandomness(const std::string& path, const LexedFile& lexed,
                           std::vector<LintFinding>& findings) {
  const std::string rule = "rng";
  const std::vector<Token>& tokens = lexed.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    const bool next_is_call =
        i + 1 < tokens.size() && IsPunct(tokens[i + 1], "(");
    if (IsIdent(token, "mt19937")) {
      Report(path, lexed, token.line, rule,
             "banned 'mt19937': use common::Rng instead of std::mt19937",
             findings);
    } else if (IsIdent(token, "mt19937_64")) {
      Report(path, lexed, token.line, rule,
             "banned 'mt19937_64': use common::Rng instead of "
             "std::mt19937_64",
             findings);
    } else if (IsIdent(token, "random_device")) {
      Report(path, lexed, token.line, rule,
             "banned 'random_device': nondeterministic entropy breaks "
             "reproducibility; seed common::Rng",
             findings);
    } else if ((IsIdent(token, "rand") || IsIdent(token, "srand")) &&
               next_is_call) {
      Report(path, lexed, token.line, rule,
             "banned '" + token.text +
                 "': use common::Rng (seeded, reproducible)",
             findings);
    } else if (IsIdent(token, "time") && next_is_call &&
               i + 3 < tokens.size() && IsPunct(tokens[i + 3], ")") &&
               (tokens[i + 2].text == "nullptr" ||
                tokens[i + 2].text == "NULL" || tokens[i + 2].text == "0")) {
      Report(path, lexed, token.line, rule,
             "banned wall-clock seed time(...); use an explicit common::Rng "
             "seed",
             findings);
    }
  }
}

void CheckFloatEquality(const std::string& path, const LexedFile& lexed,
                        std::vector<LintFinding>& findings) {
  const std::string rule = "float-eq";
  const std::vector<Token>& tokens = lexed.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!IsPunct(tokens[i], "==") && !IsPunct(tokens[i], "!=")) continue;
    const bool lit_before = i > 0 && IsFloatingLiteral(tokens[i - 1]);
    // Right side may carry a sign: == -1.0 / != +0.5.
    size_t right = i + 1;
    if (right < tokens.size() &&
        (IsPunct(tokens[right], "-") || IsPunct(tokens[right], "+"))) {
      ++right;
    }
    const bool lit_after =
        right < tokens.size() && IsFloatingLiteral(tokens[right]);
    if (lit_before || lit_after) {
      Report(path, lexed, tokens[i].line, rule,
             "==/!= against a floating-point literal; compare with a "
             "tolerance or restructure the guard",
             findings);
    }
  }
}

void CheckNoStdout(const std::string& path, const LexedFile& lexed,
                   std::vector<LintFinding>& findings) {
  const std::vector<Token>& tokens = lexed.tokens;
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (IsIdent(tokens[i], "std") && IsPunct(tokens[i + 1], "::") &&
        IsIdent(tokens[i + 2], "cout")) {
      Report(path, lexed, tokens[i].line, "stdout",
             "std::cout in library code; report through Status or return "
             "values",
             findings);
    }
  }
}

void CheckNoAssert(const std::string& path, const LexedFile& lexed,
                   std::vector<LintFinding>& findings) {
  const std::string rule = "assert";
  const std::vector<Token>& tokens = lexed.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (IncludesHeader(token, "<cassert>") ||
        IncludesHeader(token, "<assert.h>") ||
        (IsIdent(token, "assert") && i + 1 < tokens.size() &&
         IsPunct(tokens[i + 1], "("))) {
      Report(path, lexed, token.line, rule,
             "C assert(); use BBV_CHECK/BBV_DCHECK for file:line context and "
             "streamed diagnostics",
             findings);
    }
  }
}

void CheckNoRawThreads(const std::string& path, const LexedFile& lexed,
                       std::vector<LintFinding>& findings) {
  const std::string rule = "thread";
  const std::vector<Token>& tokens = lexed.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    const bool std_member =
        token.kind == TokenKind::kIdentifier &&
        (token.text == "thread" || token.text == "jthread" ||
         token.text == "async") &&
        i >= 2 && IsPunct(tokens[i - 1], "::") && IsIdent(tokens[i - 2], "std");
    if (IncludesHeader(token, "<thread>") ||
        IncludesHeader(token, "<future>") || std_member) {
      Report(path, lexed, token.line, rule,
             "raw thread primitive outside src/common/parallel; route "
             "concurrency through common::ParallelFor/ParallelMap so the "
             "determinism contract holds",
             findings);
    }
  }
}

void CheckNoAdHocTiming(const std::string& path, const LexedFile& lexed,
                        std::vector<LintFinding>& findings) {
  const std::string rule = "timing";
  const std::vector<Token>& tokens = lexed.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    const bool std_chrono =
        IsIdent(token, "chrono") && i >= 2 && IsPunct(tokens[i - 1], "::") &&
        IsIdent(tokens[i - 2], "std");
    const bool timing_call =
        (IsIdent(token, "clock_gettime") || IsIdent(token, "gettimeofday")) &&
        i + 1 < tokens.size() && IsPunct(tokens[i + 1], "(");
    if (IncludesHeader(token, "<chrono>") || IncludesHeader(token, "<ctime>") ||
        IncludesHeader(token, "<sys/time.h>") || std_chrono || timing_call) {
      Report(path, lexed, token.line, rule,
             "ad-hoc timing outside telemetry/bench_util; use "
             "common::telemetry::TraceSpan (library code) or bench::WallTimer "
             "(benchmarks)",
             findings);
    }
  }
}

void CheckNoRawStreamIo(const std::string& path, const LexedFile& lexed,
                        std::vector<LintFinding>& findings) {
  const std::string rule = "raw-io";
  const std::vector<Token>& tokens = lexed.tokens;
  for (size_t i = 1; i + 1 < tokens.size(); ++i) {
    const Token& token = tokens[i];
    const bool binary_call =
        (IsIdent(token, "read") || IsIdent(token, "write") ||
         IsIdent(token, "readsome") || IsIdent(token, "sgetn") ||
         IsIdent(token, "sputn")) &&
        (IsPunct(tokens[i - 1], ".") || IsPunct(tokens[i - 1], "->")) &&
        IsPunct(tokens[i + 1], "(");
    if (binary_call) {
      Report(path, lexed, token.line, rule,
             "binary stream '" + token.text +
                 "' outside src/common/serialize.cc; move bytes through "
                 "common::BinaryWriter/BinaryReader (WriteTo, "
                 "LoadFromStream), the one bounds-checked archive",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// det-iter: hash-ordered containers in result-affecting code
// ---------------------------------------------------------------------------

bool IsUnorderedTypeName(const Token& token) {
  return token.kind == TokenKind::kIdentifier &&
         (token.text == "unordered_map" || token.text == "unordered_set" ||
          token.text == "unordered_multimap" ||
          token.text == "unordered_multiset");
}

/// Records variable/member names declared with an unordered container type:
/// `std::unordered_map<K, V> name` (optionally through const/&/* or a
/// trailing reference) — the traversal check then recognizes loops over
/// those names anywhere in the tree.
void CollectUnorderedVariables(const LexedFile& lexed,
                               AnalysisContext* context) {
  const std::vector<Token>& tokens = lexed.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (!IsUnorderedTypeName(tokens[i]) || tokens[i].in_directive) continue;
    size_t j = SkipTemplateArgs(tokens, i + 1);
    while (j < tokens.size() &&
           (IsPunct(tokens[j], "&") || IsPunct(tokens[j], "*") ||
            IsPunct(tokens[j], "&&") || IsIdent(tokens[j], "const"))) {
      ++j;
    }
    if (j < tokens.size() && tokens[j].kind == TokenKind::kIdentifier) {
      context->unordered_variables.insert(tokens[j].text);
    }
  }
}

void CheckDeterministicIteration(const std::string& path,
                                 const LexedFile& lexed,
                                 const AnalysisContext& context,
                                 std::vector<LintFinding>& findings) {
  const std::string rule = "det-iter";
  const std::vector<Token>& tokens = lexed.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    // (a) Naming the type at all in result-affecting code is already a
    // hazard: members escape through structured bindings and aliases that a
    // token-level traversal check cannot follow.
    if (IsUnorderedTypeName(token) && !token.in_directive) {
      Report(path, lexed, token.line, rule,
             "hash-ordered container '" + token.text +
                 "' in result-affecting code: iteration order is unspecified "
                 "and leaks into accumulation order, feature indices and "
                 "serialized bytes; use std::map/std::set or a sorted vector "
                 "(or suppress with a justification that it is never "
                 "traversed)",
             findings);
    }
    // (b) Range-for whose range expression mentions a variable declared
    // with an unordered type anywhere in the tree.
    if (IsIdent(token, "for") && !token.in_directive &&
        i + 1 < tokens.size() && IsPunct(tokens[i + 1], "(")) {
      const size_t close = FindMatchingParen(tokens, i + 1);
      for (size_t j = i + 2; j < close; ++j) {
        if (!IsPunct(tokens[j], ":") ||
            tokens[j].paren_depth != tokens[i + 1].paren_depth + 1) {
          continue;
        }
        for (size_t k = j + 1; k < close; ++k) {
          if (tokens[k].kind == TokenKind::kIdentifier &&
              context.unordered_variables.count(tokens[k].text) > 0) {
            Report(path, lexed, token.line, rule,
                   "range-for over hash-ordered container '" + tokens[k].text +
                       "': traversal order is unspecified; iterate a sorted "
                       "view instead",
                   findings);
            break;
          }
        }
        break;
      }
    }
    // (c) Pointer-keyed std::map/std::set: the container is ordered, but
    // over pointer values, which follow allocation layout (ASLR, allocation
    // sequence) and change run to run — ordered is not the same as
    // deterministic. Smart-pointer keys compare addresses too. Only the key
    // argument is scanned: pointers on the mapped-value side are harmless.
    if (token.kind == TokenKind::kIdentifier && !token.in_directive &&
        (token.text == "map" || token.text == "set" ||
         token.text == "multimap" || token.text == "multiset") &&
        i >= 2 && IsPunct(tokens[i - 1], "::") &&
        IsIdent(tokens[i - 2], "std") && i + 1 < tokens.size() &&
        IsPunct(tokens[i + 1], "<")) {
      bool pointer_key = false;
      int depth = 0;
      for (size_t j = i + 1; j < tokens.size(); ++j) {
        const Token& argument = tokens[j];
        if (argument.kind == TokenKind::kIdentifier &&
            (argument.text == "shared_ptr" || argument.text == "unique_ptr" ||
             argument.text == "weak_ptr")) {
          pointer_key = true;
        }
        if (argument.kind != TokenKind::kPunct) continue;
        if (argument.text == "<") {
          ++depth;
        } else if (argument.text == ">") {
          if (--depth == 0) break;
        } else if (argument.text == ">>") {
          depth -= 2;
          if (depth <= 0) break;
        } else if (argument.text == "," && depth == 1) {
          break;
        } else if (argument.text == "*") {
          pointer_key = true;
        }
      }
      if (pointer_key) {
        Report(path, lexed, token.line, rule,
               "pointer-keyed 'std::" + token.text +
                   "': comparison is over pointer values, so iteration order "
                   "follows allocation layout and changes run to run; key by "
                   "a stable id (name, index) instead",
               findings);
      }
    }
    // (d) Iterator traversal: name.begin() / name.cbegin() and friends.
    if (token.kind == TokenKind::kIdentifier &&
        context.unordered_variables.count(token.text) > 0 &&
        i + 3 < tokens.size() &&
        (IsPunct(tokens[i + 1], ".") || IsPunct(tokens[i + 1], "->")) &&
        (IsIdent(tokens[i + 2], "begin") || IsIdent(tokens[i + 2], "cbegin") ||
         IsIdent(tokens[i + 2], "rbegin") ||
         IsIdent(tokens[i + 2], "crbegin")) &&
        IsPunct(tokens[i + 3], "(")) {
      Report(path, lexed, token.line, rule,
             "iterator traversal of hash-ordered container '" + token.text +
                 "': traversal order is unspecified; iterate a sorted view "
                 "instead",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// layering: the module DAG, from #include directives
// ---------------------------------------------------------------------------

struct ModuleLayerEntry {
  const char* name;
  int layer;
};

constexpr ModuleLayerEntry kModuleLayers[] = {
    {"common", 0},  {"stats", 1},     {"linalg", 1},   {"data", 1},
    {"ml", 2},      {"errors", 2},    {"featurize", 2}, {"datasets", 2},
    {"core", 3},    {"serve", 3},     {"automl", 3},
};

/// Audited same-layer dependencies; every entry needs a design reason (see
/// DESIGN.md "Module layering").
constexpr std::pair<const char*, const char*> kIntraLayerEdges[] = {
    {"stats", "linalg"},   // quantile sketch surfaces feature matrices
    {"ml", "featurize"},   // BlackBox bundles its featurization pipeline
    {"errors", "ml"},      // entropy-based corruption reads model confidence
    {"serve", "core"},     // streaming scorer wraps PerformancePredictor
};

std::string SourceModule(const std::string& path_from_root) {
  if (!StartsWith(path_from_root, "src/")) return "";
  const size_t slash = path_from_root.find('/', 4);
  if (slash == std::string::npos) return "";
  return path_from_root.substr(4, slash - 4);
}

/// Module named by a quoted project include ("module/header.h"), or "".
std::string IncludeTargetModule(const Token& token) {
  if (token.kind != TokenKind::kHeaderName || token.text.size() < 2 ||
      token.text.front() != '"') {
    return "";
  }
  const std::string inner = token.text.substr(1, token.text.size() - 2);
  const size_t slash = inner.find('/');
  if (slash == std::string::npos) return "";
  const std::string module = inner.substr(0, slash);
  return ModuleLayer(module) >= 0 ? module : "";
}

void CheckLayering(const std::string& path, const LexedFile& lexed,
                   std::vector<LintFinding>& findings) {
  const std::string from = SourceModule(path);
  if (from.empty() || ModuleLayer(from) < 0) return;
  for (const Token& token : lexed.tokens) {
    const std::string to = IncludeTargetModule(token);
    if (to.empty()) continue;
    if (!IsAllowedModuleEdge(from, to)) {
      Report(path, lexed, token.line, "layering",
             "include edge " + from + " -> " + to +
                 " violates the module DAG common -> {stats,linalg,data} -> "
                 "{ml,errors,featurize,datasets} -> {core,serve,automl}; "
                 "invert the dependency or move the shared code down a layer",
             findings);
    }
  }
}

// ---------------------------------------------------------------------------
// status-discard: Status/Result used as a bare expression statement
// ---------------------------------------------------------------------------

/// Records function names declared with a Status or Result<...> return
/// type: `Status Name(` / `Result<T> Name(`, possibly namespace-qualified.
/// Purely name-based (no overload resolution) — a false positive needs a
/// suppression, a false negative is still caught by [[nodiscard]].
void CollectStatusFunctions(const LexedFile& lexed, AnalysisContext* context) {
  const std::vector<Token>& tokens = lexed.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].in_directive) continue;
    size_t name_index = 0;
    bool is_void = false;
    if (IsIdent(tokens[i], "Status")) {
      name_index = i + 1;
    } else if (IsIdent(tokens[i], "Result") && i + 1 < tokens.size() &&
               IsPunct(tokens[i + 1], "<")) {
      name_index = SkipTemplateArgs(tokens, i + 1);
    } else if (IsIdent(tokens[i], "void")) {
      name_index = i + 1;
      is_void = true;
    } else {
      continue;
    }
    if (name_index + 1 >= tokens.size()) continue;
    if (tokens[name_index].kind != TokenKind::kIdentifier) continue;
    if (!IsPunct(tokens[name_index + 1], "(")) continue;
    // `Status::OK(...)`-style qualified member access is a call, not a
    // declaration; require the type name to not be a qualifier.
    if (name_index == i + 1 && IsPunct(tokens[i + 1], "::")) continue;
    if (is_void) {
      context->void_functions.insert(tokens[name_index].text);
    } else {
      context->status_functions.insert(tokens[name_index].text);
    }
  }
}

void CheckStatusDiscard(const std::string& path, const LexedFile& lexed,
                        const AnalysisContext& context,
                        std::vector<LintFinding>& findings) {
  const std::string rule = "status-discard";
  const std::vector<Token>& tokens = lexed.tokens;
  bool at_statement_start = true;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].in_directive) continue;
    const bool starts_here = at_statement_start;
    at_statement_start = tokens[i].kind == TokenKind::kPunct &&
                         (tokens[i].text == ";" || tokens[i].text == "{" ||
                          tokens[i].text == "}");
    if (!starts_here || tokens[i].kind != TokenKind::kIdentifier) continue;
    // Match a pure call statement: ident ((::|.|->) ident)* ( ... ) ;
    size_t j = i;
    std::string callee = tokens[j].text;
    while (j + 2 < tokens.size() &&
           (IsPunct(tokens[j + 1], "::") || IsPunct(tokens[j + 1], ".") ||
            IsPunct(tokens[j + 1], "->")) &&
           tokens[j + 2].kind == TokenKind::kIdentifier) {
      j += 2;
      callee = tokens[j].text;
    }
    if (j + 1 >= tokens.size() || !IsPunct(tokens[j + 1], "(")) continue;
    const size_t close = FindMatchingParen(tokens, j + 1);
    if (close + 1 >= tokens.size() || !IsPunct(tokens[close + 1], ";")) {
      continue;
    }
    if (context.status_functions.count(callee) == 0) continue;
    // Names also declared void somewhere are ambiguous; the compiler's
    // [[nodiscard]] warning covers those call sites instead.
    if (context.void_functions.count(callee) > 0) continue;
    Report(path, lexed, tokens[i].line, rule,
           "result of Status/Result-returning '" + callee +
               "' is discarded; check it, propagate with BBV_RETURN_NOT_OK, "
               "or suppress with a justification for the deliberate drop",
           findings);
  }
}

// ---------------------------------------------------------------------------
// batch-api: per-row prediction inside loops
// ---------------------------------------------------------------------------

void CheckBatchApi(const std::string& path, const LexedFile& lexed,
                   std::vector<LintFinding>& findings) {
  const std::string rule = "batch-api";
  const std::vector<Token>& tokens = lexed.tokens;
  struct LoopFrame {
    bool braced = false;
    int brace_depth = 0;  ///< Depth of the body brace / of the statement.
    /// ParallelFor/ParallelMap call frame: the body callable runs once per
    /// item, so it is a loop body even without a loop keyword. Call frames
    /// expire at `close` (the call's matching ')') instead of via the
    /// brace/semicolon handlers below, which cannot see them: inside the
    /// argument list paren_depth is at least 1.
    bool call = false;
    size_t close = 0;
  };
  std::vector<LoopFrame> loops;
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& token = tokens[i];
    if (token.in_directive) continue;
    // Expire finished parallel-call frames first; everything above the
    // lowest expired frame was pushed inside that call's argument list
    // (single-statement loop frames in a lambda never hit the
    // paren_depth == 0 semicolon handler, so they expire here too).
    for (size_t frame = 0; frame < loops.size(); ++frame) {
      if (loops[frame].call && i > loops[frame].close) {
        loops.resize(frame);
        break;
      }
    }
    if (IsIdent(token, "ParallelFor") || IsIdent(token, "ParallelMap")) {
      size_t open = i + 1;
      if (open < tokens.size() && IsPunct(tokens[open], "<")) {
        open = SkipTemplateArgs(tokens, open);
      }
      if (open < tokens.size() && IsPunct(tokens[open], "(")) {
        loops.push_back({false, token.brace_depth, true,
                         FindMatchingParen(tokens, open)});
      }
      continue;
    }
    const bool loop_keyword = (IsIdent(token, "for") ||
                               IsIdent(token, "while")) &&
                              i + 1 < tokens.size() &&
                              IsPunct(tokens[i + 1], "(");
    if (loop_keyword || IsIdent(token, "do")) {
      size_t body = i + 1;
      if (loop_keyword) body = FindMatchingParen(tokens, i + 1) + 1;
      if (body < tokens.size() && IsPunct(tokens[body], "{")) {
        loops.push_back({true, tokens[body].brace_depth});
      } else if (body < tokens.size()) {
        loops.push_back({false, token.brace_depth});
      }
      continue;
    }
    if (IsPunct(token, "}")) {
      while (!loops.empty() && loops.back().braced &&
             loops.back().brace_depth == token.brace_depth) {
        loops.pop_back();
        // A brace body can itself be the single statement of an outer loop.
        while (!loops.empty() && !loops.back().braced &&
               loops.back().brace_depth == token.brace_depth) {
          loops.pop_back();
        }
      }
      continue;
    }
    if (IsPunct(token, ";") && token.paren_depth == 0) {
      while (!loops.empty() && !loops.back().braced &&
             loops.back().brace_depth == token.brace_depth) {
        loops.pop_back();
      }
      continue;
    }
    if (!loops.empty() && IsIdent(token, "PredictRow") &&
        i + 1 < tokens.size() && IsPunct(tokens[i + 1], "(")) {
      Report(path, lexed, token.line, rule,
             "'" + token.text +
                 "' inside a loop re-opens the per-row inference path; batch "
                 "through the ForestKernel-backed PredictInto/"
                 "PredictProbaInto (the scalar walk is reserved for kernel "
                 "validation)",
             findings);
    }
    // Same contract one layer up: the scalar estimate surface inside a loop
    // bypasses the sanctioned batch interval surface. The plural
    // EstimateScoresFromStatistics(matrix, span) is a different identifier
    // and never fires.
    if (!loops.empty() && IsIdent(token, "EstimateScoreFromStatistics") &&
        i + 1 < tokens.size() && IsPunct(tokens[i + 1], "(")) {
      Report(path, lexed, token.line, rule,
             "scalar 'EstimateScoreFromStatistics' inside a loop; batch "
             "through EstimateScoresFromStatistics(matrix, "
             "span<ScoreEstimate>) — deliberate scalar baselines carry an "
             "allow(batch-api) suppression",
             findings);
    }
  }
}

/// Applies every rule applicable to `path`.
std::vector<LintFinding> LintLexed(const std::string& path,
                                   const LexedFile& lexed,
                                   const AnalysisContext& context) {
  std::vector<LintFinding> findings;
  if (EndsWith(path, ".h")) {
    CheckIncludeGuard(path, lexed, findings);
  }
  const bool is_rng_home = path == "src/common/rng.h" ||
                           path == "src/common/rng.cc";
  if (!is_rng_home) {
    CheckBannedRandomness(path, lexed, findings);
  }
  const bool is_parallel_home = path == "src/common/parallel.h" ||
                                path == "src/common/parallel.cc";
  if (!is_parallel_home) {
    CheckNoRawThreads(path, lexed, findings);
  }
  const bool is_timing_home = path == "src/common/telemetry.h" ||
                              path == "src/common/telemetry.cc" ||
                              path == "bench/bench_util.h" ||
                              path == "bench/bench_util.cc";
  if (!is_timing_home) {
    CheckNoAdHocTiming(path, lexed, findings);
  }
  if (path != "src/common/serialize.cc") {
    CheckNoRawStreamIo(path, lexed, findings);
  }
  if (StartsWith(path, "src/stats/") || StartsWith(path, "src/ml/")) {
    CheckFloatEquality(path, lexed, findings);
  }
  if (StartsWith(path, "src/")) {
    CheckNoStdout(path, lexed, findings);
    CheckDeterministicIteration(path, lexed, context, findings);
    CheckLayering(path, lexed, findings);
  }
  CheckNoAssert(path, lexed, findings);
  CheckStatusDiscard(path, lexed, context, findings);
  CheckBatchApi(path, lexed, findings);
  return findings;
}

void CollectEdges(const std::string& path, const LexedFile& lexed,
                  std::map<std::pair<std::string, std::string>, size_t>*
                      edge_counts) {
  const std::string from = SourceModule(path);
  if (from.empty() || ModuleLayer(from) < 0) return;
  for (const Token& token : lexed.tokens) {
    const std::string to = IncludeTargetModule(token);
    if (to.empty()) continue;
    ++(*edge_counts)[{from, to}];
  }
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

const char* const kAllRuleIds[] = {
    "assert",       "batch-api", "det-iter",       "float-eq",
    "include-guard", "layering",  "raw-io",         "rng",
    "status-discard", "stdout",   "thread",         "timing",
};

}  // namespace

void CollectContext(const std::string& path_from_root,
                    const std::string& contents, AnalysisContext* context) {
  const LexedFile lexed = Lex(contents);
  CollectStatusFunctions(lexed, context);
  // Only library code feeds the det-iter traversal set: fixture and test
  // helpers may reuse names without making src/ loops nondeterministic.
  if (StartsWith(path_from_root, "src/")) {
    CollectUnorderedVariables(lexed, context);
  }
}

std::vector<LintFinding> LintFileContents(const std::string& path_from_root,
                                          const std::string& contents) {
  AnalysisContext context;
  const LexedFile lexed = Lex(contents);
  CollectStatusFunctions(lexed, &context);
  CollectUnorderedVariables(lexed, &context);
  return LintLexed(path_from_root, lexed, context);
}

std::vector<LintFinding> LintFileContentsWithContext(
    const std::string& path_from_root, const std::string& contents,
    const AnalysisContext& context) {
  return LintLexed(path_from_root, Lex(contents), context);
}

std::vector<LintFinding> LintFile(const std::string& path_from_root,
                                  const std::string& disk_path) {
  std::ifstream input(disk_path, std::ios::binary);
  if (!input) {
    return {{path_from_root, 0, "io", "could not read file"}};
  }
  std::ostringstream buffer;
  buffer << input.rdbuf();
  return LintFileContents(path_from_root, buffer.str());
}

TreeAnalysis AnalyzeTree(const std::string& repo_root) {
  namespace fs = std::filesystem;
  TreeAnalysis analysis;
  const fs::path root(repo_root);
  std::vector<std::pair<std::string, std::string>> files;  // path, contents
  for (const char* subdir : {"src", "tools", "bench", "tests"}) {
    const fs::path base = root / subdir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string extension = entry.path().extension().string();
      if (extension != ".h" && extension != ".cc") continue;
      const std::string relative =
          fs::relative(entry.path(), root).generic_string();
      // Fixtures are deliberately violating; they are linted one-by-one in
      // tools_lint_test, never as part of the tree gate.
      if (StartsWith(relative, "tests/lint_fixtures/")) continue;
      std::ifstream input(entry.path(), std::ios::binary);
      if (!input) {
        analysis.findings.push_back(
            {relative, 0, "io", "could not read file"});
        continue;
      }
      std::ostringstream buffer;
      buffer << input.rdbuf();
      files.emplace_back(relative, buffer.str());
    }
  }
  std::sort(files.begin(), files.end());
  analysis.num_files_scanned = files.size();

  // Pass 1: cross-file facts (Status-returning names, unordered variables)
  // and the module include graph.
  AnalysisContext context;
  std::map<std::pair<std::string, std::string>, size_t> edge_counts;
  for (const auto& [path, contents] : files) {
    CollectContext(path, contents, &context);
    CollectEdges(path, Lex(contents), &edge_counts);
  }
  for (const auto& [edge, count] : edge_counts) {
    analysis.edges.push_back(
        {edge.first, edge.second, count,
         IsAllowedModuleEdge(edge.first, edge.second)});
  }

  // Pass 2: every rule, with the tree-wide context.
  for (const auto& [path, contents] : files) {
    std::vector<LintFinding> file_findings =
        LintFileContentsWithContext(path, contents, context);
    analysis.findings.insert(analysis.findings.end(), file_findings.begin(),
                             file_findings.end());
  }
  std::sort(analysis.findings.begin(), analysis.findings.end(),
            [](const LintFinding& a, const LintFinding& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.line < b.line;
            });
  return analysis;
}

std::vector<LintFinding> LintTree(const std::string& repo_root,
                                  size_t* num_files_scanned) {
  TreeAnalysis analysis = AnalyzeTree(repo_root);
  if (num_files_scanned != nullptr) {
    *num_files_scanned = analysis.num_files_scanned;
  }
  return std::move(analysis.findings);
}

int ModuleLayer(const std::string& module) {
  for (const ModuleLayerEntry& entry : kModuleLayers) {
    if (module == entry.name) return entry.layer;
  }
  return -1;
}

bool IsAllowedModuleEdge(const std::string& from, const std::string& to) {
  if (from == to) return true;
  const int from_layer = ModuleLayer(from);
  const int to_layer = ModuleLayer(to);
  if (from_layer < 0 || to_layer < 0) return false;
  if (to_layer < from_layer) return true;
  for (const auto& [extra_from, extra_to] : kIntraLayerEdges) {
    if (from == extra_from && to == extra_to) return true;
  }
  return false;
}

std::string ModuleGraphDot(const std::vector<ModuleEdge>& edges) {
  std::ostringstream out;
  out << "digraph bbv_modules {\n";
  out << "  rankdir = \"BT\";\n";
  out << "  node [shape = box, fontname = \"Helvetica\"];\n";
  int max_layer = 0;
  for (const ModuleLayerEntry& entry : kModuleLayers) {
    max_layer = std::max(max_layer, entry.layer);
  }
  for (int layer = 0; layer <= max_layer; ++layer) {
    out << "  { rank = same;";
    for (const ModuleLayerEntry& entry : kModuleLayers) {
      if (entry.layer == layer) out << " \"" << entry.name << "\";";
    }
    out << " }\n";
  }
  for (const ModuleEdge& edge : edges) {
    if (edge.from == edge.to) continue;  // self-edges add no information
    out << "  \"" << edge.from << "\" -> \"" << edge.to << "\" [label = \""
        << edge.count << "\"";
    if (!edge.allowed) {
      out << ", color = red, penwidth = 2.0";
    }
    out << "];\n";
  }
  out << "}\n";
  return out.str();
}

std::vector<std::string> FindModuleCycle(
    const std::vector<ModuleEdge>& edges) {
  std::map<std::string, std::vector<std::string>> adjacency;
  for (const ModuleEdge& edge : edges) {
    if (edge.from != edge.to) adjacency[edge.from].push_back(edge.to);
  }
  std::map<std::string, int> state;  // 0 unvisited, 1 in stack, 2 done
  std::vector<std::string> stack;
  std::vector<std::string> cycle;

  const std::function<bool(const std::string&)> visit =
      [&](const std::string& node) {
        state[node] = 1;
        stack.push_back(node);
        for (const std::string& next : adjacency[node]) {
          if (state[next] == 1) {
            const auto begin =
                std::find(stack.begin(), stack.end(), next);
            cycle.assign(begin, stack.end());
            cycle.push_back(next);
            return true;
          }
          if (state[next] == 0 && visit(next)) return true;
        }
        stack.pop_back();
        state[node] = 2;
        return false;
      };
  for (const auto& [node, unused] : adjacency) {
    if (state[node] == 0 && visit(node)) return cycle;
  }
  return {};
}

std::string FindingsJson(const TreeAnalysis& analysis) {
  std::map<std::string, size_t> rule_counts;
  for (const char* rule : kAllRuleIds) rule_counts[rule] = 0;
  for (const LintFinding& finding : analysis.findings) {
    ++rule_counts[finding.rule];
  }
  std::ostringstream out;
  out << "{\n";
  out << "  \"tool\": \"bbv_lint\",\n";
  out << "  \"files_scanned\": " << analysis.num_files_scanned << ",\n";
  out << "  \"num_findings\": " << analysis.findings.size() << ",\n";
  out << "  \"rule_counts\": {\n";
  size_t emitted = 0;
  for (const auto& [rule, count] : rule_counts) {
    out << "    \"" << rule << "\": " << count
        << (++emitted < rule_counts.size() ? "," : "") << "\n";
  }
  out << "  },\n";
  out << "  \"findings\": [\n";
  for (size_t i = 0; i < analysis.findings.size(); ++i) {
    const LintFinding& finding = analysis.findings[i];
    out << "    {\"file\": \"" << JsonEscape(finding.file)
        << "\", \"line\": " << finding.line << ", \"rule\": \""
        << JsonEscape(finding.rule) << "\", \"message\": \""
        << JsonEscape(finding.message) << "\"}"
        << (i + 1 < analysis.findings.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
  return out.str();
}

std::string FormatFinding(const LintFinding& finding) {
  std::ostringstream out;
  out << finding.file << ":" << finding.line << ": [" << finding.rule << "] "
      << finding.message;
  return out.str();
}

}  // namespace bbv::tools
