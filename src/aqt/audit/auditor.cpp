#include "aqt/audit/auditor.hpp"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string_view>
#include <utility>

#include "aqt/audit/callgraph.hpp"
#include "aqt/audit/flow.hpp"
#include "aqt/audit/lexer.hpp"
#include "aqt/audit/symbols.hpp"
#include "aqt/audit/token_util.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/hash.hpp"
#include "aqt/util/json.hpp"

namespace aqt::audit {
namespace {

// ---------------------------------------------------------------------------
// Rule pack and layering model.

const std::vector<RuleInfo> kRules = {
    {"AUD001", "banned nondeterminism API (rand/random_device/time/"
               "system_clock/argless engine seed) outside seed plumbing"},
    {"AUD002", "iteration over an unordered container (unspecified order)"},
    {"AUD003", "mutable global / non-const static state in engine, runner, "
               "or obs code"},
    {"AUD004", "pointer-keyed ordered container (address-dependent order)"},
    {"AUD005", "float accumulation in a cross-worker merge path"},
    {"AUD006", "banned #include / layering violation"},
    {"AUD007", "malformed aqt-audit directive / unused allow() suppression"},
    {"AUD008", "shared mutable state written in a worker lambda with an "
               "empty lockset (race)"},
    {"AUD009", "lock-order inconsistency across the call graph"},
    {"AUD010", "by-reference/pointer capture escaping into a deferred "
               "callable"},
    {"AUD011", "call-graph layering violation (indirect reach of a "
               "forbidden layer)"},
    {"AUD012", "container mutated while an iteration over it is live"},
    {"AUD013", "retired EngineConfig alias field (record_trace / "
               "record_events / non-sinks .profile assignment); use "
               "EngineSinks"},
};

bool known_rule(const std::string& id) {
  for (const RuleInfo& r : kRules)
    if (id == r.id) return true;
  return false;
}

/// Which aqt modules each layer may #include.  Mirrors (the transitive
/// closure of) the target_link_libraries graph in src/aqt/*/CMakeLists.txt;
/// a new module must be registered here before anything may include it.
const std::map<std::string, std::set<std::string>>& layer_allowed() {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"util", {"util"}},
      {"core", {"core", "util"}},
      {"obs", {"obs", "core", "util"}},
      {"trace", {"trace", "core", "util"}},
      {"topology", {"topology", "core", "util"}},
      {"analysis", {"analysis", "trace", "core", "util"}},
      {"adversaries",
       {"adversaries", "analysis", "topology", "trace", "core", "util"}},
      {"runner", {"runner", "trace", "obs", "core", "util"}},
      {"lint", {"lint", "topology", "core", "util"}},
      {"verify",
       {"verify", "lint", "analysis", "trace", "topology", "core", "util"}},
      {"experiments",
       {"experiments", "adversaries", "runner", "analysis", "topology",
        "trace", "obs", "core", "util"}},
      {"audit", {"audit", "util"}},
      {"serve",
       {"serve", "runner", "adversaries", "analysis", "topology", "trace",
        "obs", "core", "util"}},
  };
  return kAllowed;
}

}  // namespace

// ---------------------------------------------------------------------------
// Directive parsing: allow(...) suppressions and context(...) overrides
// introduced by the marker (the literal "aqt-audit" followed by ':').
// Named (not anonymous) namespace members: FileSemantics, which the
// header forward-declares, holds them.

struct Allow {
  std::string rule;
  int line = 0;       ///< Line the directive suppresses.
  bool used = false;  ///< Set when the allow absolves at least one finding.
};

namespace {

struct Directives {
  std::vector<Allow> allows;
  FileContext context;
  bool context_overridden = false;
  std::vector<AuditFinding> findings;  ///< AUD007 problems.
};

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

/// True when the physical line holds nothing but the comment (so an allow
/// directive written above the offending line applies to the next line).
bool comment_only_line(const std::vector<std::string>& lines, int line) {
  if (line < 1 || static_cast<std::size_t>(line) > lines.size()) return false;
  const std::string before =
      trim(lines[static_cast<std::size_t>(line) - 1]);
  return before.rfind("//", 0) == 0 || before.rfind("/*", 0) == 0 ||
         before.rfind("*", 0) == 0;
}

/// Applies a context name; returns false for unknown names.
bool apply_context_name(const std::string& name, FileContext& ctx) {
  if (name == "merge") {
    ctx.merge_path = true;
    return true;
  }
  if (name == "seed-plumbing") {
    ctx.seed_plumbing = true;
    return true;
  }
  if (name == "engine") {  // Alias: state-sensitive without naming a layer.
    ctx.state_sensitive = true;
    return true;
  }
  if (name == "none") {
    ctx = FileContext{};
    return true;
  }
  if (layer_allowed().count(name) != 0 || name == "top") {
    ctx.layer = name;
    ctx.state_sensitive =
        name == "core" || name == "runner" || name == "obs";
    return true;
  }
  return false;
}

void parse_directive(const std::string& body, int line,
                     const std::vector<std::string>& lines, Directives& out) {
  auto bad = [&](const std::string& why) {
    out.findings.push_back(AuditFinding{
        "AUD007", line,
        "malformed aqt-audit directive: " + why +
            " (expected 'aqt-audit: allow(AUDNNN) -- reason' or "
            "'aqt-audit: context(name,...)')"});
  };
  const std::string text = trim(body);
  if (text.rfind("allow(", 0) == 0) {
    const auto close = text.find(')');
    if (close == std::string::npos) {
      bad("unclosed allow(");
      return;
    }
    const std::string rule = text.substr(6, close - 6);
    if (!known_rule(rule)) {
      bad("unknown rule id '" + rule + "'");
      return;
    }
    const std::string rest = trim(text.substr(close + 1));
    if (rest.rfind("--", 0) != 0 || trim(rest.substr(2)).empty()) {
      bad("allow(" + rule + ") without a '-- reason' justification");
      return;
    }
    Allow a;
    a.rule = rule;
    a.line = comment_only_line(lines, line) ? line + 1 : line;
    out.allows.push_back(std::move(a));
    return;
  }
  if (text.rfind("context(", 0) == 0) {
    const auto close = text.find(')');
    if (close == std::string::npos || !trim(text.substr(close + 1)).empty()) {
      bad("context(...) must close the directive");
      return;
    }
    std::string names = text.substr(8, close - 8);
    std::size_t start = 0;
    while (start <= names.size()) {
      const auto comma = names.find(',', start);
      const std::string name = trim(names.substr(
          start, comma == std::string::npos ? std::string::npos
                                            : comma - start));
      if (name.empty() || !apply_context_name(name, out.context))
        bad("unknown context name '" + name + "'");
      else
        out.context_overridden = true;
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    return;
  }
  bad("unrecognized directive '" + text.substr(0, 32) + "'");
}

Directives collect_directives(const ScannedSource& src,
                              const FileContext& path_ctx) {
  Directives out;
  out.context = path_ctx;
  for (const Comment& c : src.comments) {
    const auto at = c.text.find("aqt-audit:");
    if (at == std::string::npos) continue;
    // Only an allow/context clause after the marker is a directive; the
    // marker in prose ("the aqt-audit: ... grammar") stays prose.  A
    // malformed clause body (unknown rule, missing reason, unclosed
    // paren) is still AUD007 because parse_directive sees it.
    const std::string body = trim(c.text.substr(at + 10));
    if (body.rfind("allow", 0) != 0 && body.rfind("context", 0) != 0)
      continue;
    parse_directive(body, c.line, src.lines, out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The rules.  Token helpers (is_ident/is_punct/any_ident/
// skip_template_args) come from token_util.hpp.

class Auditor {
 public:
  Auditor(const ScannedSource& src, FileContext ctx)
      : src_(src), ctx_(std::move(ctx)) {}

  std::vector<AuditFinding> run() {
    scan_declarations();
    if (!ctx_.seed_plumbing) rule_aud001();
    rule_aud002();
    if (ctx_.state_sensitive) rule_aud003();
    rule_aud004();
    if (ctx_.merge_path) rule_aud005();
    rule_aud006();
    rule_aud013();
    return std::move(findings_);
  }

 private:
  void add(const char* rule, int line, std::string message) {
    AuditFinding f;
    f.rule = rule;
    f.line = line;
    f.message = std::move(message);
    if (line >= 1 && static_cast<std::size_t>(line) <= src_.lines.size())
      f.line_hash =
          line_content_hash(src_.lines[static_cast<std::size_t>(line) - 1]);
    findings_.push_back(std::move(f));
  }

  /// One pass recording identifiers declared with an unordered container
  /// type (AUD002) or a floating-point type (AUD005).  Purely local and
  /// heuristic — member declarations in the same file are covered, which
  /// matches how the repo keeps implementation classes in one TU.
  void scan_declarations() {
    static const std::set<std::string> kUnordered = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    const Tokens& t = src_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (any_ident(t, i, kUnordered)) {
        std::size_t j = skip_template_args(t, i + 1);
        while (is_punct(t, j, '&') || is_punct(t, j, '*')) ++j;
        if (j < t.size() && t[j].kind == Token::Kind::kIdentifier)
          unordered_idents_.insert(t[j].text);
      }
      if ((is_ident(t, i, "double") || is_ident(t, i, "float")) &&
          i + 1 < t.size() && t[i + 1].kind == Token::Kind::kIdentifier)
        float_idents_.insert(t[i + 1].text);
    }
  }

  void rule_aud001() {
    // Identifier-shaped tokens that are nondeterministic wherever they
    // appear in code (string literals were already stripped).
    static const std::set<std::string> kBannedAlways = {
        "rand",       "srand",     "srandom",   "drand48",
        "lrand48",    "mrand48",   "random_device", "system_clock",
        "high_resolution_clock",   "gettimeofday",  "localtime",
        "gmtime",     "asctime",   "getenv"};
    // Callable names too common to ban as bare identifiers: only the
    // call form `time(...)` / `clock(...)` / `random(...)` is flagged,
    // and not as a member (`x.time(...)`) or non-std qualification.
    static const std::set<std::string> kBannedCalls = {"time", "clock",
                                                       "random"};
    static const std::set<std::string> kEngines = {
        "mt19937",       "mt19937_64",   "minstd_rand", "minstd_rand0",
        "default_random_engine",         "ranlux24_base",
        "ranlux48_base", "ranlux24",     "ranlux48",    "knuth_b"};
    const Tokens& t = src_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (any_ident(t, i, kBannedAlways)) {
        add("AUD001", t[i].line,
            "nondeterministic API '" + t[i].text +
                "': all randomness/time must flow through explicitly "
                "seeded aqt::Rng / steady_clock (see util/rng.hpp)");
        continue;
      }
      if (any_ident(t, i, kBannedCalls) && is_punct(t, i + 1, '(')) {
        const bool member = i > 0 && (is_punct(t, i - 1, '.') ||
                                      is_punct(t, i - 1, '>'));
        const bool qualified = i > 1 && is_punct(t, i - 1, ':') &&
                               is_punct(t, i - 2, ':');
        const bool std_qualified =
            qualified && i > 2 && is_ident(t, i - 3, "std");
        // `long time(long t)` is a declaration, not a call: a call never
        // directly follows a bare identifier except expression keywords.
        static const std::set<std::string> kExprKeywords = {
            "return", "throw", "else", "do", "case", "goto",
            "co_return", "co_yield", "co_await"};
        const bool declaration =
            i > 0 && t[i - 1].kind == Token::Kind::kIdentifier &&
            kExprKeywords.count(t[i - 1].text) == 0;
        if (!member && !declaration && (!qualified || std_qualified))
          add("AUD001", t[i].line,
              "call of nondeterministic '" + t[i].text +
                  "()': wall-clock and libc randomness are banned outside "
                  "the seed-plumbing allowlist");
        continue;
      }
      if (any_ident(t, i, kEngines)) {
        // `std::mt19937 rng;` / `rng{}` / `rng()` — default (argless)
        // seeding is the hazard; an explicit seed argument passes.
        std::size_t j = i + 1;
        if (j < t.size() && t[j].kind == Token::Kind::kIdentifier) ++j;
        const bool argless =
            is_punct(t, j, ';') || is_punct(t, j, ',') ||
            (is_punct(t, j, '{') && is_punct(t, j + 1, '}')) ||
            (is_punct(t, j, '(') && is_punct(t, j + 1, ')'));
        if (argless)
          add("AUD001", t[i].line,
              "std engine '" + t[i].text +
                  "' constructed without an explicit seed: default seeds "
                  "are implementation-defined and unreplayable");
      }
    }
  }

  void rule_aud002() {
    const Tokens& t = src_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      // Range-for over a tracked unordered container:
      //   for ( <decl> : <single-identifier> )
      if (is_ident(t, i, "for") && is_punct(t, i + 1, '(')) {
        int depth = 0;
        std::size_t colon = 0;
        for (std::size_t j = i + 1; j < t.size() && j < i + 64; ++j) {
          if (is_punct(t, j, '(')) ++depth;
          if (is_punct(t, j, ')')) {
            --depth;
            if (depth == 0) break;
          }
          if (depth == 1 && is_punct(t, j, ':') && !is_punct(t, j + 1, ':') &&
              !is_punct(t, j - 1, ':')) {
            colon = j;
            break;
          }
        }
        if (colon != 0 && colon + 2 < t.size() &&
            t[colon + 1].kind == Token::Kind::kIdentifier &&
            is_punct(t, colon + 2, ')') &&
            unordered_idents_.count(t[colon + 1].text) != 0)
          add("AUD002", t[i].line,
              "iteration over unordered container '" + t[colon + 1].text +
                  "' has unspecified order; sort the keys first, or "
                  "justify with allow(AUD002) if the reduction is "
                  "commutative");
      }
      // Explicit iterator walk: tracked.begin() / cbegin().
      if (t[i].kind == Token::Kind::kIdentifier &&
          unordered_idents_.count(t[i].text) != 0 &&
          is_punct(t, i + 1, '.') &&
          (is_ident(t, i + 2, "begin") || is_ident(t, i + 2, "cbegin")) &&
          is_punct(t, i + 3, '('))
        add("AUD002", t[i].line,
            "iterator walk over unordered container '" + t[i].text +
                "' has unspecified order; sort the keys first, or justify "
                "with allow(AUD002) if the traversal is order-insensitive");
    }
  }

  void rule_aud003() {
    static const std::set<std::string> kConstish = {"const", "constexpr",
                                                    "constinit", "consteval"};
    const Tokens& t = src_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      const bool is_static = is_ident(t, i, "static");
      const bool is_tls = is_ident(t, i, "thread_local");
      if (!is_static && !is_tls) continue;
      // Scan to the first structural token.  '(' first => a function
      // declaration (fine); const/constexpr anywhere before the
      // terminator => immutable (fine); otherwise mutable static state.
      bool constish = false;
      char terminator = 0;
      int line = t[i].line;
      for (std::size_t j = i + 1; j < t.size() && j < i + 48; ++j) {
        if (any_ident(t, j, kConstish)) constish = true;
        if (is_ident(t, j, "thread_local")) continue;  // static thread_local
        if (is_punct(t, j, '<')) {
          const std::size_t adv = skip_template_args(t, j);
          if (adv != j) {  // Unbalanced '<' (a comparison): fall through.
            j = adv - 1;
            continue;
          }
        }
        if (is_punct(t, j, ';') || is_punct(t, j, '=') ||
            is_punct(t, j, '(') || is_punct(t, j, '{')) {
          terminator = t[j].text[0];
          break;
        }
      }
      if (constish || terminator == '(' || terminator == 0) continue;
      add("AUD003", line,
          std::string(is_tls ? "thread_local" : "static") +
              " mutable state in engine/runner/obs code: shared-state "
              "TSan cannot prove safe, and run-to-run leakage that breaks "
              "replayability; make it const, or pass state explicitly");
    }
  }

  void rule_aud004() {
    static const std::set<std::string> kOrdered = {
        "map", "set", "multimap", "multiset", "priority_queue", "less",
        "greater"};
    const Tokens& t = src_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!any_ident(t, i, kOrdered) || !is_punct(t, i + 1, '<')) continue;
      // Pointer in the *first* template argument (the ordering key).
      int depth = 0;
      bool pointer_key = false;
      for (std::size_t j = i + 1; j < t.size(); ++j) {
        if (is_punct(t, j, '<')) ++depth;
        if (is_punct(t, j, '>')) {
          --depth;
          if (depth == 0) break;
        }
        if (depth == 1 && is_punct(t, j, ',')) break;
        if (depth >= 1 && is_punct(t, j, '*')) pointer_key = true;
      }
      if (pointer_key)
        add("AUD004", t[i].line,
            "'" + t[i].text +
                "' keyed/ordered by a raw pointer: iteration and "
                "comparison order depend on allocation addresses, which "
                "differ across runs; key by a stable id instead");
    }
  }

  void rule_aud005() {
    const Tokens& t = src_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::Kind::kIdentifier ||
          float_idents_.count(t[i].text) == 0)
        continue;
      const bool compound = is_punct(t, i + 1, '+') && is_punct(t, i + 2, '=');
      const bool rebind = is_punct(t, i + 1, '=') && !is_punct(t, i + 2, '=') &&
                          is_ident(t, i + 2, t[i].text.c_str()) &&
                          is_punct(t, i + 3, '+');
      if (compound || rebind)
        add("AUD005", t[i].line,
            "float accumulation into '" + t[i].text +
                "' on a cross-worker merge path: addition order changes "
                "the result across --jobs; merge in a fixed "
                "(submission-order) loop or accumulate integers");
    }
  }

  void rule_aud006() {
    const auto& allowed = layer_allowed();
    for (const PreprocessorLine& pp : src_.preprocessor) {
      const std::string text = trim(pp.text);
      if (text.rfind("include", 0) != 0) continue;
      const auto open = text.find('"');
      if (open == std::string::npos) continue;  // <system> includes: free.
      const auto close = text.find('"', open + 1);
      if (close == std::string::npos) continue;
      const std::string path = text.substr(open + 1, close - open - 1);
      if (path.rfind("tools/", 0) == 0) {
        add("AUD006", pp.line,
            "#include \"" + path +
                "\": tool sources are program entry points, never a "
                "library surface");
        continue;
      }
      if (path.rfind("aqt/", 0) != 0) continue;
      const auto slash = path.find('/', 4);
      if (slash == std::string::npos) continue;
      const std::string target = path.substr(4, slash - 4);
      if (allowed.count(target) == 0) {
        add("AUD006", pp.line,
            "#include \"" + path + "\": module '" + target +
                "' is not registered in the layering map (auditor.cpp); "
                "register new modules there with their dependencies");
        continue;
      }
      if (ctx_.layer == "top") continue;  // tools/tests/bench: free.
      const auto it = allowed.find(ctx_.layer);
      if (it != allowed.end() && it->second.count(target) == 0)
        add("AUD006", pp.line,
            "#include \"" + path + "\": layer '" + ctx_.layer +
                "' must not depend on '" + target +
                "' (dependency order in src/aqt/*/CMakeLists.txt)");
    }
  }

  /// The pre-PR-10 EngineConfig per-sink alias fields are retired: all
  /// observer wiring goes through EngineSinks (engine.hpp).  Two shapes
  /// linger in stale code: the removed field names themselves, and a
  /// `.profile =` assignment on anything that is not the sinks aggregate.
  void rule_aud013() {
    const Tokens& t = src_.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (is_ident(t, i, "record_trace") || is_ident(t, i, "record_events")) {
        add("AUD013", t[i].line,
            "'" + t[i].text +
                "' is a retired EngineConfig alias field; wire the "
                "observer through EngineSinks (config.sinks.*)");
        continue;
      }
      if (!is_ident(t, i, "profile") || i < 2) continue;
      const bool member = is_punct(t, i - 1, '.');
      const bool assigned = is_punct(t, i + 1, '=') && !is_punct(t, i + 2, '=');
      if (member && assigned &&
          t[i - 2].kind == Token::Kind::kIdentifier &&
          t[i - 2].text != "sinks")
        add("AUD013", t[i].line,
            "'" + t[i - 2].text +
                ".profile = ...' assigns the retired EngineConfig alias; "
                "the profiler sink lives at config.sinks.profile");
    }
  }

  const ScannedSource& src_;
  FileContext ctx_;
  std::set<std::string> unordered_idents_;
  std::set<std::string> float_idents_;
  std::vector<AuditFinding> findings_;
};

// ---------------------------------------------------------------------------
// The semantic rules (AUD008 / AUD010 / AUD012), on top of the symbol,
// capture, and lock-flow layers.

class SemanticAuditor {
 public:
  SemanticAuditor(const ScannedSource& src, const SymbolTable& sym,
                  const LockFlow& flow)
      : src_(src), t_(src.tokens), sym_(sym), flow_(flow) {}

  void run(std::vector<AuditFinding>& out) {
    out_ = &out;
    rule_aud008();
    rule_aud010();
    rule_aud012();
  }

 private:
  void add(const char* rule, int line, std::string message) {
    AuditFinding f;
    f.rule = rule;
    f.line = line;
    f.message = std::move(message);
    if (line >= 1 && static_cast<std::size_t>(line) <= src_.lines.size())
      f.line_hash =
          line_content_hash(src_.lines[static_cast<std::size_t>(line) - 1]);
    out_->push_back(std::move(f));
  }

  std::string sink_desc(const LambdaInfo& lam) const {
    switch (lam.sink) {
      case LambdaInfo::Sink::kThread:
        return "a std::thread worker" +
               (lam.sink_name.empty() ? "" : " ('" + lam.sink_name + "')");
      case LambdaInfo::Sink::kDeferredCall:
        return "a deferred pool submission ('" + lam.sink_name + "')";
      case LambdaInfo::Sink::kStoredFunction:
        return "a stored std::function" +
               (lam.sink_name.empty() ? "" : " ('" + lam.sink_name + "')");
      default:
        return "a deferred callable";
    }
  }

  /// AUD008 — the race pass.  A write to a variable that is visible
  /// outside a worker lambda (by-reference capture, this-capture member,
  /// global/static) with an empty lockset at the write.  Atomics and
  /// lambda-locals are exempt; unresolvable names are skipped (false
  /// negatives, never false positives).
  void rule_aud008() {
    static const std::set<std::string> kMutators = {
        "push_back", "emplace_back", "pop_back", "insert", "erase",
        "clear",     "resize",       "reserve",  "emplace", "assign"};
    for (const LambdaInfo& lam : sym_.lambdas) {
      if (!lam.deferred()) continue;
      std::set<std::pair<int, std::string>> seen;
      for (std::size_t i = lam.body_begin;
           i < lam.body_end && i < t_.size(); ++i) {
        if (!is_any_ident(t_, i)) continue;
        // Chain base only: not `x.NAME`, `x->NAME`, or `ns::NAME`.
        if (i > 0 && (is_punct(t_, i - 1, '.') ||
                      (i > 1 && is_punct(t_, i - 1, '>') &&
                       is_punct(t_, i - 2, '-')) ||
                      (i > 1 && is_punct(t_, i - 1, ':') &&
                       is_punct(t_, i - 2, ':'))))
          continue;
        // Walk member / subscript suffixes to the write position.
        std::size_t j = i;
        std::string last_member;
        for (;;) {
          if (is_punct(t_, j + 1, '.') && is_any_ident(t_, j + 2)) {
            last_member = t_[j + 2].text;
            j += 2;
            continue;
          }
          if (is_punct(t_, j + 1, '-') && is_punct(t_, j + 2, '>') &&
              is_any_ident(t_, j + 3)) {
            last_member = t_[j + 3].text;
            j += 3;
            continue;
          }
          if (is_punct(t_, j + 1, '[')) {
            const std::size_t adv = skip_balanced(t_, j + 1, '[', ']');
            if (adv == j + 1) break;
            j = adv - 1;
            last_member.clear();
            continue;
          }
          break;
        }
        const std::size_t w = j + 1;
        bool write = false;
        if (!last_member.empty() && is_punct(t_, w, '(') &&
            kMutators.count(last_member) != 0)
          write = true;  // results.push_back(...) — a container mutation.
        if (!write && is_punct(t_, w, '=') && !is_punct(t_, w + 1, '='))
          write = true;
        if (!write && is_punct(t_, w + 1, '=')) {
          for (const char op : {'+', '-', '*', '/', '%', '|', '&', '^'})
            if (is_punct(t_, w, op)) write = true;
        }
        if (!write && is_punct(t_, w + 2, '=') &&
            ((is_punct(t_, w, '<') && is_punct(t_, w + 1, '<')) ||
             (is_punct(t_, w, '>') && is_punct(t_, w + 1, '>'))))
          write = true;  // <<= / >>=
        if (!write && ((is_punct(t_, w, '+') && is_punct(t_, w + 1, '+')) ||
                       (is_punct(t_, w, '-') && is_punct(t_, w + 1, '-'))))
          write = true;  // postfix ++/--
        if (!write && i >= 2 &&
            ((is_punct(t_, i - 1, '+') && is_punct(t_, i - 2, '+')) ||
             (is_punct(t_, i - 1, '-') && is_punct(t_, i - 2, '-'))))
          write = true;  // prefix ++/--
        if (!write) continue;

        const VarDecl* decl = sym_.lookup(t_[i].text, i);
        if (decl == nullptr) continue;
        if (decl->is_atomic || decl->is_mutex || decl->is_const) continue;
        if (sym_.scope_within(decl->scope, lam.scope)) continue;
        const ScopeInfo::Kind dk = sym_.scopes[decl->scope].kind;
        bool shared = false;
        if (dk == ScopeInfo::Kind::kNamespace ||
            dk == ScopeInfo::Kind::kFile) {
          shared = true;  // Globals: shared however the lambda captures.
        } else if (decl->is_static) {
          shared = true;  // Function-local statics likewise.
        } else if (dk == ScopeInfo::Kind::kClass) {
          shared = lam.captures_this || lam.default_ref;
        } else {
          shared = lam.default_ref ||
                   std::find(lam.ref_captures.begin(), lam.ref_captures.end(),
                             t_[i].text) != lam.ref_captures.end();
        }
        if (!shared) continue;
        if (flow_.any_held_at(i)) continue;
        if (!seen.insert({t_[i].line, t_[i].text}).second) continue;
        add("AUD008", t_[i].line,
            "shared '" + t_[i].text + "' written inside " + sink_desc(lam) +
                " with no lock held: a data race unless every access is "
                "provably disjoint; guard it, make it atomic, or justify "
                "disjoint slot writes with allow(AUD008)");
      }
    }
  }

  /// AUD010 — capture lifetime.  A by-reference (or raw-pointer) capture
  /// flowing into a callable that outlives the full expression: thread
  /// bodies, pool submissions, stored std::function.
  void rule_aud010() {
    for (const LambdaInfo& lam : sym_.lambdas) {
      const bool stored = lam.sink == LambdaInfo::Sink::kStoredFunction;
      if (!lam.deferred() && !stored) continue;
      std::string what;
      if (lam.default_ref) {
        what = "default by-reference capture [&]";
      } else if (!lam.ref_captures.empty()) {
        what = "by-reference capture '&" + lam.ref_captures.front() + "'";
      } else {
        for (const std::string& name : lam.copy_captures) {
          const VarDecl* d = sym_.lookup(name, lam.intro_token);
          if (d != nullptr && d->is_pointer && !d->is_const) {
            what = "captured raw pointer '" + name + "'";
            break;
          }
        }
      }
      if (what.empty()) continue;
      add("AUD010", lam.line,
          what + " escapes into " + sink_desc(lam) +
              ": every referent must outlive the callable (join/clear "
              "before scope exit) — capture by value, or justify the "
              "lifetime with allow(AUD010)");
    }
  }

  /// AUD012 — iterator invalidation.  A range-for (or .begin() iterator
  /// loop) over a container whose body mutates that same container.
  /// The `it = c.erase(it)` re-assignment idiom is recognized and
  /// exempt.
  void rule_aud012() {
    static const std::set<std::string> kMutators = {
        "push_back", "emplace_back", "pop_back", "insert", "erase",
        "clear",     "resize",       "emplace",  "assign"};
    const Tokens& t = t_;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (!is_ident(t, i, "for") || !is_punct(t, i + 1, '(')) continue;
      const std::size_t close = skip_balanced(t, i + 1, '(', ')');
      if (close == i + 1) continue;
      const std::vector<std::string> chain =
          header_container(i + 2, close - 1);
      if (chain.empty()) continue;
      std::size_t body_begin = close;
      std::size_t body_end = close;
      if (is_punct(t, close, '{')) {
        body_end = skip_balanced(t, close, '{', '}');
        body_begin = close + 1;
      } else {
        while (body_end < t.size() && !is_punct(t, body_end, ';'))
          ++body_end;
      }
      for (std::size_t k = body_begin; k + chain.size() < body_end; ++k) {
        if (k > 0 && (is_punct(t, k - 1, '.') ||
                      (k > 1 && is_punct(t, k - 1, '>') &&
                       is_punct(t, k - 2, '-'))))
          continue;
        bool match = true;
        for (std::size_t c = 0; c < chain.size(); ++c) {
          if (k + c >= t.size() || t[k + c].text != chain[c]) {
            match = false;
            break;
          }
        }
        if (!match) continue;
        const std::size_t m = k + chain.size();
        if (!is_punct(t, m, '.') || !is_any_ident(t, m + 1) ||
            !is_punct(t, m + 2, '('))
          continue;
        const std::string& method = t[m + 1].text;
        if (kMutators.count(method) == 0) continue;
        if (method == "erase" && k > 0 && is_punct(t, k - 1, '='))
          continue;  // it = c.erase(it): the rebinding idiom is safe.
        add("AUD012", t[m + 1].line,
            "'" + chain_text(chain) + "." + method +
                "' mutates the container while an iteration over '" +
                chain_text(chain) +
                "' is live: iterators/references may be invalidated "
                "mid-walk; collect changes and apply after the loop");
      }
    }
  }

  static std::string chain_text(const std::vector<std::string>& chain) {
    std::string out;
    for (const std::string& c : chain) out += c;
    return out;
  }

  /// The container a for-header iterates: the range expression of a
  /// range-for (if it is a plain variable/member chain), or the receiver
  /// of `.begin()` / `.cbegin()` in an iterator-style header.
  std::vector<std::string> header_container(std::size_t begin,
                                            std::size_t end) const {
    const Tokens& t = t_;
    int depth = 0;
    for (std::size_t j = begin; j < end; ++j) {
      if (is_punct(t, j, '(')) ++depth;
      if (is_punct(t, j, ')')) --depth;
      if (depth == 0 && is_punct(t, j, ':') && !is_punct(t, j + 1, ':') &&
          (j == 0 || !is_punct(t, j - 1, ':'))) {
        return parse_chain(j + 1, end);
      }
    }
    for (std::size_t j = begin + 1; j + 1 < end; ++j) {
      if ((is_ident(t, j, "begin") || is_ident(t, j, "cbegin")) &&
          is_punct(t, j - 1, '.') && is_punct(t, j + 1, '(')) {
        // Walk the receiver chain backwards from the '.'.
        std::vector<std::string> chain;
        std::size_t k = j - 1;  // the '.'
        while (k > begin && is_any_ident(t_, k - 1)) {
          chain.insert(chain.begin(), t[k - 1].text);
          if (k >= begin + 2 && is_punct(t, k - 2, '.')) {
            chain.insert(chain.begin() + 1, ".");
            // Walk over "member ." pairs; the separator joins the next
            // identifier out.
            k = k - 2;
            continue;
          }
          break;
        }
        if (!chain.empty()) return chain;
      }
    }
    return {};
  }

  /// Accepts only a plain chain (identifiers joined by '.', '->', '::');
  /// anything else (a call, arithmetic) returns empty.
  std::vector<std::string> parse_chain(std::size_t begin,
                                       std::size_t end) const {
    std::vector<std::string> chain;
    for (std::size_t j = begin; j < end; ++j) {
      const Token& tok = t_[j];
      const bool link =
          tok.kind == Token::Kind::kPunct &&
          (tok.text == "." || tok.text == "-" || tok.text == ">" ||
           tok.text == ":");
      if (tok.kind == Token::Kind::kIdentifier || link) {
        chain.push_back(tok.text);
        continue;
      }
      return {};
    }
    if (chain.empty() || chain.front() == ".") return {};
    return chain;
  }

  const ScannedSource& src_;
  const Tokens& t_;
  const SymbolTable& sym_;
  const LockFlow& flow_;
  std::vector<AuditFinding>* out_ = nullptr;
};

}  // namespace

const std::vector<RuleInfo>& rule_pack() { return kRules; }

std::uint64_t line_content_hash(const std::string& line) {
  return fnv1a(trim(line));
}

FileContext classify_path(const std::string& path) {
  FileContext ctx;
  std::string p = path;
  std::replace(p.begin(), p.end(), '\\', '/');
  const auto at = p.find("src/aqt/");
  if (at != std::string::npos) {
    const std::size_t begin = at + 8;
    const auto slash = p.find('/', begin);
    if (slash != std::string::npos) {
      const std::string layer = p.substr(begin, slash - begin);
      if (layer_allowed().count(layer) != 0) {
        ctx.layer = layer;
        ctx.state_sensitive = layer == "core" || layer == "runner" ||
                              layer == "obs" || layer == "serve";
      }
    }
  }
  if (p.find("runner/pool.") != std::string::npos ||
      p.find("obs/registry.") != std::string::npos)
    ctx.merge_path = true;
  if (p.find("util/rng.") != std::string::npos) ctx.seed_plumbing = true;
  return ctx;
}

// --- Project (cross-TU) audit -----------------------------------------------

/// The per-file payload carried from the parallel phase into
/// finalize_project.  Owns everything the cross-TU phase needs; the raw
/// token stream and symbol table are *not* retained (the call slice and
/// order edges are the distilled form), keeping units cheap to hold for
/// a whole repo.
struct FileSemantics {
  std::vector<std::string> lines;      ///< For hashing late findings.
  std::vector<AuditFinding> findings;  ///< Per-file rules, pre-allow.
  std::vector<Allow> allows;
  FileCallInfo callinfo;
  /// Same-body nested acquisitions: mutex A held while B was acquired.
  std::vector<CallGraph::OrderEdge> direct_orders;
};

AuditUnit audit_unit(std::string file, const std::string& text) {
  AuditUnit unit;
  auto sem = std::make_shared<FileSemantics>();
  const ScannedSource src = scan_source(text);
  Directives dir = collect_directives(src, classify_path(file));
  sem->lines = src.lines;

  sem->findings = Auditor(src, dir.context).run();
  const SymbolTable sym = build_symbols(src);
  const LockFlow flow = compute_lock_flow(src, sym, file);
  SemanticAuditor(src, sym, flow).run(sem->findings);
  for (AuditFinding& f : dir.findings) sem->findings.push_back(std::move(f));
  sem->allows = std::move(dir.allows);

  // Distill the call slice the cross-TU phase needs.
  FileCallInfo& ci = sem->callinfo;
  ci.file = file;
  ci.layer = dir.context.layer;
  for (const FunctionInfo& fn : sym.functions) {
    FileCallInfo::Def d;
    d.name = fn.name;
    d.qualifier = fn.qualifier;
    d.name_space = fn.name_space;
    d.class_name = fn.class_name;
    d.file_local = fn.file_local;
    d.line = fn.line;
    ci.defs.push_back(std::move(d));
  }
  // Attribute each lock interval to the function whose body holds it.
  for (const LockInterval& iv : flow.intervals) {
    for (std::size_t fi = 0; fi < sym.functions.size(); ++fi) {
      const FunctionInfo& fn = sym.functions[fi];
      if (iv.begin >= fn.body_begin && iv.begin < fn.body_end) {
        ci.defs[fi].acquires.emplace_back(iv.mutex, iv.line);
        break;  // functions do not nest; first match is the owner.
      }
    }
  }
  // Same-body nesting: interval B opened while interval A is still held.
  for (const LockInterval& a : flow.intervals) {
    for (const LockInterval& b : flow.intervals) {
      if (b.begin > a.begin && b.begin < a.end && a.mutex != b.mutex)
        sem->direct_orders.push_back(
            CallGraph::OrderEdge{a.mutex, b.mutex, file, b.line});
    }
  }
  for (const CallSite& cs : extract_calls(src, sym)) {
    FileCallInfo::Call c;
    c.written = cs.written;
    c.caller = cs.caller;
    c.line = cs.line;
    c.held = flow.held_at(cs.token);
    ci.calls.push_back(std::move(c));
  }

  unit.file = std::move(file);
  unit.sem = std::move(sem);
  return unit;
}

AuditUnit audit_unit_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AQT_REQUIRE(in.good(), "cannot open source file: " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return audit_unit(path, buf.str());
}

namespace {

/// Appends a finding whose line hash comes from the unit's retained lines
/// (AUD009/AUD011 are discovered after the per-file phase).
void add_late_finding(FileSemantics& sem, const char* rule, int line,
                      std::string message) {
  AuditFinding f;
  f.rule = rule;
  f.line = line;
  f.message = std::move(message);
  if (line >= 1 && static_cast<std::size_t>(line) <= sem.lines.size())
    f.line_hash =
        line_content_hash(sem.lines[static_cast<std::size_t>(line) - 1]);
  sem.findings.push_back(std::move(f));
}

}  // namespace

std::vector<AuditReport> finalize_project(std::vector<AuditUnit> units) {
  std::sort(units.begin(), units.end(),
            [](const AuditUnit& a, const AuditUnit& b) {
              return a.file < b.file;
            });
  std::map<std::string, FileSemantics*> by_file;
  std::vector<FileCallInfo> slices;
  slices.reserve(units.size());
  for (AuditUnit& u : units) {
    AQT_REQUIRE(u.sem != nullptr, "finalize_project: unit without semantics");
    by_file[u.file] = u.sem.get();
    slices.push_back(u.sem->callinfo);
  }
  const CallGraph graph(std::move(slices));

  // AUD011 — call-graph layering.
  const auto allowed = [](const std::string& from, const std::string& to) {
    if (from == "top" || to == "top") return true;
    const auto it = layer_allowed().find(from);
    if (it == layer_allowed().end()) return true;  // Unknown: don't guess.
    return it->second.count(to) != 0;
  };
  for (const CallGraph::Violation& v : graph.layering_violations(allowed)) {
    const auto it = by_file.find(v.file);
    if (it == by_file.end()) continue;
    add_late_finding(
        *it->second, "AUD011", v.line,
        "call-graph layering: '" + v.caller + "' (layer '" +
            it->second->callinfo.layer + "') reaches layer '" + v.bad_layer +
            "' via " + v.path +
            " — an include-clean chain can still smuggle the dependency; "
            "break the call chain or move the callee");
  }

  // AUD009 — lock-order inconsistency over direct + propagated edges.
  std::vector<CallGraph::OrderEdge> edges = graph.propagated_order_edges();
  for (const AuditUnit& u : units)
    edges.insert(edges.end(), u.sem->direct_orders.begin(),
                 u.sem->direct_orders.end());
  std::sort(edges.begin(), edges.end(),
            [](const CallGraph::OrderEdge& a, const CallGraph::OrderEdge& b) {
              if (a.first != b.first) return a.first < b.first;
              if (a.second != b.second) return a.second < b.second;
              if (a.file != b.file) return a.file < b.file;
              return a.line < b.line;
            });
  std::map<std::pair<std::string, std::string>, CallGraph::OrderEdge> rep;
  for (const CallGraph::OrderEdge& e : edges)
    rep.emplace(std::make_pair(e.first, e.second), e);
  for (const auto& [order, e] : rep) {
    if (order.first >= order.second) continue;  // Handle each pair once.
    const auto rev = rep.find({order.second, order.first});
    if (rev == rep.end()) continue;
    const CallGraph::OrderEdge& r = rev->second;
    const auto here = by_file.find(e.file);
    if (here != by_file.end())
      add_late_finding(
          *here->second, "AUD009", e.line,
          "lock-order inconsistency: '" + e.first + "' is held while '" +
              e.second + "' is acquired here, but the opposite order is "
              "established at " + r.file + ":" + std::to_string(r.line) +
              " — pick one global order (deadlock risk)");
    const auto there = by_file.find(r.file);
    if (there != by_file.end())
      add_late_finding(
          *there->second, "AUD009", r.line,
          "lock-order inconsistency: '" + r.first + "' is held while '" +
              r.second + "' is acquired here, but the opposite order is "
              "established at " + e.file + ":" + std::to_string(e.line) +
              " — pick one global order (deadlock risk)");
  }

  // Allow application + unused-allow AUD007, then the deterministic sort.
  std::vector<AuditReport> reports;
  reports.reserve(units.size());
  for (AuditUnit& u : units) {
    FileSemantics& sem = *u.sem;
    std::vector<AuditFinding> kept;
    kept.reserve(sem.findings.size());
    for (AuditFinding& f : sem.findings) {
      // AUD007 findings are never suppressible — a malformed directive
      // must not silence itself.
      bool allowed_finding = false;
      if (f.rule != "AUD007") {
        for (Allow& a : sem.allows) {
          if (a.rule == f.rule && a.line == f.line) {
            a.used = true;
            allowed_finding = true;
            // No break: every co-located allow of this rule is "used".
          }
        }
      }
      if (!allowed_finding) kept.push_back(std::move(f));
    }
    for (const Allow& a : sem.allows) {
      if (a.used) continue;
      AuditFinding f;
      f.rule = "AUD007";
      f.line = a.line;
      f.message = "allow(" + a.rule +
                  ") matched no finding: stale suppressions hide future "
                  "regressions — remove it (or fix the line reference)";
      if (a.line >= 1 && static_cast<std::size_t>(a.line) <= sem.lines.size())
        f.line_hash = line_content_hash(
            sem.lines[static_cast<std::size_t>(a.line) - 1]);
      kept.push_back(std::move(f));
    }
    std::sort(kept.begin(), kept.end(),
              [](const AuditFinding& a, const AuditFinding& b) {
                if (a.line != b.line) return a.line < b.line;
                if (a.rule != b.rule) return a.rule < b.rule;
                return a.message < b.message;
              });
    AuditReport out;
    out.file = u.file;
    out.findings = std::move(kept);
    reports.push_back(std::move(out));
  }
  return reports;
}

AuditReport audit_source(std::string file, const std::string& text) {
  std::vector<AuditUnit> units;
  units.push_back(audit_unit(std::move(file), text));
  std::vector<AuditReport> reports = finalize_project(std::move(units));
  return std::move(reports.front());
}

AuditReport audit_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  AQT_REQUIRE(in.good(), "cannot open source file: " << path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return audit_source(path, buf.str());
}

bool auditable_source_path(const std::string& path) {
  const std::filesystem::path p(path);
  const std::string ext = p.extension().string();
  const bool source = ext == ".cpp" || ext == ".hpp" || ext == ".cc" ||
                      ext == ".h" || ext == ".cxx";
  return source && path.find("/corpus/") == std::string::npos;
}

std::vector<std::string> collect_audit_files(
    const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  const auto skipped_dir = [](const fs::path& p) {
    const std::string name = p.filename().string();
    return name == "corpus" || name == ".git" || name == "out" ||
           name.rfind("build", 0) == 0;
  };
  std::vector<std::string> files;
  for (const std::string& root : roots) {
    const fs::path p(root);
    AQT_REQUIRE(fs::exists(p), "no such file or directory: " << root);
    if (!fs::is_directory(p)) {
      files.push_back(p.generic_string());
      continue;
    }
    fs::recursive_directory_iterator it(p), end;
    while (it != end) {
      if (it->is_directory() && skipped_dir(it->path())) {
        it.disable_recursion_pending();
        ++it;
        continue;
      }
      if (it->is_regular_file() &&
          auditable_source_path(it->path().generic_string()))
        files.push_back(it->path().generic_string());
      ++it;
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

// --- Baseline ---------------------------------------------------------------

std::vector<BaselineEntry> parse_baseline(std::istream& is,
                                          const std::string& name) {
  std::vector<BaselineEntry> out;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string text = trim(line);
    if (text.empty() || text[0] == '#') continue;
    const auto tab1 = text.find('\t');
    const auto tab2 =
        tab1 == std::string::npos ? std::string::npos
                                  : text.find('\t', tab1 + 1);
    AQT_REQUIRE(tab2 != std::string::npos,
                "baseline " << name << ":" << lineno
                            << ": expected RULE<TAB>file<TAB>hash");
    BaselineEntry e;
    e.rule = text.substr(0, tab1);
    AQT_REQUIRE(known_rule(e.rule), "baseline "
                                        << name << ":" << lineno
                                        << ": unknown rule id '" << e.rule
                                        << "'");
    e.file = text.substr(tab1 + 1, tab2 - tab1 - 1);
    const std::string hex = trim(text.substr(tab2 + 1));
    const std::optional<std::uint64_t> h = parse_hash_hex(hex);
    AQT_REQUIRE(h.has_value(), "baseline " << name << ":" << lineno
                                           << ": bad hash '" << hex << "'");
    e.line_hash = *h;
    out.push_back(std::move(e));
  }
  return out;
}

std::vector<BaselineEntry> load_baseline_file(const std::string& path) {
  std::ifstream in(path);
  AQT_REQUIRE(in.good(), "cannot open baseline file: " << path);
  return parse_baseline(in, path);
}

std::string to_baseline(const std::vector<AuditReport>& reports) {
  std::ostringstream os;
  os << "# aqt-audit baseline: grandfathered findings (RULE\\tfile\\thash "
        "of the trimmed offending line).\n"
     << "# Regenerate with `aqt-audit --update-baseline ...`; this file "
        "should only ever shrink.\n";
  for (const AuditReport& rep : reports)
    for (const AuditFinding& f : rep.findings)
      os << f.rule << '\t' << rep.file << '\t' << hash_hex(f.line_hash)
         << '\n';
  return os.str();
}

BaselineApplied apply_baseline(std::vector<AuditReport>& reports,
                               const std::vector<BaselineEntry>& baseline) {
  BaselineApplied result;
  // Multiset of unconsumed entries keyed by rule+file+hash.
  std::map<std::string, std::size_t> budget;
  auto key = [](const std::string& rule, const std::string& file,
                std::uint64_t hash) {
    return rule + '\t' + file + '\t' + hash_hex(hash);
  };
  for (const BaselineEntry& e : baseline)
    ++budget[key(e.rule, e.file, e.line_hash)];
  for (AuditReport& rep : reports) {
    std::vector<AuditFinding> kept;
    kept.reserve(rep.findings.size());
    for (AuditFinding& f : rep.findings) {
      const auto it = budget.find(key(f.rule, rep.file, f.line_hash));
      if (it != budget.end() && it->second > 0) {
        --it->second;
        ++result.suppressed;
      } else {
        kept.push_back(std::move(f));
      }
    }
    rep.findings = std::move(kept);
  }
  for (const BaselineEntry& e : baseline) {
    auto& remaining = budget[key(e.rule, e.file, e.line_hash)];
    if (remaining > 0) {
      --remaining;
      result.stale.push_back(e);
    }
  }
  return result;
}

// --- Rendering --------------------------------------------------------------

std::string to_human(const std::vector<AuditReport>& reports) {
  std::ostringstream os;
  std::size_t total = 0;
  for (const AuditReport& rep : reports) {
    if (rep.ok()) continue;
    total += rep.findings.size();
    for (const AuditFinding& f : rep.findings)
      os << rep.file << ":" << f.line << ": [" << f.rule << "] " << f.message
         << "\n";
  }
  if (total == 0)
    os << "aqt-audit: " << reports.size() << " file"
       << (reports.size() == 1 ? "" : "s") << " clean\n";
  else
    os << "aqt-audit: " << total << " finding" << (total == 1 ? "" : "s")
       << " in " << reports.size() << " file"
       << (reports.size() == 1 ? "" : "s") << "\n";
  return os.str();
}

std::string to_json(const std::vector<AuditReport>& reports,
                    const std::vector<BaselineEntry>& stale) {
  std::ostringstream os;
  bool all_ok = true;
  for (const AuditReport& rep : reports) all_ok = all_ok && rep.ok();
  os << "{\"tool\":\"aqt-audit\",\"ok\":" << (all_ok ? "true" : "false")
     << ",\"stale\":[";
  for (std::size_t i = 0; i < stale.size(); ++i) {
    const BaselineEntry& e = stale[i];
    if (i) os << ",";
    os << "{\"rule\":\"" << json_escape_string(e.rule) << "\",\"file\":\""
       << json_escape_string(e.file) << "\",\"hash\":\""
       << hash_hex(e.line_hash) << "\"}";
  }
  os << "],\"reports\":[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const AuditReport& rep = reports[i];
    if (i) os << ",";
    os << "{\"file\":\"" << json_escape_string(rep.file) << "\","
       << "\"ok\":" << (rep.ok() ? "true" : "false") << ",\"findings\":[";
    for (std::size_t j = 0; j < rep.findings.size(); ++j) {
      const AuditFinding& f = rep.findings[j];
      if (j) os << ",";
      os << "{\"rule\":\"" << json_escape_string(f.rule)
         << "\",\"line\":" << f.line << ",\"message\":\""
         << json_escape_string(f.message) << "\"}";
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

// --- Hardened JSON re-parser ------------------------------------------------
//
// parse_json plus a DOM walk that accepts exactly the layout to_json emits:
// every object carries exactly its keys, in to_json's order.  A value of
// the wrong type fails in its JsonValue accessor.

namespace {

void expect_keys(const JsonValue& v,
                 std::initializer_list<std::string_view> keys,
                 const std::string& where) {
  const auto& members = v.members();
  bool ok = members.size() == keys.size();
  std::string want;
  std::size_t i = 0;
  for (const std::string_view key : keys) {
    ok = ok && members[i++].first == key;
    want += (want.empty() ? "" : ",") + std::string(key);
  }
  AQT_REQUIRE(ok, "" << where << ": expected an object with keys " << want
                     << ", in that order");
}

std::string rule_of(const JsonValue& v, const std::string& where) {
  const std::string& id = v.find("rule")->as_string();
  AQT_REQUIRE(known_rule(id), "" << where << ": unknown rule '" << id << "'");
  return id;
}

}  // namespace

std::vector<AuditReport> parse_audit_json(
    const std::string& text, const std::string& name,
    std::vector<BaselineEntry>* stale_out) {
  const JsonValue doc = parse_json(text, name);
  expect_keys(doc, {"tool", "ok", "stale", "reports"}, name);
  const std::string& tool = doc.find("tool")->as_string();
  AQT_REQUIRE(tool == "aqt-audit",
              "" << name << ": tool is '" << tool << "', not 'aqt-audit'");

  std::vector<BaselineEntry> stale;
  for (const JsonValue& item : doc.find("stale")->items()) {
    expect_keys(item, {"rule", "file", "hash"}, name);
    const std::string& hex = item.find("hash")->as_string();
    const std::optional<std::uint64_t> h = parse_hash_hex(hex);
    AQT_REQUIRE(hex.size() == 16 && h.has_value(),
                "" << name << ": stale hash must be 16 hex digits, got '"
                   << hex << "'");
    stale.push_back(
        BaselineEntry{rule_of(item, name), item.find("file")->as_string(), *h});
  }

  std::vector<AuditReport> reports;
  bool all_ok = true;
  for (const JsonValue& item : doc.find("reports")->items()) {
    expect_keys(item, {"file", "ok", "findings"}, name);
    AuditReport rep{item.find("file")->as_string(), {}};
    for (const JsonValue& f : item.find("findings")->items()) {
      expect_keys(f, {"rule", "line", "message"}, name);
      const std::int64_t line = f.find("line")->as_int();
      AQT_REQUIRE(line >= 0 && line <= INT32_MAX,
                  "" << name << ": line " << line << " out of range");
      rep.findings.push_back(AuditFinding{rule_of(f, name),
                                          static_cast<int>(line),
                                          f.find("message")->as_string(), 0});
    }
    AQT_REQUIRE(item.find("ok")->as_bool() == rep.ok(),
                "" << name << ": report ok flag contradicts findings");
    all_ok = all_ok && rep.ok();
    reports.push_back(std::move(rep));
  }
  AQT_REQUIRE(doc.find("ok")->as_bool() == all_ok,
              "" << name << ": document ok flag contradicts reports");
  if (stale_out != nullptr) *stale_out = std::move(stale);
  return reports;
}

}  // namespace aqt::audit
