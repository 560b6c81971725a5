#include "aqt/audit/auditor.hpp"

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "aqt/audit/lexer.hpp"
#include "aqt/util/check.hpp"
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
      {"verify", {"verify", "analysis", "trace", "core", "util"}},
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

// ---------------------------------------------------------------------------
// Directive parsing: allow(...) suppressions and context(...) overrides
// introduced by the marker (the literal "aqt-audit" followed by ':').

struct Allow {
  std::string rule;
  int line = 0;       ///< Line the directive suppresses.
  bool used = false;  ///< Set when the allow absolves at least one finding.
};

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
// Token helpers.  All are bounds-checked: out-of-range indices simply fail
// to match, so the rules can probe past the end of the stream.

using Tokens = std::vector<Token>;

bool is_ident(const Tokens& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].kind == Token::Kind::kIdentifier &&
         t[i].text == text;
}

bool is_punct(const Tokens& t, std::size_t i, char c) {
  return i < t.size() && t[i].kind == Token::Kind::kPunct &&
         t[i].text.size() == 1 && t[i].text[0] == c;
}

bool any_ident(const Tokens& t, std::size_t i,
               const std::set<std::string>& names) {
  return i < t.size() && t[i].kind == Token::Kind::kIdentifier &&
         names.count(t[i].text) != 0;
}

/// Index just past a balanced <...> starting at `open` (which must be '<');
/// returns `open` when not a '<'.  Bounded to 256 tokens so an
/// expression's stray '<' cannot swallow the rest of the stream — on
/// running out, returns `open` (no match) rather than a bogus span.
std::size_t skip_template_args(const Tokens& t, std::size_t open) {
  if (!is_punct(t, open, '<')) return open;
  int depth = 0;
  std::size_t i = open;
  const std::size_t hard_end = std::min(open + 256, t.size());
  while (i < hard_end) {
    if (is_punct(t, i, '<')) ++depth;
    if (is_punct(t, i, '>')) {
      --depth;
      if (depth == 0) return i + 1;
    }
    // A template argument list never crosses these statement tokens; a
    // '<' that meets one was a comparison, not a template.
    if (is_punct(t, i, ';') || is_punct(t, i, '{') || is_punct(t, i, '}'))
      return open;
    ++i;
  }
  return open;
}

// ---------------------------------------------------------------------------
// The rules.

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
    return std::move(findings_);
  }

 private:
  void add(const char* rule, int line, std::string message) {
    findings_.push_back(AuditFinding{rule, line, std::move(message)});
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

  const ScannedSource& src_;
  FileContext ctx_;
  std::set<std::string> unordered_idents_;
  std::set<std::string> float_idents_;
  std::vector<AuditFinding> findings_;
};

}  // namespace

const std::vector<RuleInfo>& rule_pack() { return kRules; }

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

AuditReport audit_source(std::string file, const std::string& text) {
  const ScannedSource src = scan_source(text);
  Directives dir = collect_directives(src, classify_path(file));
  AuditReport report;
  report.file = std::move(file);
  // Directive problems come first and are never suppressible — a
  // malformed directive must not silence itself.
  report.findings = std::move(dir.findings);
  for (AuditFinding& f : Auditor(src, dir.context).run()) {
    bool allowed = false;
    for (Allow& a : dir.allows) {
      if (a.rule == f.rule && a.line == f.line) {
        a.used = true;
        allowed = true;
        // No break: every co-located allow of this rule is "used".
      }
    }
    if (!allowed) report.findings.push_back(std::move(f));
  }
  for (const Allow& a : dir.allows) {
    if (a.used) continue;
    report.findings.push_back(AuditFinding{
        "AUD007", a.line,
        "allow(" + a.rule +
            ") matched no finding: stale suppressions hide future "
            "regressions — remove it (or fix the line reference)"});
  }
  std::sort(report.findings.begin(), report.findings.end(),
            [](const AuditFinding& a, const AuditFinding& b) {
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
  return report;
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

std::string to_json(const std::vector<AuditReport>& reports) {
  std::ostringstream os;
  bool all_ok = true;
  for (const AuditReport& rep : reports) all_ok = all_ok && rep.ok();
  os << "{\"tool\":\"aqt-audit\",\"ok\":" << (all_ok ? "true" : "false")
     << ",\"reports\":[";
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

}  // namespace aqt::audit
