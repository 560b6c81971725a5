// Tests for the aqt-audit determinism analyzer: the token scanner's
// soundness obligations (comments/strings never reach the code stream),
// every AUD rule against known-bad and near-miss corpus files, directive
// suppression semantics, --jobs invariance, and the JSON report read back
// through the shared JSON reader.
#include "aqt/audit/auditor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "aqt/audit/lexer.hpp"
#include "aqt/runner/pool.hpp"
#include "aqt/util/check.hpp"
#include "aqt/util/json.hpp"

namespace aqt::audit {
namespace {

std::string corpus(const std::string& name) {
  return std::string(AQT_SOURCE_DIR) + "/tests/audit/corpus/" + name;
}

bool has_rule(const AuditReport& rep, const std::string& rule) {
  return std::any_of(
      rep.findings.begin(), rep.findings.end(),
      [&rule](const AuditFinding& f) { return f.rule == rule; });
}

bool only_rule(const AuditReport& rep, const std::string& rule) {
  return !rep.findings.empty() &&
         std::all_of(
             rep.findings.begin(), rep.findings.end(),
             [&rule](const AuditFinding& f) { return f.rule == rule; });
}

// --- Lexer soundness -------------------------------------------------------

TEST(AuditLexerTest, CommentsAndStringsNeverReachTheCodeStream) {
  const ScannedSource src = scan_source(
      "// rand in a comment\n"
      "const char* msg = \"rand() and time() here\";\n"
      "/* rand\n   rand */ int x = 1;\n");
  for (const Token& t : src.tokens) EXPECT_NE(t.text, "rand") << t.line;
  ASSERT_GE(src.comments.size(), 2u);
  EXPECT_EQ(src.comments[0].line, 1);
}

TEST(AuditLexerTest, RawStringsAreExcluded) {
  const ScannedSource src =
      scan_source("auto s = R\"(rand() inside raw)\";\nint after = 2;\n");
  for (const Token& t : src.tokens) EXPECT_NE(t.text, "rand");
  // The token after the raw string still carries the right line.
  bool saw_after = false;
  for (const Token& t : src.tokens)
    if (t.text == "after") {
      saw_after = true;
      EXPECT_EQ(t.line, 2);
    }
  EXPECT_TRUE(saw_after);
}

TEST(AuditLexerTest, PreprocessorContinuationsAreHonoured) {
  const ScannedSource src =
      scan_source("#include \\\n  \"aqt/core/engine.hpp\"\nint x;\n");
  ASSERT_EQ(src.preprocessor.size(), 1u);
  EXPECT_NE(src.preprocessor[0].text.find("aqt/core/engine.hpp"),
            std::string::npos);
}

TEST(AuditLexerTest, PrefixedRawStringsAndCustomDelimitersAreExcluded) {
  // Every encoding prefix, with a custom delimiter that embeds the naive
  // `)"` terminator mid-string.
  const ScannedSource src = scan_source(
      "auto a = u8R\"x(rand() )\" still raw)x\";\n"
      "auto b = uR\"(rand())\";\n"
      "auto c = UR\"(rand())\";\n"
      "auto d = LR\"(rand())\";\n"
      "auto e = R\"delim(rand() )\" still raw)delim\";\n"
      "int after = 5;\n");
  for (const Token& t : src.tokens) {
    EXPECT_NE(t.text, "rand") << t.line;
    EXPECT_NE(t.text, "still") << t.line;
  }
  bool saw_after = false;
  for (const Token& t : src.tokens)
    if (t.text == "after") {
      saw_after = true;
      EXPECT_EQ(t.line, 6);
    }
  EXPECT_TRUE(saw_after);
}

TEST(AuditLexerTest, LineCommentBackslashContinuationIsHonoured) {
  // Phase-2 line splicing extends a // comment across the backslash;
  // the next physical line is still commentary, never code.
  const ScannedSource src = scan_source(
      "int x = 1;  // trailing comment \\\n"
      "rand() would be a finding were this code\n"
      "int y = 2;\n");
  for (const Token& t : src.tokens) EXPECT_NE(t.text, "rand") << t.line;
  ASSERT_EQ(src.comments.size(), 1u);
  EXPECT_EQ(src.comments[0].line, 1);
  EXPECT_NE(src.comments[0].text.find("were this code"), std::string::npos);
  bool saw_y = false;
  for (const Token& t : src.tokens)
    if (t.text == "y") {
      saw_y = true;
      EXPECT_EQ(t.line, 3);
    }
  EXPECT_TRUE(saw_y);
}

TEST(AuditLexerTest, DirectiveInsideARawStringIsNotADirective) {
  // A raw string spanning lines that *look* like suppression directives
  // must not suppress anything: string contents are data, not comments.
  // Were the raw string mis-lexed, the "directive" on its last interior
  // line would be comment-only and absolve the rand() on the next line.
  const AuditReport rep = audit_source(
      "src/aqt/core/x.cpp",
      "const char* doc = R\"(\n"
      "sample report text\n"
      "// aqt-audit: allow(AUD001) -- not a real directive\n"
      ")\"; int f() { return rand(); }\n");
  EXPECT_TRUE(has_rule(rep, "AUD001")) << to_human({rep});
}

TEST(AuditLexerTest, UnterminatedConstructsStillTerminate) {
  // Hardened-parser obligation: any byte sequence terminates.
  EXPECT_NO_THROW(scan_source("/* never closed"));
  EXPECT_NO_THROW(scan_source("auto s = R\"(never closed"));
  EXPECT_NO_THROW(scan_source("auto s = \"never closed\n"));
}

// --- Path classification ---------------------------------------------------

TEST(AuditContextTest, ClassifiesRepoPaths) {
  const FileContext core = classify_path("src/aqt/core/engine.cpp");
  EXPECT_EQ(core.layer, "core");
  EXPECT_TRUE(core.state_sensitive);
  EXPECT_FALSE(core.merge_path);
  EXPECT_FALSE(core.seed_plumbing);

  const FileContext pool = classify_path("src/aqt/runner/pool.cpp");
  EXPECT_EQ(pool.layer, "runner");
  EXPECT_TRUE(pool.merge_path);

  const FileContext rng = classify_path("src/aqt/util/rng.hpp");
  EXPECT_TRUE(rng.seed_plumbing);
  EXPECT_FALSE(rng.state_sensitive);

  const FileContext tool = classify_path("tools/aqt_sim.cpp");
  EXPECT_EQ(tool.layer, "top");
  EXPECT_FALSE(tool.state_sensitive);
}

// --- Rules, unit-level -----------------------------------------------------

TEST(AuditRulesTest, Aud001SeedPlumbingIsExempt) {
  const std::string body = "unsigned seed() { std::random_device rd; "
                           "return rd(); }\n";
  EXPECT_TRUE(has_rule(audit_source("src/aqt/core/x.cpp", body), "AUD001"));
  EXPECT_TRUE(audit_source("src/aqt/util/rng.cpp", body).ok());
}

TEST(AuditRulesTest, Aud001DeclarationIsNotACall) {
  const AuditReport rep = audit_source(
      "src/aqt/core/x.cpp",
      "struct W { long time() const; };\nnamespace s { long clock(int); }\n");
  EXPECT_TRUE(rep.ok()) << to_human({rep});
}

TEST(AuditRulesTest, Aud003AppliesOnlyToStateSensitiveLayers) {
  const std::string body = "int f() { static int n = 0; return ++n; }\n";
  EXPECT_TRUE(has_rule(audit_source("src/aqt/runner/x.cpp", body), "AUD003"));
  // analysis is not engine/runner/obs: the same code passes there.
  EXPECT_TRUE(audit_source("src/aqt/analysis/x.cpp", body).ok());
}

TEST(AuditRulesTest, Aud005AppliesOnlyToMergePaths) {
  const std::string body =
      "double sum(double acc, double x) { acc += x; return acc; }\n";
  EXPECT_TRUE(has_rule(audit_source("src/aqt/runner/pool.cpp", body),
                       "AUD005"));
  EXPECT_TRUE(audit_source("src/aqt/core/engine.cpp", body).ok());
}

TEST(AuditRulesTest, Aud006ToolsAndTestsAreUnrestricted) {
  const std::string body = "#include \"aqt/runner/pool.hpp\"\n";
  EXPECT_TRUE(has_rule(audit_source("src/aqt/core/x.cpp", body), "AUD006"));
  EXPECT_TRUE(audit_source("tools/aqt_x.cpp", body).ok());
  EXPECT_TRUE(audit_source("tests/runner/x_test.cpp", body).ok());
}

TEST(AuditRulesTest, FindingsAreSortedByLineThenRule) {
  const AuditReport rep = audit_source(
      "src/aqt/core/x.cpp",
      "#include \"aqt/runner/pool.hpp\"\nint f() { return rand(); }\n");
  ASSERT_EQ(rep.findings.size(), 2u);
  EXPECT_EQ(rep.findings[0].rule, "AUD006");
  EXPECT_EQ(rep.findings[1].rule, "AUD001");
  EXPECT_LT(rep.findings[0].line, rep.findings[1].line);
}

// --- Directives ------------------------------------------------------------

TEST(AuditDirectiveTest, AllowSuppressesSameLine) {
  const AuditReport rep = audit_source(
      "src/aqt/core/x.cpp",
      "int f() { return rand(); }  "
      "// aqt-audit: allow(AUD001) -- test fixture\n");
  EXPECT_TRUE(rep.ok()) << to_human({rep});
}

TEST(AuditDirectiveTest, CommentOnlyLineSuppressesNextLine) {
  const AuditReport rep = audit_source(
      "src/aqt/core/x.cpp",
      "// aqt-audit: allow(AUD001) -- test fixture\n"
      "int f() { return rand(); }\n");
  EXPECT_TRUE(rep.ok()) << to_human({rep});
}

TEST(AuditDirectiveTest, WrongRuleOrWrongLineDoesNotSuppress) {
  // allow(AUD004) cannot absolve an AUD001 finding...
  EXPECT_TRUE(has_rule(
      audit_source("src/aqt/core/x.cpp",
                   "int f() { return rand(); }  "
                   "// aqt-audit: allow(AUD004) -- wrong rule\n"),
      "AUD001"));
  // ...and an allow two lines above the finding is out of range.
  EXPECT_TRUE(has_rule(
      audit_source("src/aqt/core/x.cpp",
                   "// aqt-audit: allow(AUD001) -- too far away\n"
                   "\n"
                   "int f() { return rand(); }\n"),
      "AUD001"));
}

TEST(AuditDirectiveTest, Aud007IsNeverSuppressible) {
  const AuditReport rep = audit_source(
      "src/aqt/core/x.cpp",
      "// aqt-audit: allow(AUD007) -- hush\n"
      "// aqt-audit: allow(AUD999) -- malformed on purpose\n");
  EXPECT_TRUE(has_rule(rep, "AUD007"));
}

TEST(AuditDirectiveTest, UnusedAllowIsReportedAsAud007) {
  // A suppression that absolves nothing is itself a finding: stale
  // allows hide the regression they were written for.
  const AuditReport rep = audit_source(
      "src/aqt/core/x.cpp",
      "int f(int x) { return x; }  "
      "// aqt-audit: allow(AUD001) -- nothing here\n");
  EXPECT_TRUE(only_rule(rep, "AUD007")) << to_human({rep});
  EXPECT_NE(rep.findings[0].message.find("matched no finding"),
            std::string::npos);
}

TEST(AuditDirectiveTest, AllowOfARetiredRuleIsAnAud007Finding) {
  // AUD008-AUD013 are no longer in the pack: an allow() naming one is an
  // unknown rule, so a stale suppression cannot linger after its rule.
  for (const std::string id :
       {"AUD008", "AUD009", "AUD010", "AUD011", "AUD012", "AUD013"}) {
    const AuditReport rep = audit_source(
        "src/aqt/runner/x.cpp",
        "int f(int x) { return x; }  // aqt-audit: allow(" + id +
            ") -- retired\n");
    EXPECT_TRUE(only_rule(rep, "AUD007")) << to_human({rep});
    ASSERT_EQ(rep.findings.size(), 1u) << id;
    EXPECT_NE(rep.findings[0].message.find("unknown rule id '" + id + "'"),
              std::string::npos)
        << rep.findings[0].message;
  }
}

TEST(AuditDirectiveTest, MarkerInProseIsIgnored) {
  const AuditReport rep = audit_source(
      "src/aqt/core/x.cpp",
      "// See docs for the aqt-audit: rule table and workflow.\n"
      "int f(int x) { return x; }\n");
  EXPECT_TRUE(rep.ok()) << to_human({rep});
}

TEST(AuditDirectiveTest, ContextOverridesPathClassification) {
  // tests/ paths are unrestricted by default; context(core) re-imposes
  // the core layering rules — this is how the corpus files work.
  const std::string body =
      "// aqt-audit: context(core)\n#include \"aqt/runner/pool.hpp\"\n";
  EXPECT_TRUE(has_rule(audit_source("tests/fixture/x.cpp", body), "AUD006"));
}

// --- Corpus ----------------------------------------------------------------

std::string rule_lower(const RuleInfo& rule) {
  std::string low = rule.id;
  std::transform(low.begin(), low.end(), low.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return low;
}

AuditReport audit_corpus(const std::string& low, const std::string& kind) {
  return audit_file(corpus(low + "_" + kind + ".cpp"));
}

TEST(AuditCorpusTest, EveryBadFileIsDetectedByExactlyItsRule) {
  for (const RuleInfo& rule : rule_pack()) {
    const AuditReport rep = audit_corpus(rule_lower(rule), "bad");
    EXPECT_TRUE(only_rule(rep, rule.id))
        << rule.id << " corpus file: " << to_human({rep});
  }
}

TEST(AuditCorpusTest, EveryGoodFileIsClean) {
  for (const RuleInfo& rule : rule_pack()) {
    const AuditReport rep = audit_corpus(rule_lower(rule), "good");
    EXPECT_TRUE(rep.ok()) << rule.id
                          << " near-miss file: " << to_human({rep});
  }
}

TEST(AuditCorpusTest, MetaEveryPackRuleHasCorpusCoverage) {
  // The pack is the single source of truth: a rule added without corpus
  // coverage fails here, not silently.
  std::set<std::string> covered;
  for (const RuleInfo& rule : rule_pack())
    for (const AuditFinding& f : audit_corpus(rule_lower(rule), "bad").findings)
      covered.insert(f.rule);
  for (const RuleInfo& rule : rule_pack())
    EXPECT_EQ(covered.count(rule.id), 1u) << rule.id << " has no corpus hit";
}

TEST(AuditCorpusTest, Aud004FlagsPointerKeysOverRecycledArenaSlots) {
  // The SoA engine hands out recycled PacketArena slots, which makes
  // pointer-keyed ordered bookkeeping doubly wrong: address order varies
  // run to run, and after a recycle the same address names a different
  // logical packet.  The corpus case models exactly that shape; AUD004
  // must flag the map (and nothing else must fire).
  const AuditReport rep = audit_file(corpus("aud004_arena_bad.cpp"));
  EXPECT_TRUE(only_rule(rep, "AUD004")) << to_human({rep});
  ASSERT_EQ(rep.findings.size(), 1u) << to_human({rep});
}

/// Audits `files` on `jobs` run-pool workers, one report slot per file —
/// the aqt-audit tool's driver.
std::vector<AuditReport> audit_in_parallel(
    const std::vector<std::string>& files, unsigned jobs) {
  std::vector<AuditReport> reports(files.size());
  const std::vector<std::string> errors = parallel_for_each(
      files.size(), jobs,
      [&](std::size_t i) { reports[i] = audit_file(files[i]); });
  for (const std::string& err : errors) EXPECT_TRUE(err.empty()) << err;
  return reports;
}

TEST(AuditCorpusTest, ReportsAreIdenticalForAnyJobs) {
  // Every rule is per-file, so the report over a multi-file set must not
  // depend on how many workers audited it.  The set mixes every corpus
  // case (findings of each rule, allows, AUD007) with real sources.
  std::vector<std::string> files = collect_audit_files(
      {std::string(AQT_SOURCE_DIR) + "/src/aqt/audit",
       std::string(AQT_SOURCE_DIR) + "/tests/audit"});
  for (const RuleInfo& rule : rule_pack())
    for (const char* kind : {"bad", "good"})
      files.push_back(corpus(rule_lower(rule) + "_" + kind + ".cpp"));
  files.push_back(corpus("aud004_arena_bad.cpp"));
  const std::vector<AuditReport> serial = audit_in_parallel(files, 1);
  const std::vector<AuditReport> parallel = audit_in_parallel(files, 4);
  EXPECT_FALSE(to_human(serial).empty());
  EXPECT_EQ(to_human(serial), to_human(parallel));
  EXPECT_EQ(to_json(serial), to_json(parallel));
}

TEST(AuditCorpusTest, UnreadableFileIsAHardError) {
  EXPECT_THROW(audit_file(corpus("no_such_file.cpp")), PreconditionError);
}

// --- JSON report, read back through util/json -----------------------------

std::vector<AuditReport> corpus_reports() {
  std::vector<AuditReport> reports;
  for (const RuleInfo& rule : rule_pack()) {
    reports.push_back(audit_corpus(rule_lower(rule), "bad"));
    reports.push_back(audit_corpus(rule_lower(rule), "good"));
  }
  return reports;
}

TEST(AuditJsonTest, RoundTripsThroughTheHardenedParser) {
  const std::vector<AuditReport> reports = corpus_reports();
  const JsonValue doc = parse_json(to_json(reports), "round-trip");
  EXPECT_EQ(doc.find("tool")->as_string(), "aqt-audit");
  const std::vector<JsonValue>& back = doc.find("reports")->items();
  ASSERT_EQ(back.size(), reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(back[i].find("file")->as_string(), reports[i].file);
    const std::vector<JsonValue>& findings = back[i].find("findings")->items();
    ASSERT_EQ(findings.size(), reports[i].findings.size());
    for (std::size_t j = 0; j < findings.size(); ++j) {
      const AuditFinding& f = reports[i].findings[j];
      EXPECT_EQ(findings[j].find("rule")->as_string(), f.rule);
      EXPECT_EQ(findings[j].find("line")->as_int(), f.line);
      EXPECT_EQ(findings[j].find("message")->as_string(), f.message);
    }
  }
}

TEST(AuditJsonTest, OkFlagMustMatchTheFindings) {
  // Each report's ok flag, and the document's, say whether findings exist.
  const std::vector<AuditReport> reports = corpus_reports();
  const JsonValue doc = parse_json(to_json(reports), "ok-flags");
  EXPECT_FALSE(doc.find("ok")->as_bool());  // The bad cases have findings.
  const std::vector<JsonValue>& back = doc.find("reports")->items();
  ASSERT_EQ(back.size(), reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i)
    EXPECT_EQ(back[i].find("ok")->as_bool(), reports[i].ok())
        << reports[i].file;

  const std::vector<AuditReport> clean = {
      audit_corpus("aud001", "good"), audit_corpus("aud004", "good")};
  EXPECT_TRUE(parse_json(to_json(clean), "clean").find("ok")->as_bool());
}

}  // namespace
}  // namespace aqt::audit
