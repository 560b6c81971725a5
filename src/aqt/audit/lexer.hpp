// C++ source tokenization for the aqt-audit static analyzer.
//
// The audit rules (auditor.hpp) are token-level, not AST-level, so the
// scanner's only obligations are the ones that make token matching sound:
//
//   * identifiers/keywords, punctuation, and numbers come out as code
//     tokens with 1-based line numbers;
//   * comment bodies and string/character literals are *excluded* from the
//     code-token stream — "rand" inside a diagnostic message or a test
//     string must never trigger AUD001;
//   * comments are still captured separately (with their lines) because
//     the `// aqt-audit: ...` directive grammar lives in them;
//   * preprocessor lines are captured separately (AUD006 reads #include
//     paths), and line continuations inside them are honoured.
//
// The scanner follows the same hardened-parser discipline as the scenario
// and event readers (lint/scenario.cpp, obs/events.cpp): any input byte
// sequence terminates — unterminated block comments, raw strings, and
// literals are closed at end-of-file, never looped on or crashed over.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace aqt::audit {

/// One code token.  `kind` is deliberately coarse: the rules only ever
/// distinguish identifier-shaped tokens from punctuation.
struct Token {
  enum class Kind : std::uint8_t { kIdentifier, kNumber, kPunct };

  Kind kind = Kind::kPunct;
  std::string text;
  int line = 1;
};

/// One comment, body only (no // or /* */ delimiters), at its start line.
struct Comment {
  std::string text;
  int line = 1;
};

/// One logical preprocessor line (continuations spliced), without the
/// leading '#', at the line of the '#'.
struct PreprocessorLine {
  std::string text;
  int line = 1;
};

/// A whole file, scanned.  `lines` keeps the raw source lines so a
/// directive can tell whether it has its line to itself.
struct ScannedSource {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<PreprocessorLine> preprocessor;
  std::vector<std::string> lines;
};

/// Scans C++ source text.  Total: never throws, never loops — malformed
/// input degrades to best-effort tokens.
ScannedSource scan_source(const std::string& text);

}  // namespace aqt::audit
