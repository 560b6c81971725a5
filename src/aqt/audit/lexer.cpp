#include "aqt/audit/lexer.hpp"

#include <cctype>

namespace aqt::audit {
namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_cont(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Cursor over the raw text with line accounting.
class Cursor {
 public:
  explicit Cursor(const std::string& text) : s_(text) {}

  [[nodiscard]] bool done() const { return pos_ >= s_.size(); }
  [[nodiscard]] char peek(std::size_t ahead = 0) const {
    return pos_ + ahead < s_.size() ? s_[pos_ + ahead] : '\0';
  }
  char take() {
    const char c = s_[pos_++];
    if (c == '\n') ++line_;
    return c;
  }
  [[nodiscard]] int line() const { return line_; }

 private:
  const std::string& s_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

/// Splits the raw text into physical lines (for directive placement).
/// The trailing newline does not create an empty extra line.
std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      lines.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty()) lines.push_back(std::move(current));
  return lines;
}

}  // namespace

ScannedSource scan_source(const std::string& text) {
  ScannedSource out;
  out.lines = split_lines(text);
  Cursor c(text);
  bool at_line_start = true;  // Only whitespace seen since the last '\n'.

  while (!c.done()) {
    const char ch = c.peek();

    // Whitespace.
    if (ch == '\n') {
      c.take();
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(ch)) != 0) {
      c.take();
      continue;
    }

    // Preprocessor line: captured whole (with continuations), not
    // tokenized.  Comments on the line are left in the captured text;
    // AUD006 only reads the include path at the front.
    if (ch == '#' && at_line_start) {
      const int line = c.line();
      std::string body;
      c.take();  // '#'
      while (!c.done()) {
        if (c.peek() == '\\' && c.peek(1) == '\n') {
          c.take();
          c.take();
          body += ' ';
          continue;
        }
        if (c.peek() == '\n') break;
        body += c.take();
      }
      out.preprocessor.push_back(PreprocessorLine{std::move(body), line});
      continue;
    }
    at_line_start = false;

    // Line comment.  A backslash-newline splice extends it onto the next
    // physical line (phase-2 line splicing happens before comment
    // recognition); the spliced text stays one Comment on the first line.
    if (ch == '/' && c.peek(1) == '/') {
      const int line = c.line();
      c.take();
      c.take();
      std::string body;
      while (!c.done()) {
        if (c.peek() == '\\' && c.peek(1) == '\n') {
          c.take();
          c.take();
          body += ' ';
          continue;
        }
        if (c.peek() == '\\' && c.peek(1) == '\r' && c.peek(2) == '\n') {
          c.take();
          c.take();
          c.take();
          body += ' ';
          continue;
        }
        if (c.peek() == '\n') break;
        body += c.take();
      }
      out.comments.push_back(Comment{std::move(body), line});
      continue;
    }

    // Block comment (possibly multi-line; one Comment per source line so
    // directive lines stay line-attributable).
    if (ch == '/' && c.peek(1) == '*') {
      c.take();
      c.take();
      int line = c.line();
      std::string body;
      while (!c.done()) {
        if (c.peek() == '*' && c.peek(1) == '/') {
          c.take();
          c.take();
          break;
        }
        const char b = c.take();
        if (b == '\n') {
          out.comments.push_back(Comment{std::move(body), line});
          body.clear();
          line = c.line();
        } else {
          body += b;
        }
      }
      out.comments.push_back(Comment{std::move(body), line});
      continue;
    }

    // Raw string literal [prefix]R"delim( ... )delim" — skipped entirely,
    // custom delimiters honoured.  Escapes do NOT apply inside.
    const auto skip_raw_string = [&c]() {
      c.take();  // the opening '"'
      std::string delim;
      while (!c.done() && c.peek() != '(' && delim.size() < 16)
        delim += c.take();
      if (!c.done()) c.take();  // '('
      const std::string close = ")" + delim + "\"";
      std::string window;
      while (!c.done()) {
        window += c.take();
        if (window.size() > close.size())
          window.erase(window.begin());
        if (window == close) break;
      }
    };
    if (ch == 'R' && c.peek(1) == '"') {
      c.take();  // 'R'
      skip_raw_string();
      continue;
    }

    // String / char literal — skipped (escapes honoured).
    if (ch == '"' || ch == '\'') {
      const char quote = c.take();
      while (!c.done()) {
        const char b = c.take();
        if (b == '\\' && !c.done()) {
          c.take();
          continue;
        }
        if (b == quote || b == '\n') break;  // Unterminated: stop at EOL.
      }
      continue;
    }

    // Identifier / keyword.  An encoding-prefixed raw string (u8R"…",
    // uR"…", UR"…", LR"…") scans as an identifier first; divert it to the
    // raw-string skip so its contents never reach the code stream.
    if (ident_start(ch)) {
      const int line = c.line();
      std::string word;
      while (!c.done() && ident_cont(c.peek())) word += c.take();
      if (c.peek() == '"' &&
          (word == "u8R" || word == "uR" || word == "UR" || word == "LR")) {
        skip_raw_string();
        continue;
      }
      out.tokens.push_back(Token{Token::Kind::kIdentifier, std::move(word),
                                 line});
      continue;
    }

    // Number (coarse: digits plus the usual literal tails; never needs to
    // be exact for the rules).
    if (std::isdigit(static_cast<unsigned char>(ch)) != 0) {
      const int line = c.line();
      std::string num;
      while (!c.done() &&
             (ident_cont(c.peek()) || c.peek() == '.' ||
              ((c.peek() == '+' || c.peek() == '-') && !num.empty() &&
               (num.back() == 'e' || num.back() == 'E' ||
                num.back() == 'p' || num.back() == 'P'))))
        num += c.take();
      out.tokens.push_back(Token{Token::Kind::kNumber, std::move(num), line});
      continue;
    }

    // Single punctuation character.  Rules match one char at a time
    // (e.g. ':' ':' for '::'), which keeps the scanner trivial.
    out.tokens.push_back(
        Token{Token::Kind::kPunct, std::string(1, ch), c.line()});
    c.take();
  }
  return out;
}

}  // namespace aqt::audit
