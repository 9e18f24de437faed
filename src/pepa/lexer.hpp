// The tokenizer of the PEPA-family text formats (.pepa and .pepanet; see
// docs/pepa_syntax.md): identifiers, numbers, one-character symbols, and
// the comments '//', '%', '#' and '/* ... */'.  The whole source is lexed
// up front, so every token carries its line and column and a lexical error
// (stray character, unterminated comment, number out of range) surfaces as
// util::ParseError before any parsing starts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace choreo::pepa {

enum class TokenKind {
  kIdentifier,
  kNumber,
  kSymbol,  // one of ( ) . , + - * / = ; < > { } [ ] | @
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;
  double number = 0.0;
  std::size_t line = 1;
  std::size_t column = 1;
};

inline bool is_symbol(const Token& token, std::string_view text) {
  return token.kind == TokenKind::kSymbol && token.text == text;
}
/// The token as an error message quotes it.
inline std::string describe(const Token& token) {
  return token.kind == TokenKind::kEnd ? "end of input" : token.text;
}

class Lexer {
 public:
  Lexer(std::string_view source, std::string source_name)
      : source_name_(std::move(source_name)) {
    tokenise(source);
  }

  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t index = std::min(cursor_ + ahead, tokens_.size() - 1);
    return tokens_[index];
  }
  const Token& next() {
    const Token& token = tokens_[cursor_];
    if (cursor_ + 1 < tokens_.size()) ++cursor_;
    return token;
  }
  std::size_t position() const noexcept { return cursor_; }
  void rewind(std::size_t position) { cursor_ = position; }

  [[noreturn]] void fail(const Token& at, const std::string& message) const {
    throw util::ParseError(source_name_, at.line, at.column, message);
  }
  /// Consumes the next token, which must be the symbol `text`.
  void expect_symbol(std::string_view text);
  /// Consumes the next token, which must be an identifier (`what` names it
  /// in the error).
  const Token& expect_identifier(std::string_view what);

 private:
  void tokenise(std::string_view source);

  std::string source_name_;
  std::vector<Token> tokens_;
  std::size_t cursor_ = 0;
};

}  // namespace choreo::pepa
