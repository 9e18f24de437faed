#include "pepa/lexer.hpp"

#include <cctype>
#include <stdexcept>

#include "util/strings.hpp"

namespace choreo::pepa {

void Lexer::expect_symbol(std::string_view text) {
  const Token& token = next();
  if (!is_symbol(token, text)) {
    fail(token, util::msg("expected '", text, "', found '", describe(token), "'"));
  }
}

const Token& Lexer::expect_identifier(std::string_view what) {
  const Token& token = next();
  if (token.kind != TokenKind::kIdentifier) {
    fail(token, util::msg("expected ", what));
  }
  return token;
}

void Lexer::tokenise(std::string_view source) {
  std::size_t line = 1, column = 1;
  std::size_t i = 0;
  auto advance = [&](std::size_t count = 1) {
    for (std::size_t k = 0; k < count; ++k) {
      if (source[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
      ++i;
    }
  };
  while (i < source.size()) {
    const char c = source[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();
      continue;
    }
    if (c == '/' && i + 1 < source.size() && source[i + 1] == '/') {
      while (i < source.size() && source[i] != '\n') advance();
      continue;
    }
    if (c == '%' || c == '#') {  // workbench-style line comments
      while (i < source.size() && source[i] != '\n') advance();
      continue;
    }
    if (c == '/' && i + 1 < source.size() && source[i + 1] == '*') {
      advance(2);
      while (i + 1 < source.size() &&
             !(source[i] == '*' && source[i + 1] == '/')) {
        advance();
      }
      if (i + 1 >= source.size()) {
        throw util::ParseError(source_name_, line, column,
                               "unterminated block comment");
      }
      advance(2);
      continue;
    }
    Token token;
    token.line = line;
    token.column = column;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t begin = i;
      while (i < source.size() &&
             (std::isalnum(static_cast<unsigned char>(source[i])) ||
              source[i] == '_')) {
        advance();
      }
      token.kind = TokenKind::kIdentifier;
      token.text = std::string(source.substr(begin, i - begin));
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t begin = i;
      while (i < source.size() &&
             (std::isdigit(static_cast<unsigned char>(source[i])) ||
              source[i] == '.' || source[i] == 'e' || source[i] == 'E' ||
              ((source[i] == '+' || source[i] == '-') && i > begin &&
               (source[i - 1] == 'e' || source[i - 1] == 'E')))) {
        advance();
      }
      token.kind = TokenKind::kNumber;
      token.text = std::string(source.substr(begin, i - begin));
      std::size_t used = 0;
      try {
        token.number = std::stod(token.text, &used);
      } catch (const std::out_of_range&) {
        throw util::ParseError(source_name_, token.line, token.column,
                               util::msg("number '", token.text,
                                         "' is out of range"));
      }
      if (used != token.text.size()) {  // "1.2.3", "2e"
        throw util::ParseError(source_name_, token.line, token.column,
                               util::msg("malformed number '", token.text, "'"));
      }
    } else if (std::string_view("().,+-*/=;<>{}[]|@").find(c) !=
               std::string_view::npos) {
      token.kind = TokenKind::kSymbol;
      token.text = std::string(1, c);
      advance();
    } else {
      throw util::ParseError(source_name_, line, column,
                             util::msg("unexpected character '", c, "'"));
    }
    tokens_.push_back(std::move(token));
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.line = line;
  end.column = column;
  tokens_.push_back(std::move(end));
}

}  // namespace choreo::pepa
