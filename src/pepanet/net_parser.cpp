#include "pepanet/net_parser.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "pepa/lexer.hpp"
#include "pepa/parser.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace choreo::pepanet {

namespace {

/// The declarations that end the embedded PEPA model and open the net part.
constexpr std::array<std::string_view, 3> kNetDeclarations = {
    "token", "place", "transition"};

using pepa::Token;
using pepa::TokenKind;
using pepa::is_symbol;

class NetParser {
 public:
  NetParser(pepa::Lexer& lexer, pepa::Model model)
      : lexer_(lexer),
        parameters_(model.parameters()),
        net_(std::move(model.arena())) {}

  ParsedNet run() {
    while (true) {
      const Token& token = lexer_.next();
      if (token.kind == TokenKind::kEnd) break;
      if (!is_symbol(token, "@")) {
        lexer_.fail(token, util::msg("expected a net declaration ('@'), found '",
                                     token.text, "'"));
      }
      const Token& keyword = lexer_.expect_identifier("a declaration keyword");
      if (keyword.text == "token") {
        parse_token_decl();
      } else if (keyword.text == "place") {
        parse_place_decl();
      } else if (keyword.text == "transition") {
        parse_transition_decl();
      } else {
        lexer_.fail(keyword,
                    util::msg("unknown declaration '@", keyword.text, "'"));
      }
    }
    // Cooperation structure, once all firing types are known (they must be
    // excluded from the shared alphabets): explicit 'sync' declarations win,
    // places without them get the shared-alphabet default.
    for (PlaceId place = 0; place < net_.place_count(); ++place) {
      if (!explicit_syncs_[place].empty()) {
        net_.set_coop_sets(place, explicit_syncs_[place]);
      } else {
        net_.use_shared_alphabet_cooperation(place);
      }
    }
    net_.validate();
    ParsedNet parsed;
    parsed.net = std::move(net_);
    parsed.parameters = std::move(parameters_);
    return parsed;
  }

 private:
  void expect_keyword(const char* word) {
    const Token& token = lexer_.next();
    if (token.kind != TokenKind::kIdentifier || token.text != word) {
      lexer_.fail(token, util::msg("expected '", word, "'"));
    }
  }
  pepa::ProcessId constant_term(const Token& name) {
    auto constant = net_.arena().find_constant(name.text);
    if (!constant || !net_.arena().is_defined(*constant)) {
      lexer_.fail(name, util::msg("'", name.text,
                                  "' is not a defined PEPA process"));
    }
    return net_.arena().constant(*constant);
  }

  void parse_token_decl() {
    const Token& name = lexer_.expect_identifier("a token type name");
    const pepa::ProcessId initial = constant_term(name);
    lexer_.expect_symbol(";");
    net_.add_token_type(name.text, initial);
  }

  void parse_place_decl() {
    const Token& name = lexer_.expect_identifier("a place name");
    const PlaceId place = net_.add_place(name.text);
    explicit_syncs_.emplace_back();
    lexer_.expect_symbol("{");
    while (true) {
      const Token& token = lexer_.next();
      if (is_symbol(token, "}")) return;
      if (token.kind != TokenKind::kIdentifier) {
        lexer_.fail(token, "expected 'cell', 'static' or '}'");
      }
      if (token.text == "cell") {
        const Token& type_name = lexer_.expect_identifier("a token type name");
        auto type = net_.find_token_type(type_name.text);
        if (!type) {
          lexer_.fail(type_name, util::msg("unknown token type '",
                                           type_name.text, "'"));
        }
        pepa::ProcessId initial = kVacant;
        if (is_symbol(lexer_.peek(), "=")) {
          lexer_.next();
          initial =
              constant_term(lexer_.expect_identifier("an initial process name"));
        }
        lexer_.expect_symbol(";");
        net_.add_cell(place, *type, initial);
      } else if (token.text == "static") {
        const pepa::ProcessId initial =
            constant_term(lexer_.expect_identifier("a process name"));
        lexer_.expect_symbol(";");
        net_.add_static(place, initial);
      } else if (token.text == "sync") {
        // Explicit cooperation set for the next fold boundary (slot i vs
        // the fold of slots i+1..); overrides the shared-alphabet default
        // for the whole place.
        lexer_.expect_symbol("<");
        std::vector<pepa::ActionId> set;
        while (!is_symbol(lexer_.peek(), ">")) {
          set.push_back(net_.arena().action(
              lexer_.expect_identifier("an action name in sync set").text));
          if (is_symbol(lexer_.peek(), ",")) lexer_.next();
        }
        lexer_.next();
        lexer_.expect_symbol(";");
        explicit_syncs_.back().push_back(std::move(set));
      } else {
        lexer_.fail(token,
                    util::msg("expected 'cell', 'static' or 'sync', found '",
                              token.text, "'"));
      }
    }
  }

  std::vector<PlaceId> parse_place_list(const char* terminator_word) {
    std::vector<PlaceId> places;
    while (true) {
      const Token& name = lexer_.expect_identifier("a place name");
      auto place = net_.find_place(name.text);
      if (!place) {
        lexer_.fail(name, util::msg("unknown place '", name.text, "'"));
      }
      places.push_back(*place);
      if (is_symbol(lexer_.peek(), ",")) {
        lexer_.next();
        continue;
      }
      if (terminator_word[0] != '\0') expect_keyword(terminator_word);
      return places;
    }
  }

  void parse_transition_decl() {
    const Token& name =
        lexer_.expect_identifier("a transition (firing action) name");
    lexer_.expect_symbol("(");
    expect_keyword("rate");
    const pepa::Rate rate = pepa::parse_rate(lexer_, parameters_);
    unsigned priority = 1;
    if (is_symbol(lexer_.peek(), ",")) {
      lexer_.next();
      expect_keyword("priority");
      const Token& number = lexer_.next();
      if (number.kind != TokenKind::kNumber ||
          !(number.number <= std::numeric_limits<unsigned>::max()) ||
          number.number != std::floor(number.number)) {
        lexer_.fail(number, util::msg("expected a non-negative integer priority, "
                                      "found '", number.text, "'"));
      }
      priority = static_cast<unsigned>(number.number);
    }
    lexer_.expect_symbol(")");
    expect_keyword("from");
    const std::vector<PlaceId> inputs = parse_place_list("to");
    const std::vector<PlaceId> outputs = parse_place_list("");
    lexer_.expect_symbol(";");
    net_.add_transition(name.text, rate, inputs, outputs, priority);
  }

  pepa::Lexer& lexer_;
  pepa::Parameters parameters_;
  PepaNet net_;
  /// Per place: explicit 'sync' cooperation sets (empty = use the default).
  std::vector<std::vector<std::vector<pepa::ActionId>>> explicit_syncs_;
};

}  // namespace

ParsedNet parse_net(std::string_view source, std::string source_name) {
  pepa::Lexer lexer(source, source_name);
  pepa::Model model = pepa::parse_model(lexer, kNetDeclarations);
  if (lexer.peek().kind == TokenKind::kEnd) {
    throw util::ParseError(std::move(source_name), 1, 1,
                           "no net declarations (@token/@place/@transition)");
  }
  return NetParser(lexer, std::move(model)).run();
}

bool is_net_source(std::string_view source) {
  try {
    const pepa::Lexer lexer(source, "");
    for (std::size_t i = 0; lexer.peek(i).kind != TokenKind::kEnd; ++i) {
      const Token& name = lexer.peek(i + 1);
      if (is_symbol(lexer.peek(i), "@") && name.kind == TokenKind::kIdentifier &&
          std::find(kNetDeclarations.begin(), kNetDeclarations.end(),
                    name.text) != kNetDeclarations.end()) {
        return true;
      }
    }
  } catch (const util::ParseError&) {
    // Not lexable as either format; parse_model reports the error.
  }
  return false;
}

ParsedNet parse_net_file(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) throw util::Error(util::msg("cannot open '", path, "'"));
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  const std::string contents = buffer.str();
  return parse_net(contents, path);
}

}  // namespace choreo::pepanet
