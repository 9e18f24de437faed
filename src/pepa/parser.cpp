#include "pepa/parser.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "pepa/lexer.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace choreo::pepa {

namespace {

/// A value in a rate expression: a number or a (weighted) passive rate.
/// Provenance survives evaluation when the expression is a single parameter
/// reference scaled by literals (value == scale * parameter): `param` holds
/// the name and `scale` the literal factor.  `used` lists every parameter
/// the expression referenced, so compound uses can be marked opaque.
struct RateValue {
  double value = 0.0;
  bool passive = false;
  std::string param;
  double scale = 1.0;
  std::vector<std::string> used;

  Rate bound() const {
    return passive ? Rate::passive(value) : Rate::active(value);
  }
};

/// Merges provenance after an operation that destroys the scaled-parameter
/// shape (addition, parameter-by-parameter products, ...).
void merge_used(RateValue& left, const RateValue& right) {
  left.param.clear();
  left.scale = 1.0;
  left.used.insert(left.used.end(), right.used.begin(), right.used.end());
}

bool is_identifier(const Token& token, std::string_view text) {
  return token.kind == TokenKind::kIdentifier && token.text == text;
}
bool is_passive_keyword(const Token& token) {
  return is_identifier(token, "infty") || is_identifier(token, "T");
}

// --- rate expressions -----------------------------------------------------
//
// expr := term (('+'|'-') term)*        (numbers only)
// term := factor (('*'|'/') factor)*    ('*' may combine number and infty)
// factor := NUMBER | parameter | 'infty' | 'T' | '(' expr ')' | '-' factor

class RateParser {
 public:
  RateParser(Lexer& lexer, const Parameters& parameters)
      : lexer_(lexer), parameters_(parameters) {}

  RateValue expression(bool allow_passive) {
    RateValue left = term(allow_passive);
    while (is_symbol(lexer_.peek(), "+") || is_symbol(lexer_.peek(), "-")) {
      const std::string op = lexer_.next().text;
      const RateValue right = term(allow_passive);
      if (left.passive || right.passive) {
        lexer_.fail(lexer_.peek(),
                    "passive rates only support scaling by a weight");
      }
      left.value = op == "+" ? left.value + right.value : left.value - right.value;
      merge_used(left, right);
    }
    return left;
  }

 private:
  RateValue term(bool allow_passive) {
    RateValue left = factor(allow_passive);
    while (is_symbol(lexer_.peek(), "*") || is_symbol(lexer_.peek(), "/")) {
      const Token& op_token = lexer_.peek();
      const std::string op = lexer_.next().text;
      const RateValue right = factor(allow_passive);
      if (op == "*") {
        if (left.passive && right.passive) {
          lexer_.fail(op_token, "cannot multiply two passive rates");
        }
        if (!left.param.empty() && right.param.empty()) {
          left.scale *= right.value;  // (scale * p) * literal
          left.used.insert(left.used.end(), right.used.begin(),
                           right.used.end());
        } else if (left.param.empty() && !right.param.empty()) {
          left.param = right.param;  // literal * (scale * p)
          left.scale = left.value * right.scale;
          left.used.insert(left.used.end(), right.used.begin(),
                           right.used.end());
        } else {
          merge_used(left, right);  // p * q: no single-parameter shape
        }
        left.value *= right.value;
        left.passive = left.passive || right.passive;
      } else {
        if (right.passive) lexer_.fail(op_token, "cannot divide by a passive rate");
        if (!right.param.empty()) {
          merge_used(left, right);  // dividing by a parameter is opaque
        } else {
          if (!left.param.empty()) left.scale /= right.value;
          left.used.insert(left.used.end(), right.used.begin(),
                           right.used.end());
        }
        left.value /= right.value;
      }
    }
    return left;
  }

  RateValue factor(bool allow_passive) {
    const Token& token = lexer_.peek();
    if (token.kind == TokenKind::kNumber) {
      lexer_.next();
      RateValue value;
      value.value = token.number;
      return value;
    }
    if (is_passive_keyword(token)) {
      lexer_.next();
      if (!allow_passive) {
        lexer_.fail(token, "passive rate not allowed here");
      }
      RateValue value;
      value.value = 1.0;
      value.passive = true;
      return value;
    }
    if (token.kind == TokenKind::kIdentifier) {
      lexer_.next();
      const auto parameter = std::find_if(
          parameters_.begin(), parameters_.end(),
          [&](const auto& entry) { return entry.first == token.text; });
      if (parameter == parameters_.end()) {
        lexer_.fail(token,
                    util::msg("unknown rate parameter '", token.text, "'"));
      }
      RateValue value;
      value.value = parameter->second;
      value.param = token.text;
      value.used.push_back(token.text);
      return value;
    }
    if (is_symbol(token, "(")) {
      lexer_.next();
      const RateValue inner = expression(allow_passive);
      lexer_.expect_symbol(")");
      return inner;
    }
    if (is_symbol(token, "-")) {
      lexer_.next();
      RateValue inner = factor(/*allow_passive=*/false);
      inner.value = -inner.value;
      inner.param.clear();  // a negated parameter is not a rebindable rate
      inner.scale = 1.0;
      return inner;
    }
    lexer_.fail(token, util::msg("expected a rate, found '", describe(token), "'"));
  }

  Lexer& lexer_;
  const Parameters& parameters_;
};

/// Reads an activity or transition rate: a rate expression whose value must
/// be positive and finite, reported at its first token otherwise.
RateValue read_rate(Lexer& lexer, const Parameters& parameters) {
  const Token& first = lexer.peek();
  RateValue rate = RateParser(lexer, parameters).expression(/*allow_passive=*/true);
  if (!(rate.value > 0.0) || !std::isfinite(rate.value)) {
    lexer.fail(first, util::msg("rate must be positive and finite, got ",
                                util::format_double(rate.value)));
  }
  return rate;
}

class Parser {
 public:
  explicit Parser(Lexer& lexer) : lexer_(lexer) {}

  Model run(std::span<const std::string_view> stop_at) {
    while (lexer_.peek().kind != TokenKind::kEnd) {
      if (is_symbol(lexer_.peek(), "@")) {
        const Token& directive = lexer_.peek(1);
        if (directive.kind == TokenKind::kIdentifier &&
            std::find(stop_at.begin(), stop_at.end(), directive.text) !=
                stop_at.end()) {
          break;
        }
        parse_directive();
      } else {
        parse_definition();
      }
    }
    model_.check_definitions();
    return std::move(model_);
  }

 private:
  void parse_directive() {
    lexer_.expect_symbol("@");
    const std::string directive = lexer_.expect_identifier("a directive name").text;
    if (directive == "system") {
      const Token& name_token = lexer_.peek();
      const std::string name = lexer_.expect_identifier("a process name").text;
      lexer_.expect_symbol(";");
      auto constant = model_.arena().find_constant(name);
      if (!constant) {
        lexer_.fail(name_token, util::msg("@system names unknown process '",
                                          name, "'"));
      }
      model_.set_system(model_.arena().constant(*constant));
    } else {
      lexer_.fail(lexer_.peek(), util::msg("unknown directive '@", directive, "'"));
    }
  }

  void parse_definition() {
    const Token& name_token = lexer_.peek();
    const std::string name = lexer_.expect_identifier("a definition name").text;
    if (name == "Stop" || is_passive_keyword(name_token)) {
      lexer_.fail(name_token, util::msg("'", name, "' is a reserved word"));
    }
    lexer_.expect_symbol("=");

    // Try a parameter definition first: a pure numeric expression over
    // known parameters, terminated by ';'.
    const std::size_t rewind_point = lexer_.position();
    try {
      const RateValue value = RateParser(lexer_, model_.parameters())
                                  .expression(/*allow_passive=*/false);
      if (is_symbol(lexer_.peek(), ";")) {
        lexer_.next();
        model_.add_parameter(name, value.value);
        // A derived parameter (r2 = 2 * r) is evaluated here once; sweeping
        // its inputs later would not update it, so they become opaque.
        for (const std::string& used : value.used) {
          model_.mark_parameter_opaque(used);
        }
        return;
      }
    } catch (const util::Error&) {
      // fall through to process definition
    }
    lexer_.rewind(rewind_point);

    const ProcessId body = parse_cooperation();
    lexer_.expect_symbol(";");
    const ConstantId constant = model_.arena().declare(name);
    model_.arena().define(constant, body);  // throws on redefinition
    model_.add_definition(constant);
  }

  // --- process expressions ----------------------------------------------

  ProcessId parse_cooperation() {
    ProcessId left = parse_choice();
    while (true) {
      if (is_symbol(lexer_.peek(), "<")) {
        lexer_.next();
        std::vector<ActionId> set = parse_action_list(">");
        const ProcessId right = parse_choice();
        left = model_.arena().cooperation(left, std::move(set), right);
      } else if (is_symbol(lexer_.peek(), "|") &&
                 is_symbol(lexer_.peek(1), "|")) {
        lexer_.next();
        lexer_.next();
        const ProcessId right = parse_choice();
        left = model_.arena().cooperation(left, {}, right);
      } else {
        return left;
      }
    }
  }

  ProcessId parse_choice() {
    ProcessId left = parse_prefix();
    while (is_symbol(lexer_.peek(), "+")) {
      lexer_.next();
      const ProcessId right = parse_prefix();
      left = model_.arena().choice(left, right);
    }
    return left;
  }

  ProcessId parse_prefix() {
    // An activity starts "(ident ,"; anything else parenthesised is a
    // nested process expression.
    if (is_symbol(lexer_.peek(), "(") &&
        lexer_.peek(1).kind == TokenKind::kIdentifier &&
        is_symbol(lexer_.peek(2), ",") && !is_passive_keyword(lexer_.peek(1))) {
      lexer_.next();  // (
      const std::string action_name =
          lexer_.expect_identifier("an action name").text;
      lexer_.expect_symbol(",");
      const RateValue rate = read_rate(lexer_, model_.parameters());
      lexer_.expect_symbol(")");
      lexer_.expect_symbol(".");
      const ProcessId continuation = parse_prefix();
      const ActionId action = model_.arena().action(action_name);
      const ProcessId prefix =
          model_.arena().prefix(action, rate.bound(), continuation);
      if (!rate.param.empty()) {
        model_.note_prefix_rate(prefix,
                                PrefixRateTag{rate.param, rate.scale});
      } else {
        model_.note_prefix_rate(prefix, std::nullopt);
        // Parameters consumed by a compound expression cannot be rebound
        // through a tag; the whole expression would need re-evaluation.
        for (const std::string& name : rate.used) {
          model_.mark_parameter_opaque(name);
        }
      }
      return prefix;
    }
    return parse_postfix();
  }

  ProcessId parse_postfix() {
    ProcessId process = parse_atom();
    while (true) {
      if (is_symbol(lexer_.peek(), "/") && is_symbol(lexer_.peek(1), "{")) {
        lexer_.next();  // /
        lexer_.next();  // {
        std::vector<ActionId> set = parse_action_list("}");
        process = model_.arena().hiding(process, std::move(set));
      } else if (is_symbol(lexer_.peek(), "[")) {
        // Replication array P[n]: n independent copies, P || P || ... || P.
        lexer_.next();
        // Each copy adds a cooperation term, so the arena's id range bounds
        // the count.
        const Token& count_token = lexer_.next();
        if (count_token.kind != TokenKind::kNumber ||
            !(count_token.number >= 1.0 &&
              count_token.number <= std::numeric_limits<ProcessId>::max()) ||
            count_token.number != std::floor(count_token.number)) {
          lexer_.fail(count_token,
                      util::msg("replication count must be a positive integer, "
                                "got '", describe(count_token), "'"));
        }
        lexer_.expect_symbol("]");
        const auto copies = static_cast<std::size_t>(count_token.number);
        ProcessId replicated = process;
        for (std::size_t i = 1; i < copies; ++i) {
          replicated = model_.arena().cooperation(replicated, {}, process);
        }
        process = replicated;
      } else {
        return process;
      }
    }
  }

  ProcessId parse_atom() {
    const Token& token = lexer_.peek();
    if (is_symbol(token, "(")) {
      lexer_.next();
      const ProcessId inner = parse_cooperation();
      lexer_.expect_symbol(")");
      return inner;
    }
    if (token.kind == TokenKind::kIdentifier) {
      lexer_.next();
      if (token.text == "Stop") return model_.arena().stop();
      if (model_.has_parameter(token.text)) {
        lexer_.fail(token, util::msg("'", token.text,
                                     "' is a rate parameter, not a process"));
      }
      return model_.arena().constant(token.text);
    }
    lexer_.fail(token, util::msg("expected a process expression, found '",
                                 describe(token), "'"));
  }

  std::vector<ActionId> parse_action_list(std::string_view terminator) {
    std::vector<ActionId> set;
    if (is_symbol(lexer_.peek(), terminator)) {  // empty set
      lexer_.next();
      return set;
    }
    while (true) {
      set.push_back(
          model_.arena().action(lexer_.expect_identifier("an action name").text));
      const Token& token = lexer_.next();
      if (is_symbol(token, terminator)) return set;
      if (!is_symbol(token, ",")) {
        lexer_.fail(token, util::msg("expected ',' or '", terminator,
                                     "' in action set"));
      }
    }
  }

  Lexer& lexer_;
  Model model_;
};

}  // namespace

Model parse_model(std::string_view source, std::string source_name) {
  Lexer lexer(source, std::move(source_name));
  return Parser(lexer).run({});
}

Model parse_model(Lexer& lexer, std::span<const std::string_view> stop_at) {
  return Parser(lexer).run(stop_at);
}

Rate parse_rate(Lexer& lexer, const Parameters& parameters) {
  return read_rate(lexer, parameters).bound();
}

Model parse_model_file(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) throw util::Error(util::msg("cannot open '", path, "'"));
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  const std::string contents = buffer.str();
  return parse_model(contents, path);
}

}  // namespace choreo::pepa
