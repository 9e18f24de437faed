// Parser for the concrete PEPA syntax (the PEPA Workbench dialect):
//
//   // a comment
//   r  = 2.0;                          // rate parameter (numeric expression)
//   File      = (openread, r).InStream + (openwrite, r).OutStream;
//   InStream  = (read, 1.8).InStream + (close, 3.0).File;
//   OutStream = (write, 1.2).OutStream + (close, 3.0).File;
//   Reader    = (openread, infty).(read, infty).(close, infty).Reader;
//   System    = File <openread, read, close> Reader;
//   @system System;                    // optional; defaults to the last def
//
// Rates are numeric expressions over literals and previously defined
// parameters (+ - * / and parentheses), the passive rate "infty" (alias
// "T"), or a weighted passive "2 * infty".  A definition whose right-hand
// side is a pure numeric expression over known parameters defines a
// parameter; anything else defines a process.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "pepa/model.hpp"

namespace choreo::pepa {

class Lexer;

/// Rate parameters by name, in definition order (Model::parameters()).
using Parameters = std::vector<std::pair<std::string, double>>;

/// Parses a PEPA model.  Throws util::ParseError with source positions on
/// syntax errors and util::ModelError on semantic ones (duplicate
/// definitions, tau in a cooperation set, ...).
Model parse_model(std::string_view source, std::string source_name = "<pepa>");

/// Reads the PEPA model at the head of `lexer`'s tokens and stops before the
/// first '@' directive named in `stop_at`, or at the end of input.  Formats
/// that extend PEPA (.pepanet) read on from there with the same lexer, so
/// the whole file shares one tokenizer and one set of error positions.
Model parse_model(Lexer& lexer, std::span<const std::string_view> stop_at);

/// Reads one rate expression, value only, over `parameters`: the grammar of
/// an activity rate above.  Throws util::ParseError at the expression's
/// first token unless the rate is positive and finite.
Rate parse_rate(Lexer& lexer, const Parameters& parameters);

/// Parses a model from a file on disk.
Model parse_model_file(const std::string& path);

}  // namespace choreo::pepa
