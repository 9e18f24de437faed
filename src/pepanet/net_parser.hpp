// Parser for the textual .pepanet format.
//
// A net file is a PEPA model (see pepa/parser.hpp for the dialect) followed
// by net declarations:
//
//   r = 1.0;
//   InstantMessage = (transmit, r).File;
//   File      = (openread, 2.0).InStream;
//   InStream  = (read, 1.8).InStream + (close, 3.0).Stop;
//   FileReader = (openread, infty).(read, infty).(close, 5.0).FileReader;
//
//   @token InstantMessage;
//   @place input  { cell InstantMessage = InstantMessage; }
//   @place output { cell InstantMessage; static FileReader; }
//   @transition transmit (rate 2.0, priority 1) from input to output;
//
// Declarations:
//   @token <Constant>;
//       Declares a token type; the constant's definition is the initial
//       derivative of tokens of this type.
//   @place <name> { <slot>; ... }
//       slot := cell <TokenType> [= <Constant>]   (vacant without '=')
//             | static <Constant>
//       Slots cooperate on their shared alphabets (the Section-3 default),
//       firing types excluded.
//   @transition <action> (rate <r> [, priority <n>]) from <p>[, <p>...]
//                                                    to <q>[, <q>...];
//       <r> is a PEPA rate expression (numbers, parameters, + - * /,
//       "infty"/"T", w*infty); <n> is a non-negative integer.
//
// The initial marking is given by the cells' '=' initialisers.  The whole
// file is read with the PEPA lexer (pepa/lexer.hpp): comments, numbers and
// error positions follow the .pepa rules.
#pragma once

#include <string>
#include <string_view>

#include "pepanet/net.hpp"

namespace choreo::pepanet {

struct ParsedNet {
  PepaNet net;
  /// Rate parameters of the embedded PEPA model (name, value).
  std::vector<std::pair<std::string, double>> parameters;
};

/// Throws util::ParseError with the offending token's line and column on
/// syntax errors, and util::ModelError when the net is ill-formed.
ParsedNet parse_net(std::string_view source, std::string source_name = "<pepanet>");
ParsedNet parse_net_file(const std::string& path);

/// True when `source` lexes and has a net declaration (@token, @place or
/// @transition): a .pepanet rather than a plain .pepa.  Comments cannot fool
/// it; a source that does not lex is reported by whichever parser reads it.
bool is_net_source(std::string_view source);

}  // namespace choreo::pepanet
