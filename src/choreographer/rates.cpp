#include "choreographer/rates.hpp"

#include <cmath>
#include <fstream>
#include <sstream>

#include "choreographer/names.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace choreo::chor {

RateAssignments parse_rates(std::string_view source,
                            const std::string& source_name) {
  RateAssignments out;
  std::size_t line_number = 0;
  for (const std::string& raw_line : util::split(source, '\n')) {
    ++line_number;
    std::string_view line = util::trim(raw_line);
    if (const auto comment = line.find("//"); comment != std::string_view::npos) {
      line = util::trim(line.substr(0, comment));
    }
    if (line.empty() || line.front() == '#' || line.front() == '%') continue;
    const auto equals = line.find('=');
    if (equals == std::string_view::npos) {
      throw util::ParseError(source_name, line_number, 1,
                             "expected 'name = rate'");
    }
    const std::string name{util::trim(line.substr(0, equals))};
    const std::string value{util::trim(line.substr(equals + 1))};
    if (name.empty()) {
      throw util::ParseError(source_name, line_number, 1, "empty activity name");
    }
    double rate = 0.0;
    try {
      std::size_t consumed = 0;
      rate = std::stod(value, &consumed);
      if (consumed != value.size()) throw std::invalid_argument(value);
    } catch (const std::exception&) {
      throw util::ParseError(source_name, line_number, 1,
                             util::msg("malformed rate '", value, "'"));
    }
    if (!(rate > 0.0) || !std::isfinite(rate)) {
      throw util::ParseError(
          source_name, line_number, 1,
          util::msg("rate must be positive and finite, got ", rate));
    }
    out.emplace_back(name, rate);
  }
  return out;
}

RateAssignments parse_rates_file(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) throw util::Error(util::msg("cannot open '", path, "'"));
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  const std::string contents = buffer.str();
  return parse_rates(contents, path);
}

std::size_t apply_rates(uml::Model& model, const RateAssignments& rates) {
  std::size_t applied = 0;
  for (const auto& [name, rate] : rates) {
    const std::string sanitised = sanitise_identifier(name);
    for (uml::ActivityGraph& graph : model.activity_graphs()) {
      for (uml::ActivityNode& node : graph.nodes()) {
        if (node.kind != uml::ActivityNode::Kind::kAction) continue;
        if (node.name == name || sanitise_identifier(node.name) == sanitised) {
          node.tags.set("rate", util::format_double(rate));
          ++applied;
        }
      }
    }
    for (uml::StateMachine& machine : model.state_machines()) {
      for (uml::MachineTransition& t : machine.transitions()) {
        if (t.action == name || sanitise_identifier(t.action) == sanitised) {
          t.rate = rate;
          t.passive = false;
          ++applied;
        }
      }
    }
  }
  return applied;
}

}  // namespace choreo::chor
