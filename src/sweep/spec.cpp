#include "sweep/spec.hpp"

#include <cmath>
#include <set>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace choreo::sweep {

namespace {

double parse_number(std::string_view what, std::string_view text) {
  try {
    std::size_t used = 0;
    const double value = std::stod(std::string(text), &used);
    if (used != text.size()) throw std::invalid_argument("trailing input");
    return value;
  } catch (const std::exception&) {
    throw util::Error(util::msg("expected a number for ", what, ", got '",
                                text, "'"));
  }
}

// Every point of an axis is a stored value and a solve, so a count beyond
// this is a typo rather than a sweep.
constexpr std::size_t kMaxCount = 1'000'000;

std::size_t parse_count(std::string_view what, std::string_view text) {
  const double value = parse_number(what, text);
  if (!(value >= 1.0 && value <= static_cast<double>(kMaxCount)) ||
      value != std::floor(value)) {
    throw util::Error(util::msg(what, " must be an integer from 1 to ", kMaxCount,
                                ", got '", text, "'"));
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

Axis Axis::list(std::string parameter, std::vector<double> values) {
  return Axis{std::move(parameter), std::move(values)};
}

Axis Axis::linear(std::string parameter, double from, double to,
                  std::size_t count) {
  std::vector<double> values;
  values.reserve(count);
  if (count == 1) {
    values.push_back(from);
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      values.push_back(from + (to - from) * static_cast<double>(i) /
                                  static_cast<double>(count - 1));
    }
  }
  return Axis{std::move(parameter), std::move(values)};
}

Axis Axis::logspace(std::string parameter, double from, double to,
                    std::size_t count) {
  if (from <= 0.0 || to <= 0.0) {
    throw util::ModelError(util::msg("log axis '", parameter,
                                     "' needs positive endpoints"));
  }
  std::vector<double> values;
  values.reserve(count);
  if (count == 1) {
    values.push_back(from);
  } else {
    const double log_from = std::log(from);
    const double log_to = std::log(to);
    for (std::size_t i = 0; i < count; ++i) {
      values.push_back(std::exp(log_from + (log_to - log_from) *
                                               static_cast<double>(i) /
                                               static_cast<double>(count - 1)));
    }
  }
  return Axis{std::move(parameter), std::move(values)};
}

void SweepSpec::validate() const {
  if (axes.empty()) {
    throw util::ModelError("sweep specification has no axes");
  }
  std::set<std::string> seen;
  for (const Axis& axis : axes) {
    if (axis.parameter.empty()) {
      throw util::ModelError("sweep axis has an empty parameter name");
    }
    if (!seen.insert(axis.parameter).second) {
      throw util::ModelError(util::msg("sweep axis '", axis.parameter,
                                       "' appears twice"));
    }
    if (axis.values.empty()) {
      throw util::ModelError(util::msg("sweep axis '", axis.parameter,
                                       "' has no values"));
    }
    for (const double value : axis.values) {
      if (!(value > 0.0) || !std::isfinite(value)) {
        throw util::ModelError(util::msg(
            "sweep axis '", axis.parameter, "' has value ",
            util::format_double(value),
            "; rate values must be positive and finite"));
      }
    }
    if (combine == Combine::kZip &&
        axis.values.size() != axes.front().values.size()) {
      throw util::ModelError(util::msg(
          "zipped sweep axes must have equal lengths ('",
          axes.front().parameter, "' has ", axes.front().values.size(), ", '",
          axis.parameter, "' has ", axis.values.size(), ")"));
    }
  }
}

std::size_t SweepSpec::point_count() const {
  if (axes.empty()) return 0;
  if (combine == Combine::kZip) return axes.front().values.size();
  std::size_t count = 1;
  for (const Axis& axis : axes) count *= axis.values.size();
  return count;
}

std::vector<double> SweepSpec::point(std::size_t index) const {
  std::vector<double> values(axes.size());
  if (combine == Combine::kZip) {
    for (std::size_t a = 0; a < axes.size(); ++a) {
      values[a] = axes[a].values[index];
    }
    return values;
  }
  // Mixed-radix decomposition, last axis fastest.
  std::size_t rest = index;
  for (std::size_t a = axes.size(); a-- > 0;) {
    const std::size_t radix = axes[a].values.size();
    values[a] = axes[a].values[rest % radix];
    rest /= radix;
  }
  return values;
}

std::vector<std::string> SweepSpec::parameter_names() const {
  std::vector<std::string> names;
  names.reserve(axes.size());
  for (const Axis& axis : axes) names.push_back(axis.parameter);
  return names;
}

Axis parse_axis(std::string_view text) {
  const auto equals = text.find('=');
  if (equals == std::string_view::npos || equals == 0) {
    throw util::Error(util::msg("expected NAME=RANGE for a sweep axis, got '",
                                text, "'"));
  }
  std::string name(util::trim(text.substr(0, equals)));
  const std::string_view range = text.substr(equals + 1);
  if (range.empty()) {
    throw util::Error(util::msg("sweep axis '", name, "' has an empty range"));
  }
  if (range.find(',') != std::string_view::npos) {
    std::vector<double> values;
    for (const std::string& field : util::split(range, ',')) {
      values.push_back(parse_number("sweep value", util::trim(field)));
    }
    return Axis::list(std::move(name), std::move(values));
  }
  const std::vector<std::string> parts = util::split(range, ':');
  if (parts.size() == 1) {
    return Axis::list(std::move(name),
                      {parse_number("sweep value", util::trim(parts[0]))});
  }
  if (parts.size() == 3) {
    return Axis::linear(std::move(name),
                        parse_number("range start", util::trim(parts[0])),
                        parse_number("range end", util::trim(parts[1])),
                        parse_count("range count", util::trim(parts[2])));
  }
  if (parts.size() == 4 && util::trim(parts[0]) == "log") {
    return Axis::logspace(std::move(name),
                          parse_number("range start", util::trim(parts[1])),
                          parse_number("range end", util::trim(parts[2])),
                          parse_count("range count", util::trim(parts[3])));
  }
  if (parts.size() == 4 && util::trim(parts[0]) == "lin") {
    return Axis::linear(std::move(name),
                        parse_number("range start", util::trim(parts[1])),
                        parse_number("range end", util::trim(parts[2])),
                        parse_count("range count", util::trim(parts[3])));
  }
  throw util::Error(
      util::msg("malformed sweep range '", range,
                "' (expected [lin:]LO:HI:N, log:LO:HI:N or V1,V2,...)"));
}

}  // namespace choreo::sweep
