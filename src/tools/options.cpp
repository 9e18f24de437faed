#include "tools/options.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <utility>

#include "choreographer/rates.hpp"
#include "util/strings.hpp"

namespace choreo::cli {

namespace {

constexpr unsigned kSingle = kProject | kModel | kNet | kFluid | kSweep;
constexpr unsigned kSpaces = kModel | kNet;

struct Option {
  const char* name;
  /// Placeholder of the value in the usage text; nullptr for a switch.
  const char* value;
  /// The Kind bits of the jobs the option applies to.
  unsigned kinds;
  void (*set)(Options&, const std::string& value);
};

template <typename Enum, std::size_t N>
Enum parse_enum(const std::string& value, const Enum (&choices)[N],
                const char* (*name)(Enum)) {
  std::string expected;
  for (const Enum choice : choices) {
    if (value == name(choice)) return choice;
    expected += (expected.empty() ? "" : "|") + std::string(name(choice));
  }
  throw UsageError("expected " + expected + ", got '" + value + "'");
}

constexpr ctmc::Method kMethods[] = {
    ctmc::Method::kAuto,        ctmc::Method::kDenseLU, ctmc::Method::kJacobi,
    ctmc::Method::kGaussSeidel, ctmc::Method::kSor,     ctmc::Method::kPower};
constexpr chor::Aggregation kLevels[] = {chor::Aggregation::kNone,
                                         chor::Aggregation::kExact,
                                         chor::Aggregation::kFluid};

using Arg = const std::string&;

const Option kOptions[] = {
    {"-o", "FILE", kProject | kSweep | kQueued,
     [](Options& o, Arg v) { o.job.output = v; }},
    {"--name", "LABEL", kQueued, [](Options& o, Arg v) { o.job.name = v; }},
    {"--rates", "FILE", kProject | kQueued,
     [](Options& o, Arg v) { o.job.analysis.rates = chor::parse_rates_file(v); }},
    {"--default-rate", "R", kProject | kQueued,
     [](Options& o, Arg v) { o.job.analysis.default_rate = parse_number(v); }},
    {"--solver", "METHOD", kProject | kSpaces | kSweep | kQueued,
     [](Options& o, Arg v) {
       o.job.analysis.solver.method = parse_enum(v, kMethods, ctmc::method_name);
     }},
    {"--aggregation", "none|exact|fluid", kSingle | kQueued,
     [](Options& o, Arg v) {
       o.job.analysis.aggregation = parse_enum(v, kLevels, chor::to_string);
     }},
    {"--threads", "N", kSingle | kQueued,
     [](Options& o, Arg v) { o.job.threads = parse_count(v); }},
    {"--timeout", "S", kSingle | kQueued,
     [](Options& o, Arg v) { o.job.timeout_seconds = parse_number(v); }},
    {"--fluid-rel-tol", "T", kProject | kFluid | kSweep | kQueued,
     [](Options& o, Arg v) { o.job.analysis.fluid_rel_tol = parse_number(v); }},
    {"--fluid-abs-tol", "T", kProject | kFluid | kSweep | kQueued,
     [](Options& o, Arg v) { o.job.analysis.fluid_abs_tol = parse_number(v); }},
    {"--fluid-t-end", "T", kProject | kFluid | kSweep | kQueued,
     [](Options& o, Arg v) { o.job.analysis.fluid_t_end = parse_number(v); }},
    {"--report", nullptr, kProject, [](Options& o, Arg) { o.job.report = true; }},
    {"--sensitivity", "ACTION", kProject,
     [](Options& o, Arg v) { o.job.sensitivity = v; }},
    {"--emit-pepanet", "FILE", kProject,
     [](Options& o, Arg v) { o.job.emit_pepanet = v; }},
    {"--states", nullptr, kSpaces, [](Options& o, Arg) { o.job.states = true; }},
    {"--prism", "BASE", kSpaces, [](Options& o, Arg v) { o.job.prism = v; }},
    {"--dot", "FILE", kSpaces, [](Options& o, Arg v) { o.job.dot = v; }},
    {"--lump", nullptr, kSpaces, [](Options& o, Arg) { o.job.lump = true; }},
    {"--measures", "FILE", kSpaces,
     [](Options& o, Arg v) { o.job.measures = chor::parse_measures_file(v); }},
    {"--passage-to", "NAME", kModel,
     [](Options& o, Arg v) { o.job.passage_to = v; }},
    {"--sweep", "NAME=SPEC", kSweep | kQueued,
     [](Options& o, Arg v) {
       try {
         o.job.sweep.axes.push_back(sweep::parse_axis(v));
       } catch (const util::Error& error) {
         throw UsageError(error.what());
       }
     }},
    {"--sweep-zip", nullptr, kSweep | kQueued,
     [](Options& o, Arg) { o.job.sweep.combine = sweep::Combine::kZip; }},
    {"--batch", "MANIFEST", kBatch, [](Options& o, Arg v) { o.batch = v; }},
    {"--workers", "N", kBatch,
     [](Options& o, Arg v) { o.scheduler.workers = parse_count(v); }},
    {"--queue", "N", kBatch,
     [](Options& o, Arg v) { o.scheduler.queue_capacity = parse_count(v); }},
    {"--repeat", "N", kBatch, [](Options& o, Arg v) { o.repeat = parse_count(v); }},
    {"--cache-bytes", "N", kBatch,
     [](Options& o, Arg v) { o.cache.max_bytes = parse_count(v); }},
    {"--retries", "N", kBatch,
     [](Options& o, Arg v) { o.scheduler.max_retries = parse_count(v); }},
    {"--no-metrics", nullptr, kBatch, [](Options& o, Arg) { o.metrics = false; }},
};

const Option* find_option(const std::string& name) {
  for (const Option& option : kOptions) {
    if (name == option.name) return &option;
  }
  return nullptr;
}

const char* describe(unsigned kinds) {
  // Indexed by the lowest Kind bit set.
  static const char* const kNames[] = {"an XMI project", "a PEPA model",
                                       "a PEPA net",     "a fluid solve",
                                       "a sweep",        "a batch job"};
  for (unsigned bit = 0; bit < std::size(kNames); ++bit) {
    if ((kinds & (1u << bit)) != 0) return kNames[bit];
  }
  return "this job";
}

}  // namespace

std::size_t parse_count(const std::string& value) {
  // std::stoul would accept "-1" (as 2^64 - 1), "+1" and leading blanks.
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string::npos) {
    throw UsageError("expected a count, got '" + value + "'");
  }
  try {
    return std::stoul(value);
  } catch (const std::out_of_range&) {
    throw UsageError("count '" + value + "' is out of range");
  }
}

double parse_number(const std::string& value) {
  double parsed = 0.0;
  std::size_t used = 0;
  try {
    parsed = std::stod(value, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != value.size() || !std::isfinite(parsed)) {
    throw UsageError("expected a finite number, got '" + value + "'");
  }
  return parsed;
}

void parse_args(const std::vector<std::string>& args, Options& options) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "-h" || arg == "--help") {
      options.help = true;
      continue;
    }
    if (arg.empty() || arg[0] != '-') {
      if (!options.job.input.empty()) {
        throw UsageError("unexpected argument '" + arg + "'");
      }
      options.job.input = arg;
      continue;
    }
    const Option* option = find_option(arg);
    if (option == nullptr) throw UsageError("unknown option '" + arg + "'");
    if (option->value != nullptr && i + 1 == args.size()) {
      throw UsageError(arg + " needs a value");
    }
    try {
      option->set(options, option->value != nullptr ? args[++i] : arg);
    } catch (const UsageError& error) {
      throw UsageError(arg + ": " + error.what());
    }
    options.job.flags.push_back(arg);
  }
}

void check_applies(const Job& job, unsigned kinds) {
  for (const std::string& flag : job.flags) {
    if ((find_option(flag)->kinds & kinds) == 0) {
      throw UsageError(flag + " does not apply to " + describe(kinds));
    }
  }
}

std::vector<Job> read_manifest(std::istream& in, const std::string& name,
                               const Options& defaults) {
  std::vector<Job> jobs;
  std::string line;
  for (std::size_t number = 1; std::getline(in, line); ++number) {
    std::vector<std::string> args = util::split_ws(line);
    args.erase(std::find_if(args.begin(), args.end(),
                            [](const std::string& field) {
                              return field[0] == '#';
                            }),
               args.end());
    if (args.empty()) continue;
    Options parsed = defaults;
    parsed.job.flags.clear();
    try {
      parse_args(args, parsed);
      check_applies(parsed.job, kQueued);
      if (parsed.help || parsed.job.input.empty()) {
        throw UsageError("expected INPUT [flags]");
      }
    } catch (const UsageError& error) {
      throw UsageError(util::msg(name, ":", number, ": ", error.what()));
    }
    jobs.push_back(std::move(parsed.job));
  }
  return jobs;
}

void print_usage(std::ostream& out) {
  out << "usage: choreographer INPUT [options]\n"
         "       choreographer --batch MANIFEST [options]\n"
         "INPUT is an XMI project, a PEPA net or a PEPA model; options:\n";
  for (const Option& option : kOptions) {
    out << "  " << option.name;
    if (option.value != nullptr) out << ' ' << option.value;
    out << '\n';
  }
}

}  // namespace choreo::cli
