// The Choreographer design platform as one command-line tool.
//
//   choreographer INPUT [options]
//   choreographer --batch MANIFEST [options]
//
// The input decides the job: an XMI project runs the Figure-4 pipeline, a
// PEPA-net source derives and solves its marking graph, a PEPA source its
// state space, and --sweep NAME=SPEC makes a PEPA model a design-space
// sweep (derived once, re-solved per point).  --batch runs XMI projects
// and sweeps through the concurrent scheduler and its result cache; each
// manifest line is `INPUT [options]` over the options beside --batch.
// options.hpp holds the option table (`choreographer --help` lists it).
//
// Exit codes: 0 success, 1 failure, 2 usage error, 3 --timeout expired.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "choreographer/extract_activity.hpp"
#include "choreographer/sensitivity.hpp"
#include "ctmc/passage.hpp"
#include "ctmc/prism_export.hpp"
#include "fluid/analysis.hpp"
#include "pepa/aggregate.hpp"
#include "pepa/dot.hpp"
#include "pepa/measures.hpp"
#include "pepa/parser.hpp"
#include "pepa/printer.hpp"
#include "pepanet/net_dot.hpp"
#include "pepanet/net_parser.hpp"
#include "pepanet/net_printer.hpp"
#include "pepanet/netaggregate.hpp"
#include "pepanet/netstatespace.hpp"
#include "service/scheduler.hpp"
#include "sweep/runner.hpp"
#include "tools/options.hpp"
#include "uml/layout.hpp"
#include "uml/xmi.hpp"
#include "util/budget.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "xml/parse.hpp"

namespace {

using namespace choreo;
using cli::Job;

std::string read_file(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) throw util::Error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream stream(path, std::ios::binary);
  if (!stream || !(stream << content) || !stream.flush()) {
    throw util::Error("cannot write '" + path + "'");
  }
}

using Throughputs = std::vector<std::pair<pepa::ActionId, double>>;

void print_throughputs(const pepa::ProcessArena& arena,
                       const Throughputs& throughputs) {
  util::TextTable table({"activity", "throughput"});
  for (const auto& [action, value] : throughputs) {
    table.add_row_values(arena.action_name(action), {value});
  }
  std::cout << table;
}

// Every action with a positive `throughput(action)`, in action-id order.
template <typename Throughput>
Throughputs positive(const pepa::ProcessArena& arena, Throughput&& throughput) {
  Throughputs result;
  for (pepa::ActionId action = 1; action < arena.action_count(); ++action) {
    const double value = throughput(action);
    if (value > 0.0) result.emplace_back(action, value);
  }
  return result;
}

void print_report(const chor::AnalysisReport& report) {
  const auto print = [](const char* column, const auto& throughputs) {
    util::TextTable table({column, "throughput (1/s)"});
    for (const auto& [name, value] : throughputs) {
      table.add_row_values(name, {value});
    }
    std::cout << table << '\n';
  };
  for (const auto& graph : report.activity_graphs) {
    std::cout << "activity graph '" << graph.graph_name << "': "
              << graph.marking_count << " markings, solved in "
              << graph.timings.solve_seconds * 1e3 << " ms\n";
    print("activity", graph.throughputs);
  }
  for (const auto& machines : report.state_machines) {
    std::cout << "state machines: " << machines.state_count
              << " joint states, solved in "
              << machines.timings.solve_seconds * 1e3 << " ms\n";
    print("action", machines.throughputs);
  }
}

int run_project(const Job& job, util::Budget* budget) {
  chor::AnalysisOptions options = job.analysis;
  options.derive_threads = job.threads;
  options.budget = budget;
  const std::string output =
      !job.output.empty() ? job.output
      : util::ends_with(job.input, ".xmi")
          ? job.input.substr(0, job.input.size() - 4) + "_analysed.xmi"
          : job.input + ".analysed";
  const auto report = chor::analyse_project_file(job.input, output, options);
  std::cout << "annotated project written to " << output << '\n';
  if (job.report) print_report(report);
  if (job.emit_pepanet.empty() && job.sensitivity.empty()) return 0;

  const uml::Model model =
      uml::from_xmi(uml::preprocess(xml::parse_file(job.input)).model);
  if (!job.emit_pepanet.empty()) {
    if (model.activity_graphs().empty()) {
      throw util::Error("--emit-pepanet needs an activity diagram");
    }
    chor::ExtractOptions extract_options;
    extract_options.default_rate = options.default_rate;
    const auto extraction = chor::extract_activity_graph(
        model.activity_graphs()[0], extract_options);
    write_file(job.emit_pepanet, pepanet::to_source(extraction.net));
    std::cout << "extracted PEPA net written to " << job.emit_pepanet << '\n';
  }
  if (!job.sensitivity.empty()) {
    chor::SensitivityOptions sensitivity_options;
    sensitivity_options.analysis = options;
    const auto sensitivity = chor::throughput_sensitivity(
        model, job.sensitivity, sensitivity_options);
    std::cout << "sensitivity of throughput(" << sensitivity.target
              << ") = " << sensitivity.base_value << ":\n";
    util::TextTable table({"activity", "rate", "elasticity"});
    for (const auto& entry : sensitivity.entries) {
      table.add_row_values(entry.activity, {entry.base_rate, entry.elasticity});
    }
    std::cout << table;
  }
  return 0;
}

int run_sweep(const Job& job, const std::string& source,
              util::Budget* budget) {
  pepa::Model model = pepa::parse_model(source, job.input);
  chor::AnalysisOptions options = job.analysis;
  options.derive_threads = job.threads;
  options.budget = budget;
  const sweep::SweepTable table =
      sweep::sweep(model, job.sweep, service::sweep_options(options));
  std::cerr << "sweep: " << table.rows.size() << " point(s), "
            << table.derivations << " derivation(s), " << table.state_count
            << " shared states, "
            << util::format_double(table.seconds * 1e3) << " ms\n";
  bool any_failed = false;
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    if (table.rows[r].ok()) continue;
    any_failed = true;
    std::cerr << "point " << r << ": " << table.rows[r].error << '\n';
  }
  const std::string rendered = util::ends_with(job.output, ".json")
                                   ? table.to_json()
                                   : table.to_csv();
  if (job.output.empty()) {
    std::cout << rendered;
  } else {
    write_file(job.output, rendered);
    std::cerr << "sweep table written to " << job.output << '\n';
  }
  return any_failed ? 1 : 0;
}

int run_fluid(const Job& job, const std::string& source,
              util::Budget* budget) {
  pepa::Model model = pepa::parse_model(source, job.input);
  pepa::Semantics semantics(model.arena());
  chor::AnalysisOptions options = job.analysis;
  options.budget = budget;
  const fluid::FluidResult result = fluid::solve_steady(
      semantics, model.system(), chor::governed_fluid(options));
  std::cout << "fluid steady state: " << result.stats.steps
            << " ODE step(s) to t = " << result.stats.end_time << "\n\n";
  Throughputs throughputs;
  for (const auto& [action, value] : result.throughputs) {
    if (action != pepa::kTau) throughputs.emplace_back(action, value);
  }
  print_throughputs(model.arena(), throughputs);
  return 0;
}

template <typename DeriveOptions>
DeriveOptions derive_options(const Job& job, util::Budget* budget) {
  DeriveOptions options;
  options.threads = job.threads;
  options.aggregate = job.analysis.aggregation == chor::Aggregation::kExact;
  options.budget = budget;
  return options;
}

// The two state spaces solve() works over: a PEPA model's derivation graph
// and a PEPA net's marking graph.
struct ModelSpace {
  static constexpr const char* kSpace = "state space";
  static constexpr const char* kState = "state";
  static constexpr const char* kGraph = "derivation graph";
  static constexpr const char* kFolded =
      "replica(s) folded into counted groups";
  pepa::Model model;
  pepa::Semantics semantics{model.arena()};
  pepa::StateSpace space;

  ModelSpace(const std::string& source, const Job& job, util::Budget* budget)
      : model(pepa::parse_model(source, job.input)),
        space(pepa::StateSpace::derive(
            semantics, model.system(),
            derive_options<pepa::DeriveOptions>(job, budget))) {}
  const pepa::ProcessArena& arena() const { return model.arena(); }
  std::size_t size() const { return space.state_count(); }
  std::string describe(std::size_t s) const {
    return pepa::to_string(model.arena(), space.state_term(s));
  }
  std::vector<std::size_t> deadlocks() const { return space.deadlock_states(); }
  ctmc::LabelledLumping lump() const { return pepa::aggregate(space); }
  std::string dot() const { return pepa::to_dot(model.arena(), space); }
  auto measures(const std::vector<chor::MeasureSpec>& specs,
                const std::vector<double>& distribution) const {
    return chor::evaluate_measures(specs, model.arena(), space, distribution);
  }
  Throughputs throughputs(const std::vector<double>& distribution) const {
    return pepa::all_throughputs(space, distribution, model.arena());
  }
};

struct NetSpace {
  static constexpr const char* kSpace = "marking graph";
  static constexpr const char* kState = "marking";
  static constexpr const char* kGraph = "marking graph";
  static constexpr const char* kFolded = "token(s) folded";
  pepanet::ParsedNet parsed;
  pepanet::NetSemantics semantics{parsed.net};
  pepanet::NetStateSpace space;

  NetSpace(const std::string& source, const Job& job, util::Budget* budget)
      : parsed(pepanet::parse_net(source, job.input)),
        space(pepanet::NetStateSpace::derive(
            semantics, derive_options<pepanet::NetDeriveOptions>(job, budget))) {}
  const pepa::ProcessArena& arena() const { return parsed.net.arena(); }
  std::size_t size() const { return space.marking_count(); }
  std::string describe(std::size_t m) const {
    return pepanet::marking_to_string(parsed.net, space.marking(m));
  }
  std::vector<std::size_t> deadlocks() const { return space.deadlock_markings(); }
  ctmc::LabelledLumping lump() const { return pepanet::aggregate(space); }
  std::string dot() const {
    return pepanet::marking_graph_to_dot(parsed.net, space);
  }
  auto measures(const std::vector<chor::MeasureSpec>& specs,
                const std::vector<double>& distribution) const {
    return chor::evaluate_measures(specs, parsed.net, space, distribution);
  }
  Throughputs throughputs(const std::vector<double>& distribution) const {
    return positive(arena(), [&](pepa::ActionId action) {
      return pepanet::action_throughput(space, distribution, action);
    });
  }
};

template <typename Space>
int solve(const Job& job, const Space& s, util::Budget* budget) {
  const bool quotient = job.analysis.aggregation == chor::Aggregation::kExact;
  const auto& stats = s.space.stats();
  std::cout << (quotient ? "quotient " : "") << Space::kSpace << ": "
            << s.size() << ' ' << Space::kState << "s, "
            << s.space.transitions().size() << " transitions (derived in "
            << stats.seconds * 1e3 << " ms)\n";
  if (stats.collapsed_replicas != 0) {
    std::cout << "quotient-direct derivation: count vectors, "
              << stats.collapsed_replicas << ' ' << Space::kFolded << '\n';
  }
  if (const auto deadlocks = s.deadlocks(); !deadlocks.empty()) {
    std::cout << "warning: " << deadlocks.size() << " deadlock "
              << Space::kState << "(s), e.g. " << s.describe(deadlocks[0])
              << '\n';
  }
  ctmc::SolveOptions solver = job.analysis.solver;
  solver.budget = budget;
  if (job.lump) {
    const auto lumping = s.lump();
    std::cout << "aggregated " << s.size() << ' ' << Space::kState
              << "s into " << lumping.block_count
              << " strong-equivalence blocks\n";
    const auto solved = ctmc::steady_state(lumping.quotient_generator(), solver);
    std::cout << "solved quotient with " << ctmc::method_name(solved.method_used)
              << ", residual " << solved.residual << "\n\n";
    print_throughputs(s.arena(), positive(s.arena(), [&](pepa::ActionId action) {
                        return lumping.throughput(solved.distribution, action);
                      }));
    return 0;
  }
  const auto solved = ctmc::steady_state(s.space.generator(), solver);
  std::cout << "solved with " << ctmc::method_name(solved.method_used) << ", "
            << solved.iterations << " iteration(s), residual "
            << solved.residual << "\n\n";
  if (!job.prism.empty()) {
    ctmc::write_prism_files(s.space.generator(), job.prism);
    std::cout << "PRISM explicit files written to " << job.prism
              << ".tra/.sta/.lab\n\n";
  }
  if (!job.dot.empty()) {
    write_file(job.dot, s.dot());
    std::cout << Space::kGraph << " written to " << job.dot << "\n\n";
  }
  if constexpr (std::is_same_v<Space, ModelSpace>) {
    if (!job.passage_to.empty()) {
      const auto constant = s.arena().find_constant(job.passage_to);
      if (!constant) {
        throw util::Error("unknown derivative '" + job.passage_to + "'");
      }
      std::vector<std::size_t> targets;
      for (std::size_t i = 0; i < s.size(); ++i) {
        if (pepa::occupies(s.arena(), s.space.state_term(i), *constant)) {
          targets.push_back(i);
        }
      }
      if (targets.empty()) {
        throw util::Error("no reachable state occupies '" + job.passage_to + "'");
      }
      std::cout << "mean first passage (initial -> " << job.passage_to << "): "
                << ctmc::mean_passage_time(s.space.generator(), 0, targets)
                << "\n\n";
    }
  }
  if (!job.measures.empty()) {
    util::TextTable table({"measure", "value"});
    for (const auto& value : s.measures(job.measures, solved.distribution)) {
      table.add_row({value.spec.to_string(),
                     value.supported ? util::format_double(value.value)
                                     : "unsupported (" + value.note + ")"});
    }
    std::cout << table;
    return 0;
  }
  if (job.states) {
    util::TextTable states({Space::kState, "probability"});
    for (std::size_t i = 0; i < s.size(); ++i) {
      states.add_row_values(s.describe(i), {solved.distribution[i]});
    }
    std::cout << states << '\n';
  }
  print_throughputs(s.arena(), s.throughputs(solved.distribution));
  return 0;
}

int run_job(const Job& job) {
  const std::string source = read_file(job.input);
  const auto first = source.find_first_not_of(" \t\r\n");
  const bool xmi = first != std::string::npos && source[first] == '<';
  // The net parser's own section markers tell a net from a plain model.
  const bool net = !xmi && (source.find("@token") != std::string::npos ||
                            source.find("@place") != std::string::npos);
  const bool fluid = job.analysis.aggregation == chor::Aggregation::kFluid;
  const bool sweep = !job.sweep.axes.empty();
  if (net && (sweep || fluid)) {
    throw cli::UsageError(std::string(sweep ? "--sweep" : "--aggregation fluid") +
                          " applies to PEPA models, not PEPA nets");
  }
  const cli::Kind kind = xmi     ? cli::kProject
                         : net   ? cli::kNet
                         : sweep ? cli::kSweep
                         : fluid ? cli::kFluid
                                 : cli::kModel;
  cli::check_applies(job, kind);

  // The clock starts here and spans parsing, derivation and every solve.
  util::Budget deadline;
  util::Budget* budget = nullptr;
  if (job.timeout_seconds > 0.0) {
    deadline.set_deadline_seconds(job.timeout_seconds);
    budget = &deadline;
  }
  switch (kind) {
    case cli::kProject: return run_project(job, budget);
    case cli::kSweep: return run_sweep(job, source, budget);
    case cli::kFluid: return run_fluid(job, source, budget);
    case cli::kNet: return solve(job, NetSpace(source, job, budget), budget);
    default: return solve(job, ModelSpace(source, job, budget), budget);
  }
}

service::JobRequest to_request(const Job& job) {
  service::JobRequest request;
  request.name = job.name.empty() ? job.input : job.name;
  request.options = job.analysis;
  // The scheduler reads 0 lanes as its own default of 1.
  request.options.derive_threads =
      job.threads != 0 ? job.threads
                       : util::ThreadPool::shared().worker_count() + 1;
  request.timeout_seconds = job.timeout_seconds;
  request.input_path = job.input;
  if (!job.output.empty()) request.output_path = job.output;
  if (!job.sweep.axes.empty()) request.sweep = job.sweep;
  return request;
}

std::string describe_sizes(const chor::AnalysisReport& report) {
  std::size_t markings = 0;
  for (const auto& graph : report.activity_graphs) markings += graph.marking_count;
  std::size_t states = 0;
  for (const auto& machines : report.state_machines) states += machines.state_count;
  std::ostringstream out;
  out << markings;
  if (states != 0) out << '+' << states;
  return out.str();
}

int run_batch(cli::Options& options) {
  std::ifstream stream(options.batch);
  if (!stream) throw util::Error("cannot open manifest '" + options.batch + "'");
  std::vector<service::JobRequest> requests;
  for (const Job& job : cli::read_manifest(stream, options.batch, options)) {
    requests.push_back(to_request(job));
  }
  if (requests.empty()) {
    throw util::Error("manifest '" + options.batch + "' contains no jobs");
  }

  service::ResultCache cache(options.cache);
  options.scheduler.cache = &cache;
  service::Scheduler scheduler(options.scheduler);
  bool any_failed = false;
  for (std::size_t pass = 1; pass <= options.repeat; ++pass) {
    std::vector<service::JobHandle> handles;
    handles.reserve(requests.size());
    for (const service::JobRequest& request : requests) {
      handles.push_back(scheduler.submit(request));
    }
    std::cout << "pass " << pass << '/' << options.repeat << " ("
              << requests.size() << " jobs, " << scheduler.worker_count()
              << " workers)\n";
    util::TextTable table({"job", "status", "attempts", "cache", "agg",
                           "markings", "queue (ms)", "run (ms)",
                           "derive (ms)"});
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const service::JobResult& result = handles[i].wait();
      const std::string& name = requests[i].name;
      any_failed |= result.status != service::JobStatus::kDone;
      table.add_row(
          {name, service::to_string(result.status),
           std::to_string(result.attempts), result.from_cache ? "hit" : "miss",
           chor::to_string(result.aggregation_used),
           describe_sizes(result.report),
           util::format_double(result.timings.queued_seconds * 1e3),
           util::format_double(result.timings.run_seconds * 1e3),
           util::format_double(result.timings.stages.derive_seconds() * 1e3)});
      if (!result.error.empty()) std::cerr << name << ": " << result.error << '\n';
      if (result.sweep) {
        std::cout << name << ": " << result.sweep->rows.size() << " points, "
                  << result.sweep->derivations << " derivations, "
                  << result.sweep->points_from_cache << " from cache\n";
      }
    }
    std::cout << table << '\n';
  }
  if (options.metrics) std::cout << service::Registry::global().exposition();
  return any_failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    cli::Options options;
    cli::parse_args({argv + 1, argv + argc}, options);
    if (options.help || (options.job.input.empty() && options.batch.empty())) {
      cli::print_usage(std::cerr);
      return 2;
    }
    if (options.batch.empty()) return run_job(options.job);
    if (!options.job.input.empty()) {
      throw cli::UsageError("--batch takes its inputs from the manifest");
    }
    cli::check_applies(options.job, cli::kBatch | cli::kQueued);
    return run_batch(options);
  } catch (const cli::UsageError& error) {
    std::cerr << "choreographer: " << error.what() << '\n';
    return 2;
  } catch (const util::InterruptedError& error) {
    std::cerr << "choreographer: " << error.what() << '\n';
    return 3;
  } catch (const std::exception& error) {
    std::cerr << "choreographer: " << error.what() << '\n';
    return 1;
  }
}
