// rate_sweep: sweep::sweep over one log-spaced rate axis, one sweep at a
// time, repeating a fixed mix in a seeded order: the Tomcat servlet-cache
// model (5 states, 1,000 points) and a replicated client/server model at
// 688 and 1,696 states (100 points each).  A sweep derives once, then
// rebinds, rebuilds the generator and solves per point.
//
// The larger model stays below the 32,768 generator triplets at which
// ctmc::CsrMatrix::from_triplets sorts on util::ThreadPool::shared(), a
// pool no public call can size: at 4,096 states every point would fork
// and join nproc - 1 threads, and on a shared host the run then measures
// the scheduler rather than the sweep.
#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "ctmc/steady_state.hpp"
#include "pepa/measures.hpp"
#include "pepa/parser.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "replay.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"

namespace perfbench {

namespace {

using namespace choreo;

/// Sampled points must match a fresh derive-and-solve this closely
/// (relative to max(1, |reference|)).
constexpr double kPointTolerance = 1e-9;

struct Parameter {
  std::string name;
  double value;
};

/// One sweep of the mix: a PEPA source whose parameters are drawn from the
/// seed, the swept parameter and its axis.
struct SweepInput {
  std::string label;
  /// Source text with "@name@" placeholders for each parameter.
  std::string pattern;
  std::vector<Parameter> parameters;
  std::string axis;
  double from = 0.0;
  double to = 0.0;
  std::size_t points = 0;
  std::size_t expected_states = 0;
  /// Sampled point indices and their reference measures (by column name).
  std::vector<std::size_t> samples;
  std::vector<std::vector<std::pair<std::string, double>>> references;
  bool warm_up = false;

  /// The source with every parameter at its base value, except `axis`
  /// when `axis_value` is given.
  std::string source(const double* axis_value = nullptr) const {
    std::string text = pattern;
    for (const Parameter& parameter : parameters) {
      const double value = axis_value != nullptr && parameter.name == axis
                               ? *axis_value
                               : parameter.value;
      const std::string key = "@" + parameter.name + "@";
      for (std::size_t at = text.find(key); at != std::string::npos;
           at = text.find(key)) {
        text.replace(at, key.size(), exact(value));
      }
    }
    return text;
  }

  sweep::SweepSpec spec() const {
    sweep::SweepSpec spec;
    spec.axes.push_back(sweep::Axis::logspace(axis, from, to, points));
    return spec;
  }
};

const char* const kTomcatPattern =
    "req = @req@; offp = @offp@; locs = @locs@; exec = @exec@; resp = @resp@;\n"
    "GenerateRequest  = (request, req).WaitForResponse;\n"
    "WaitForResponse  = (response, infty).ProcessResponse;\n"
    "ProcessResponse  = (offlineProcessing, offp).GenerateRequest;\n"
    "ServerIdle       = (request, infty).ProcessRequest;\n"
    "ProcessRequest   = (locateservlet, locs).CompiledJavaCode;\n"
    "CompiledJavaCode = (execute, exec).SendHTTPResponse;\n"
    "SendHTTPResponse = (response, resp).ServerIdle;\n"
    "System = GenerateRequest <request, response> ServerIdle;\n"
    "@system System;\n";

std::string client_server_pattern(std::size_t clients) {
  return "r = @r@; s = @s@; t = @t@;\n"
         "Client = (request, r).Wait;\n"
         "Wait   = (response, infty).Think;\n"
         "Think  = (think, t).Client;\n"
         "Server = (request, infty).Serve;\n"
         "Serve  = (response, s).Server;\n"
         "System = Client[" +
         std::to_string(clients) +
         "] <request, response> Server[2];\n"
         "@system System;\n";
}

std::vector<SweepInput> generate(const Args& args, Fingerprint& fingerprint) {
  Rng rng(args.seed);
  std::vector<SweepInput> mix;
  {
    SweepInput input;
    input.label = "tomcat_cached[1000pt]";
    input.pattern = kTomcatPattern;
    input.parameters = {{"req", rng.jitter(5.0, kRateSpread)},
                        {"offp", rng.jitter(2.0, kRateSpread)},
                        {"locs", rng.jitter(40.0, kRateSpread)},
                        {"exec", rng.jitter(10.0, kRateSpread)},
                        {"resp", rng.jitter(25.0, kRateSpread)}};
    input.axis = "locs";
    input.points = 1000;
    input.expected_states = 5;
    mix.push_back(std::move(input));
  }
  for (const std::size_t clients : {6, 7}) {
    SweepInput input;
    input.label = "client_server[" + std::to_string(clients) + "cl,100pt]";
    input.pattern = client_server_pattern(clients);
    input.parameters = {{"r", rng.jitter(1.0, kRateSpread)},
                        {"s", rng.jitter(2.0, kRateSpread)},
                        {"t", rng.jitter(1.5, kRateSpread)}};
    input.axis = "r";
    input.points = 100;
    input.expected_states = clients == 6 ? 688 : 1696;
    input.warm_up = clients == 6;
    mix.push_back(std::move(input));
  }
  for (SweepInput& input : mix) {
    double base = 0.0;
    for (const Parameter& parameter : input.parameters) {
      if (parameter.name == input.axis) base = parameter.value;
    }
    input.from = base / 8.0;
    input.to = base * 8.0;
    for (int s = 0; s < 3; ++s) input.samples.push_back(rng.below(input.points));
    fingerprint.add(input.source());
    fingerprint.add(input.from);
    fingerprint.add(input.to);
    for (const std::size_t sample : input.samples) {
      fingerprint.add(static_cast<std::uint64_t>(sample));
    }
  }
  Rng order(args.seed ^ 0x6f72646572ull);
  order.shuffle(mix);
  return mix;
}

/// A fresh parse, derive and solve at one point: the reference a sweep
/// point must reproduce.
std::vector<std::pair<std::string, double>> fresh_point(
    const SweepInput& input, double value) {
  pepa::Model model = pepa::parse_model(input.source(&value), input.label);
  pepa::Semantics semantics(model.arena());
  pepa::DeriveOptions derive;
  derive.threads = 1;
  const pepa::StateSpace space =
      pepa::StateSpace::derive(semantics, model.system(), derive);
  ctmc::SolveOptions solver;
  solver.parallel = false;
  const ctmc::SolveResult solved = ctmc::steady_state(space.generator(), solver);
  std::vector<std::pair<std::string, double>> measures;
  for (const auto& [action, throughput] :
       pepa::all_throughputs(space, solved.distribution, model.arena())) {
    measures.emplace_back("throughput:" + model.arena().action_name(action),
                          throughput);
  }
  return measures;
}

class Sweeps {
 public:
  Sweeps(Context& context, std::vector<SweepInput> mix)
      : context_(context), mix_(std::move(mix)) {
    options_.backend = sweep::Backend::kExact;
    options_.solver.parallel = false;
    options_.derive.threads = 1;
    options_.threads = 1;
  }

  /// Set-up: one warm-up sweep (whose checks count like any other).
  void set_up() {
    for (SweepInput& input : mix_) {
      if (input.warm_up) run(nullptr, input);
    }
  }

  /// One round: every sweep once.  With a trace, each sweep is decomposed
  /// into the SharedStructure calls sweep() makes.
  void round(Trace* trace, std::vector<double>& latencies) {
    for (SweepInput& input : mix_) {
      const Clock::time_point start = Clock::now();
      const bool ok = run(trace, input);
      latencies.push_back(seconds_since(start));
      context_.report.op(ok);
    }
  }

  std::vector<SweepInput>& mix() { return mix_; }
  ReplayTotals& totals() { return totals_; }
  std::size_t points() const { return points_; }
  std::size_t derivations() const { return derivations_; }
  std::size_t sweeps() const { return sweeps_; }

 private:
  bool run(Trace* trace, SweepInput& input) {
    try {
      const sweep::SweepSpec spec = input.spec();
      std::vector<std::vector<double>> measures(spec.point_count());
      std::vector<std::string> names;
      std::size_t states = 0;
      if (trace == nullptr) {
        pepa::Model model = pepa::parse_model(input.source(), input.label);
        const sweep::SweepTable table = sweep::sweep(model, spec, options_);
        ++sweeps_;
        derivations_ += table.derivations;
        if (table.derivations != 1) {
          return fail(input, std::to_string(table.derivations) +
                                 " derivations, expected 1");
        }
        for (std::size_t p = 0; p < table.rows.size(); ++p) {
          if (!table.rows[p].ok()) return fail(input, table.rows[p].error);
          measures[p] = table.rows[p].measures;
        }
        names = table.measures;
        states = table.state_count;
      } else {
        states = traced_sweep(*trace, input, spec, measures, names);
      }
      if (states != input.expected_states) {
        return fail(input, std::to_string(states) + " states, expected " +
                               std::to_string(input.expected_states));
      }
      return check_samples(input, names, measures);
    } catch (const std::exception& error) {
      return fail(input, error.what());
    }
  }

  std::size_t traced_sweep(Trace& trace, const SweepInput& input,
                           const sweep::SweepSpec& spec,
                           std::vector<std::vector<double>>& measures,
                           std::vector<std::string>& names) {
    Trace::OpScope op(trace);
    pepa::Model model = [&] {
      Trace::Scope span(trace, "pepa.parse");
      return pepa::parse_model(input.source(), input.label);
    }();
    std::optional<sweep::SharedStructure> shared;
    {
      Trace::Scope span(trace, "sweep.derive_once");
      shared.emplace(model, spec.parameter_names(), options_.derive);
    }
    const pepa::StateSpace& space = shared->space();
    totals_.derive.add(space.stats(), space.state_count(),
                       space.transitions().size(), space.aggregated(), 0.0);
    names = shared->measure_names();
    for (std::size_t p = 0; p < spec.point_count(); ++p) {
      const std::vector<double> values = spec.point(p);
      const std::vector<double> rates = [&] {
        Trace::Scope span(trace, "sweep.rebind");
        sweep::RateRebinder::Point point = shared->rebinder().at(values);
        return shared->rebind_rates(point);
      }();
      const ctmc::Generator generator = [&] {
        Trace::Scope span(trace, "ctmc.generator");
        return shared->generator(rates);
      }();
      const ctmc::SolveResult solved = [&] {
        Trace::Scope span(trace, "ctmc.solve");
        return ctmc::steady_state(generator, options_.solver);
      }();
      totals_.solve.add(generator, solved);
      Trace::Scope span(trace, "sweep.measures");
      measures[p] = shared->throughputs(solved.distribution, rates);
    }
    points_ += spec.point_count();
    return space.state_count();
  }

  bool check_samples(const SweepInput& input,
                     const std::vector<std::string>& names,
                     const std::vector<std::vector<double>>& measures) {
    for (std::size_t s = 0; s < input.samples.size(); ++s) {
      const std::vector<double>& row = measures[input.samples[s]];
      if (row.size() != names.size()) return fail(input, "short result row");
      for (const auto& [name, expected] : input.references[s]) {
        std::size_t column = 0;
        while (column < names.size() && names[column] != name) ++column;
        if (column == names.size()) return fail(input, "no column " + name);
        const double scale = std::max(1.0, std::abs(expected));
        if (!(std::abs(row[column] - expected) <= kPointTolerance * scale)) {
          return fail(input, "point " + std::to_string(input.samples[s]) +
                                 " " + name + " = " + exact(row[column]) +
                                 ", fresh derive says " + exact(expected));
        }
      }
    }
    return true;
  }

  bool fail(const SweepInput& input, const std::string& what) {
    context_.report.check_failed(input.label + ": " + what);
    return false;
  }

  Context& context_;
  std::vector<SweepInput> mix_;
  sweep::SweepOptions options_;
  ReplayTotals totals_;
  std::size_t points_ = 0;
  std::size_t derivations_ = 0;
  std::size_t sweeps_ = 0;
};

}  // namespace

void run_rate_sweep(Context& context) {
  const Args& args = context.args;
  Report& report = context.report;
  Fingerprint fingerprint;
  std::vector<SweepInput> mix = generate(args, fingerprint);
  std::string labels;
  for (const SweepInput& input : mix) labels += " " + input.label;
  fingerprint.add(labels);
  report.info("mix:" + labels);
  report.info("inputs fingerprint " + fingerprint.hex());
  report.info("threads: sweep threads 1, derive threads 1, "
              "solver.parallel false, one sweep at a time");

  {
    const Clock::time_point start = Clock::now();
    for (SweepInput& input : mix) {
      const sweep::SweepSpec spec = input.spec();
      for (const std::size_t sample : input.samples) {
        input.references.push_back(fresh_point(input, spec.point(sample)[0]));
      }
    }
    if (args.inject_fault) mix.front().references.front().front().second += 1.0;
    report.info("reference: " + exact(seconds_since(start)) + " s");
  }

  Sweeps sweeps(context, std::move(mix));
  const double setup_seconds =
      median_setup_seconds(args.quick, [&] { sweeps.set_up(); });

  std::vector<double> latencies;
  const std::size_t ops_per_round = sweeps.mix().size();
  if (!args.trace) {
    const Window window =
        run_rounds(args.seconds, args.quick, ops_per_round,
                   [&] { sweeps.round(nullptr, latencies); });
    report_end_to_end(report, setup_seconds, window, latencies,
                      /*rounds_per_p99=*/1);
    return;
  }

  // A traced run alternates untraced and traced rounds over one window of
  // the same length as an untraced run.
  Trace trace(true);
  std::vector<double> traced;
  const PairedWindows windows = run_paired_rounds(
      args.seconds, args.quick, ops_per_round,
      [&] { sweeps.round(nullptr, latencies); },
      [&] { sweeps.round(&trace, traced); });
  const double derivations_per_sweep =
      static_cast<double>(sweeps.derivations()) /
      static_cast<double>(sweeps.sweeps());

  LayerValues values;
  sweeps.totals().derive.fill(values);
  sweeps.totals().solve.fill(values);
  const double points = static_cast<double>(sweeps.points());
  values["sweep.rebind_us_per_point"] =
      trace.total_self_seconds("sweep.rebind") * 1e6 / points;
  values["sweep.generator_us_per_point"] =
      trace.total_self_seconds("ctmc.generator") * 1e6 / points;
  values["sweep.solve_us_per_point"] =
      trace.total_self_seconds("ctmc.solve") * 1e6 / points;
  values["sweep.measures_us_per_point"] =
      trace.total_self_seconds("sweep.measures") * 1e6 / points;
  values["sweep.derivations"] = derivations_per_sweep;
  add_trace_summary(values, trace, windows.untraced.ops_per_s(),
                    windows.traced.ops_per_s());
  report_per_layer(report, values);
  dump_trace(context, trace);
}

}  // namespace perfbench
