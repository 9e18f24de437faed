// Fluid (mean-field ODE) backend scaling: population-level solving whose
// cost is independent of the client count.
//
// Report, part 1 (fluid_scaling): the client/server family from 10 to 10^6
// clients, solved by the fluid backend.  The vector form has dimension 4
// at every N, so build + integration stay milliseconds while the exact
// chain would be unbuildable long before 10^6.
//
// Report, part 2 (fluid_vs_exact): at N where the exact population
// (count-vector) chain — StateSpace::derive's quotient — is still solvable, the fluid throughput converges
// to the exact one (the documented tolerance ladder of
// docs/architecture.md) while the exact solve cost grows with N.
#include "bench_common.hpp"

#include <cstddef>
#include <vector>

#include "ctmc/steady_state.hpp"
#include "fluid/analysis.hpp"
#include "pepa/families.hpp"
#include "pepa/measures.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "util/stopwatch.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {
using namespace choreo;

struct FluidRun {
  std::size_t dimension = 0;
  double build_seconds = 0.0;
  double solve_seconds = 0.0;
  std::size_t steps = 0;
  double throughput = 0.0;
};

FluidRun solve_fluid(std::size_t clients) {
  FluidRun run;
  util::Stopwatch timer;
  auto model = pepa::client_server(
      clients, {.servers = std::max<std::size_t>(1, clients / 5)});
  pepa::Semantics semantics(model.arena());
  const auto request = *model.arena().find_action("request");
  run.build_seconds = timer.seconds();

  timer.restart();
  const auto fluid = fluid::solve_steady(semantics, model.system());
  run.solve_seconds = timer.seconds();
  run.dimension = fluid.form.dimension();
  run.steps = fluid.stats.steps;
  for (const auto& [action, value] : fluid.throughputs) {
    if (action == request) run.throughput = value;
  }
  return run;
}

void report() {
  // Part 1: cost flat in N up to a million clients.
  util::TextTable scaling({"clients", "dimension", "build ms", "solve ms",
                           "ode steps", "throughput (1/s)"});
  for (const std::size_t clients :
       {std::size_t{10}, std::size_t{100}, std::size_t{1000},
        std::size_t{10'000}, std::size_t{100'000}, std::size_t{1'000'000}}) {
    const FluidRun run = solve_fluid(clients);
    scaling.add_row({std::to_string(clients), std::to_string(run.dimension),
                     util::format_double(run.build_seconds * 1e3),
                     util::format_double(run.solve_seconds * 1e3),
                     std::to_string(run.steps),
                     util::format_double(run.throughput)});
    bench::json_record(bench::JsonObject()
                           .field("experiment", "fluid_scaling")
                           .field("clients", clients)
                           .field("dimension", run.dimension)
                           .field("build_seconds", run.build_seconds)
                           .field("solve_seconds", run.solve_seconds)
                           .field("ode_steps", run.steps)
                           .field("throughput", run.throughput));
  }
  std::cout << "fluid solve of client_server(N, servers = N/5): cost is "
               "independent of N\n"
            << scaling << '\n';

  // Part 2: agreement with (and cost against) the exact population chain.
  util::TextTable accuracy({"clients", "exact states", "exact ms", "fluid ms",
                            "relative error"});
  for (const std::size_t clients :
       {std::size_t{10}, std::size_t{100}, std::size_t{1000}}) {
    auto model = pepa::client_server(
        clients, {.servers = std::max<std::size_t>(1, clients / 5)});
    pepa::Semantics semantics(model.arena());
    const auto request = *model.arena().find_action("request");

    util::Stopwatch timer;
    pepa::DeriveOptions options;
    options.aggregate = true;
    const auto population =
        pepa::StateSpace::derive(semantics, model.system(), options);
    const auto exact = ctmc::steady_state(population.generator());
    const double exact_throughput =
        pepa::action_throughput(population, exact.distribution, request);
    const double exact_seconds = timer.seconds();

    const FluidRun run = solve_fluid(clients);
    const double error =
        std::abs(run.throughput - exact_throughput) / exact_throughput;
    accuracy.add_row({std::to_string(clients),
                      std::to_string(population.state_count()),
                      util::format_double(exact_seconds * 1e3),
                      util::format_double(run.solve_seconds * 1e3),
                      util::format_double(error)});
    bench::json_record(bench::JsonObject()
                           .field("experiment", "fluid_vs_exact")
                           .field("clients", clients)
                           .field("exact_states", population.state_count())
                           .field("exact_seconds", exact_seconds)
                           .field("fluid_seconds", run.solve_seconds)
                           .field("relative_error", error));
  }
  std::cout << "fluid vs the exact population (count-vector) chain\n"
            << accuracy << '\n';
}

void BM_FluidSolve(benchmark::State& state) {
  const auto clients = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_fluid(clients).throughput);
  }
}
BENCHMARK(BM_FluidSolve)->Arg(10)->Arg(1000)->Arg(1'000'000);

}  // namespace

int main(int argc, char** argv) {
  return choreo::bench::run(argc, argv,
                            "Fluid backend: population-level mean-field "
                            "solving, cost flat in N",
                            report);
}
