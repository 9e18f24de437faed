#include "fluid/analysis.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace choreo::fluid {

FluidResult solve_steady(pepa::Semantics& semantics, pepa::ProcessId system,
                         const FluidOptions& options) {
  return solve_steady(VectorForm::build(semantics, system, options.build),
                      options);
}

FluidResult solve_steady(VectorForm built, const FluidOptions& options) {
  FluidResult result;
  result.form = std::move(built);

  OdeOptions ode = options.ode;
  const VectorForm& form = result.form;
  OdeSolution solution = integrate(
      [&form](double, std::span<const double> x, std::span<double> dx) {
        form.derivative(x, dx);
      },
      form.initial_state(), ode);
  if (!solution.steady_state_reached()) {
    throw util::NumericError(util::msg(
        "fluid: no steady state detected by t=", solution.end_time(),
        " (", solution.stats().steps, " steps); the model may oscillate"));
  }

  result.steady = solution.state();
  // The mean-field flows keep populations non-negative analytically; clip
  // the O(tolerance) numerical undershoot.
  for (double& value : result.steady) value = std::max(value, 0.0);
  result.stats = solution.stats();
  result.throughputs = form.throughputs(result.steady);
  return result;
}

}  // namespace choreo::fluid
