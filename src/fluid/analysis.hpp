// High-level fluid analysis: vector form + ODE integration to steady state
// + the measures the Choreographer reflects (throughput per action,
// population / occupancy probability per named local state).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "fluid/ode.hpp"
#include "fluid/vector_form.hpp"

namespace choreo::fluid {

struct FluidOptions {
  BuildOptions build;
  /// ODE control; `ode.budget` is the governor for the whole analysis.
  OdeOptions ode;
};

struct FluidResult {
  VectorForm form;
  /// Steady-state population vector (indexed like form.dimension()).
  std::vector<double> steady;
  OdeStats stats;
  /// (action, throughput) for every action of the vector form, sorted by
  /// action id — the fluid counterpart of pepa::all_throughputs.
  std::vector<std::pair<pepa::ActionId, double>> throughputs;

  /// Expected component count occupying `constant` in steady state.
  double population(pepa::ConstantId constant) const {
    return form.population(steady, constant);
  }
};

/// Builds the vector form of `system` and integrates the mean-field ODE
/// until the steady-state detector fires.  Throws util::NumericError when
/// the integrator reaches the horizon without detecting a steady state.
FluidResult solve_steady(pepa::Semantics& semantics, pepa::ProcessId system,
                         const FluidOptions& options = {});

/// As above over an already built vector form (`options.build` unused):
/// the model at other rates is a copy with VectorForm::set_local_rates.
FluidResult solve_steady(VectorForm form, const FluidOptions& options = {});

}  // namespace choreo::fluid
