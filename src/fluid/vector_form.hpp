// The mean-field (fluid) reading of the numerical vector form (Ding &
// Hillston): the structural half — groups of identical replicas with a
// count, the static cooperation tree, local transitions — is
// pepa::VectorForm (pepa/vector_form.hpp), which the exact quotient-direct
// derivation explores as a count-vector chain.  The fluid approximation
// treats the same counts as continuous and moves mass along local
// transitions at rates governed by PEPA's min-based apparent-rate
// cooperation law.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "pepa/vector_form.hpp"

namespace choreo::fluid {

struct BuildOptions {
  /// Safety bound on one component's local derivative set; the fluid
  /// representation targets few local states replicated many times.
  std::size_t max_local_states = 65'536;
  /// Accept actions whose top-level apparent rate is passive (they can
  /// never fire and contribute no flow); mirrors
  /// pepa::DeriveOptions::allow_top_level_passive.
  bool allow_top_level_passive = false;
};

using pepa::Group;
using pepa::LocalTransition;
using pepa::TreeNode;

class VectorForm : public pepa::VectorForm {
 public:
  /// Derives the vector form of `system`.  Throws util::ModelError when the
  /// term cannot be represented (see pepa::VectorForm::build; a hiding
  /// over a composition is refused here too), when an
  /// action is offered both actively and passively across independent
  /// components, or for a passively-offered top-level action unless
  /// allowed; util::BudgetError when a local derivative set exceeds the
  /// bound.
  static VectorForm build(pepa::Semantics& semantics, pepa::ProcessId system,
                          const BuildOptions& options = {});

  /// The initial population: each group's count on its initial state.
  std::vector<double> initial_state() const;

  /// The mean-field drift dx = f(x): for every group g and local transition
  /// s -a-> s', mass flows at rate T_a(g) * x[s] r / A_a(g) where A_a(g) is
  /// the group's apparent rate at x and T_a(g) the throughput apportioned
  /// to the group down the cooperation tree (full T for synchronised
  /// actions, proportional for independent ones).
  ///
  /// Passive cooperands need a continuous closure: the exact capacity of a
  /// passive side is infinite while any replica offers the action and zero
  /// otherwise, which makes the raw field discontinuous and the saturated
  /// steady state a chattering sliding mode.  The field instead scales a
  /// shared action's throughput by min(1, m) per passive cooperand, where
  /// m is the mass currently in offering states — exact in the light-load
  /// limit (m ~ 1: the active demand proceeds unthrottled) and in the
  /// saturated limit (the factor recovers the sliding-mode throughput).
  /// `dx` must have dimension() entries.
  void derivative(std::span<const double> x, std::span<double> dx) const;

  /// Root throughput of every action at population x: expected completions
  /// per time unit, the fluid analogue of pepa::action_throughput.
  std::vector<std::pair<pepa::ActionId, double>> throughputs(
      std::span<const double> x) const;

  /// Expected number of components occupying `constant` at population x
  /// (fluid analogue of pepa::mean_population).
  double population(std::span<const double> x,
                    pepa::ConstantId constant) const;

  /// An empty form (dimension 0); placeholder until build() assigns one.
  VectorForm() = default;

 private:
  /// Static offering kind of (node, action): actions a subtree can never
  /// perform are disabled; enabled ones are consistently active or passive.
  enum class Kind : std::uint8_t { kDisabled, kActive, kPassive };

  Kind kind(std::uint32_t node, std::uint32_t slot) const {
    return kinds_[node * actions().size() + slot];
  }

  /// Fills `apparent` (groups x slots) and `value`/`avail`/`throughput`
  /// (tree nodes x slots); shared by derivative() and throughputs().
  void evaluate(std::span<const double> x, std::vector<double>& apparent,
                std::vector<double>& value, std::vector<double>& avail,
                std::vector<double>& throughput) const;

  /// kinds_[node * actions().size() + slot]
  std::vector<Kind> kinds_;
  /// enabled_sources_[group][slot]: distinct vector indices of the group's
  /// states offering the action — the mass summed into the availability
  /// factor of passive cooperands.
  std::vector<std::vector<std::vector<std::uint32_t>>> enabled_sources_;
};

}  // namespace choreo::fluid
