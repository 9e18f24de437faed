#include "pepa/statespace.hpp"

#include <memory>
#include <utility>

#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace choreo::pepa {

namespace {

/// The vector form the count-vector quotient explores, or nullptr when
/// `system` has none (outside the fragment: choice over a composition, an
/// oversized sequential component) or no group holds two or more replicas
/// — then nothing collapses and the full chain is the quotient derived.
std::unique_ptr<const VectorForm> count_vector_form(Semantics& semantics,
                                                    ProcessId system) {
  try {
    auto form = std::make_unique<VectorForm>(
        VectorForm::build(semantics, system));
    for (const Group& group : form->groups()) {
      if (group.count >= 2) return form;
    }
  } catch (const util::ModelError&) {  // BudgetError included
  }
  return nullptr;
}

}  // namespace

StateSpace StateSpace::derive(Semantics& semantics, ProcessId initial,
                              const DeriveOptions& options) {
  util::Stopwatch timer;
  StateSpace space;

  explore::EngineOptions engine;
  engine.max_states = options.max_states;
  engine.allow_top_level_passive = options.allow_top_level_passive;
  engine.threads = options.threads;
  engine.pool = options.pool;
  engine.budget = options.budget;
  // Approximate per-state footprint: the term id plus its interning entry.
  engine.bytes_per_state = sizeof(ProcessId) + 2 * sizeof(std::size_t);
  engine.space_noun = "state space";
  engine.state_noun = "states";
  engine.passive_suffix =
      "' occurs passively at the top level of the model: it would never"
      " be performed; synchronise it with an active partner";

  const ProcessId system = expand_static(semantics.arena(), initial);
  auto commit = [&space](std::size_t source, const auto& move,
                         std::size_t target) {
    space.lts_.push_back({source, target, move.action, move.rate.value()});
  };
  auto action_name = [&semantics](const auto& move) {
    return semantics.arena().action_name(move.action);
  };
  space.aggregated_ = options.aggregate;
  if (auto form = options.aggregate ? count_vector_form(semantics, system)
                                    : nullptr) {
    // Count-vector quotient: the states are already block representatives,
    // and each state's moves come merged per (target, action), so the
    // transitions scale with the quotient rather than with the replica
    // count.
    engine.bytes_per_state = 2 * (sizeof(CountVector) +
                                  form->dimension() * sizeof(std::uint32_t)) +
                             sizeof(std::size_t);
    const std::vector<double> rates = form->local_rates();
    space.stats_ = explore::run(
        space.counts_, space.count_index_, form->initial_counts(),
        [&form, &rates](const CountVector& counts) {
          return form->moves(counts, rates);
        },
        action_name, commit, engine);
    for (const Group& group : form->groups()) {
      space.stats_.collapsed_replicas += group.count - 1;
    }
    space.form_ = std::move(form);
  } else {
    space.stats_ = explore::run(
        space.states_, space.index_, system,
        [&semantics](const ProcessId& term) {
          // Copy: concurrent workers may grow the cache under the ref.
          return std::vector<Derivative>(semantics.derivatives(term));
        },
        action_name, commit, engine);
  }
  space.lts_.finalize(space.state_count());
  space.stats_.seconds = timer.seconds();
  return space;
}

ProcessId StateSpace::state_term(std::size_t index) const {
  return form_ ? form_->term_of(counts_[index]) : states_[index];
}

std::optional<std::size_t> StateSpace::index_of(ProcessId term) const {
  const std::size_t* found = nullptr;
  if (!form_) {
    found = index_.find(term);
  } else if (const auto counts = form_->counts_of(term)) {
    found = count_index_.find(*counts);
  }
  if (found == nullptr) return std::nullopt;
  return *found;
}

std::vector<double> StateSpace::rates_under(
    std::span<const double> local_rates) const {
  CHOREO_ASSERT(form_ != nullptr);
  const std::vector<StateTransition>& stored = lts_.transitions();
  std::vector<double> rates;
  rates.reserve(stored.size());
  for (std::size_t state = 0; state < counts_.size(); ++state) {
    for (const CountMove& move : form_->moves(counts_[state], local_rates)) {
      // Passive moves survive derivation only as dropped ones.
      if (move.rate.is_passive()) continue;
      const std::size_t i = rates.size();
      if (i >= stored.size() || stored[i].source != state ||
          stored[i].action != move.action) {
        throw util::ModelError(util::msg(
            "rates do not preserve the count-vector moves at state ", state,
            "; the derived state space cannot be reused"));
      }
      rates.push_back(move.rate.value());
    }
  }
  if (rates.size() != stored.size()) {
    throw util::ModelError(
        "rates do not preserve the count-vector moves; the derived state "
        "space cannot be reused");
  }
  return rates;
}

ctmc::Generator StateSpace::generator() const {
  return ctmc::Generator::build_from<StateTransition>(state_count(),
                                                      lts_.transitions());
}

std::vector<ctmc::RatedTransition> StateSpace::transitions_of(ActionId action) const {
  std::vector<ctmc::RatedTransition> out;
  const auto slice = lts_.action_transitions(action);
  out.reserve(slice.size());
  for (const std::size_t i : slice) {
    const StateTransition& t = lts_[i];
    out.push_back({t.source, t.target, t.rate});
  }
  return out;
}

std::vector<std::size_t> StateSpace::deadlock_states() const {
  return lts_.deadlock_states();
}

}  // namespace choreo::pepa
