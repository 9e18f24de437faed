// State-space derivation: breadth-first exploration of the derivation graph
// of a PEPA term, yielding the labelled transition system from which the
// CTMC generator matrix is assembled.
//
// The exploration loop itself lives in explore::run (src/explore/engine.hpp)
// — the level-synchronous multi-lane BFS shared with PEPA-net marking-graph
// derivation.  State ids, transition order and every downstream artifact
// (generator matrix, annotated XMI, DOT dumps, cache keys) are byte-identical
// for every lane count — including errors, which are raised for the first
// offending state in canonical order.
//
// Transitions are held in a CSR-indexed explore::TransitionSystem: the
// generator builds straight off the payload array, per-action measures are
// O(degree) slice lookups, and deadlock detection reads the row index.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ctmc/generator.hpp"
#include "explore/engine.hpp"
#include "explore/transition_system.hpp"
#include "pepa/semantics.hpp"
#include "pepa/vector_form.hpp"
#include "util/budget.hpp"
#include "util/striped_map.hpp"
#include "util/thread_pool.hpp"

namespace choreo::pepa {

struct DeriveOptions {
  /// Exploration aborts (util::BudgetError) beyond this many states; the
  /// paper's Section 1.1 names state-space explosion as the known hazard of
  /// the numerical approach.
  std::size_t max_states = 4'000'000;
  /// When false, passive transitions at the top level (unsynchronised
  /// passive activities) raise util::ModelError instead of being dropped.
  bool allow_top_level_passive = false;
  /// Exploration lanes per breadth-first level: 1 forces the sequential
  /// path, 0 sizes to the pool (worker count + the calling thread).  The
  /// derived space is identical for every setting.
  std::size_t threads = 0;
  /// States per work-stealing expansion chunk; 0 sizes automatically from
  /// the frontier and lane count.  A pure throughput knob — the derived
  /// space is identical for every setting.
  std::size_t chunk_grain = 0;
  /// Pool expansion chunks run on; nullptr means util::ThreadPool::shared().
  util::ThreadPool* pool = nullptr;
  /// Resource governor: cancellation, deadline and state/byte accounting.
  /// Checked once per breadth-first level (deterministic; an interrupted
  /// derivation stops within one frontier level of the request) and charged
  /// with every discovered state.  nullptr disables governance.
  util::Budget* budget = nullptr;
  /// Derive a strong-equivalence quotient directly, so the explored space
  /// — and therefore max_states, the budget's state/byte accounting and
  /// peak memory — is the quotient, not the full interleaved chain.  One
  /// rule, shared with pepanet::NetDeriveOptions::aggregate: the states are
  /// count vectors (pepa/vector_form.hpp) when the system equation has a
  /// vector form and some group holds two or more identical replicas over
  /// the empty set — a state is "how many replicas sit in each local
  /// derivative", and parallel moves into one (target, action) merge into
  /// one transition, so the stored transitions scale with the quotient, not
  /// with the replica count.  Otherwise the full chain is derived (and
  /// still reported as aggregated()).
  ///
  /// The quotient is exact: throughputs and the presence/count measures
  /// (state_probability, mean_population) are unchanged, and it is
  /// byte-identical at every lane count, like the full space.  It is not
  /// always the coarsest lumping: synchronised identical replicas (P <a> P),
  /// replicated composites and models outside the vector-form fragment
  /// keep their symmetric states apart — post-hoc pepa::aggregate reaches
  /// the coarsest one.
  bool aggregate = false;
};

/// Counters describing one derivation run, for perf reports and the
/// service's exploration metrics (shared with the PEPA-net derivation).
using DeriveStats = explore::DeriveStats;

/// One transition of the explored labelled transition system.
struct StateTransition {
  std::size_t source;
  std::size_t target;
  ActionId action;
  double rate;
};

class StateSpace {
 public:
  /// Explores from `initial`.  State 0 is the initial state.
  static StateSpace derive(Semantics& semantics, ProcessId initial,
                           const DeriveOptions& options = {});

  std::size_t state_count() const noexcept {
    return form_ ? counts_.size() : states_.size();
  }
  /// The state's term; on count-vector spaces a representative built from
  /// the counts on demand (VectorForm::term_of).
  ProcessId state_term(std::size_t index) const;
  /// The state of `term`.  On count-vector spaces any term of the model is
  /// accepted — a full-chain state or a reordering of same-set cooperands —
  /// and located through its count vector.
  std::optional<std::size_t> index_of(ProcessId term) const;

  /// The vector form whose count vectors are this space's states, or
  /// nullptr when states are terms (see DeriveOptions::aggregate).
  const VectorForm* vector_form() const noexcept { return form_.get(); }
  /// The count vector of a state; count-vector spaces only.
  std::span<const std::uint32_t> state_counts(std::size_t index) const {
    return counts_[index];
  }

  /// Count-vector spaces only: the transition rates with `local_rates`
  /// (one per vector_form()->transitions() entry) in place of the local
  /// transitions' own rates — every state's moves re-enumerated in
  /// derivation order, so entry i belongs to transitions()[i].  Throws
  /// util::ModelError when the moves no longer align with the stored ones.
  std::vector<double> rates_under(std::span<const double> local_rates) const;

  /// The CSR-indexed labelled transition system.
  const explore::TransitionSystem<StateTransition>& lts() const noexcept {
    return lts_;
  }

  /// The flat transition payload, in canonical emission order.
  const std::vector<StateTransition>& transitions() const noexcept {
    return lts_.transitions();
  }

  /// Counters from the derivation that produced this space.
  const DeriveStats& stats() const noexcept { return stats_; }

  /// True when this space was derived with DeriveOptions::aggregate: its
  /// states are count vectors (vector_form() is set) or, when nothing
  /// collapses, the full chain's terms.
  bool aggregated() const noexcept { return aggregated_; }

  /// The CTMC generator (parallel transitions summed), built directly from
  /// the transition-system payload without an intermediate copy.
  ctmc::Generator generator() const;

  /// The transitions carrying `action`, as CTMC rated transitions — the
  /// input to ctmc::throughput.  O(degree of the action) via the action
  /// index, not a scan of the full transition vector.
  std::vector<ctmc::RatedTransition> transitions_of(ActionId action) const;

  /// States enabling no activity at all (empty rows of the CSR index).
  std::vector<std::size_t> deadlock_states() const;

 private:
  std::vector<ProcessId> states_;
  /// Sharded so concurrent expansion workers can pre-resolve transition
  /// targets against earlier levels while the serial renumbering pass owns
  /// the writes.
  util::StripedMap<ProcessId, std::size_t> index_;
  /// Count-vector spaces: the form, the states and their index (states_
  /// and index_ stay empty).
  std::unique_ptr<const VectorForm> form_;
  std::vector<CountVector> counts_;
  util::StripedMap<CountVector, std::size_t, CountVectorHash> count_index_;
  explore::TransitionSystem<StateTransition> lts_;
  DeriveStats stats_;
  bool aggregated_ = false;
};

}  // namespace choreo::pepa
