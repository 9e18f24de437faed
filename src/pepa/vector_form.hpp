// The numerical vector form of a PEPA model (Ding & Hillston): instead of
// interleaving cooperating components into one global state space, the
// system equation is read as a static cooperation tree whose leaves are
// sequential components.  Identical replicas composed over the empty
// cooperation set are merged into one *group* with a count, and the model
// state becomes a vector of occupancy counts over the groups' local
// derivative sets.
//
// This header holds the structural half of the representation and its
// exact dynamics: the count-vector moves behind quotient-direct derivation
// (pepa::StateSpace::derive with DeriveOptions::aggregate), where a state
// is "how many replicas sit in each local derivative" rather than "which
// replica sits where".  The mean-field (fluid) drift over the same
// structure lives in fluid/vector_form.hpp.
//
// Everything here is derived directly from pepa::Semantics — local
// derivative sets come from a per-component breadth-first closure, never
// from the exponential global interleaving — so construction cost is
// independent of the population size.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "pepa/semantics.hpp"

namespace choreo::pepa {

struct VectorFormOptions {
  /// Safety bound on one component's local derivative set; the vector form
  /// targets few local states replicated many times.
  std::size_t max_local_states = 65'536;
};

/// One local transition of a group, in global vector coordinates.
struct LocalTransition {
  std::uint32_t source;        ///< index into the population vector
  std::uint32_t target;        ///< index into the population vector
  ActionId action;
  std::uint32_t action_slot;   ///< index into VectorForm::actions()
  double rate;                 ///< active rate value or passive weight
  bool passive;
};

/// A maximal set of identical sequential components composed over the empty
/// cooperation set, represented once with a replica count.
struct Group {
  ProcessId initial = kInvalidProcess;  ///< shared initial derivative
  std::size_t count = 0;                ///< number of replicas
  std::uint32_t first = 0;  ///< offset of this group's states in the vector
  std::vector<ProcessId> states;  ///< local derivative set, BFS order
  std::uint32_t first_transition = 0;  ///< slice into VectorForm::transitions()
  std::uint32_t transition_count = 0;
};

/// Static cooperation structure over the groups: leaves reference groups,
/// internal nodes carry the cooperation set.  Chains of cooperations over
/// the same action set are flattened (min and + are associative), so a
/// left-deep fold of N replicas becomes one node with one counted leaf.
/// Nodes are stored children-first: a forward scan visits every child
/// before its parent.
struct TreeNode {
  std::int32_t group = -1;               ///< >= 0: leaf, index into groups()
  std::vector<std::uint32_t> children;   ///< internal node only
  std::vector<ActionId> coop_set;        ///< internal node only (sorted)
};

/// A state of the count-vector chain: replicas per local derivative,
/// indexed like the population vector.
using CountVector = std::vector<std::uint32_t>;

struct CountVectorHash {
  std::size_t operator()(const CountVector& counts) const noexcept;
};

/// One move of the count-vector chain.  Moves of one action into the same
/// target are merged (rates summed), so a state has at most one move per
/// (target, action, kind).
struct CountMove {
  CountVector target;
  ActionId action;
  Rate rate;
};

class VectorForm {
 public:
  /// Derives the vector form of `system`.  Throws util::ModelError when the
  /// term cannot be represented (hiding or choice over a composition, an
  /// action offered both actively and passively by one local transition)
  /// and util::BudgetError when a local derivative set exceeds the bound.
  static VectorForm build(Semantics& semantics, ProcessId system,
                          const VectorFormOptions& options = {});

  /// An empty form (dimension 0); placeholder until build() assigns one.
  VectorForm() = default;

  /// Length of the population vector (total local states over all groups).
  std::size_t dimension() const noexcept { return dimension_; }

  const std::vector<Group>& groups() const noexcept { return groups_; }
  const std::vector<LocalTransition>& transitions() const noexcept {
    return transitions_;
  }
  /// Actions with at least one local transition, sorted by id.
  const std::vector<ActionId>& actions() const noexcept { return actions_; }
  const std::vector<TreeNode>& tree() const noexcept { return tree_; }
  std::uint32_t root() const noexcept { return root_; }
  const ProcessArena& arena() const noexcept { return *arena_; }

  /// The local transition each Semantics::derivatives entry of the local
  /// state at `coordinate` was merged into, in emission order — how a
  /// per-derivative rate payload (a sweep point's) maps onto transitions().
  std::span<const std::uint32_t> derivative_transitions(
      std::size_t coordinate) const;

  /// The initial count vector: each group's count on its initial state.
  CountVector initial_counts() const;

  /// The merged moves of the count-vector chain at `counts`, with
  /// `local_rates` (one per transitions() entry) in place of the local
  /// transitions' own rates.  Mirrors the cooperation semantics of
  /// pepa::Semantics on counted groups: a group with x[s] replicas in local
  /// state s offers its transitions at x[s]-scaled rates, and shared
  /// actions combine one move per cooperand with pepa::cooperation_rate
  /// against the cooperands' apparent rates.  Deterministic: the order
  /// depends on `counts` and the structure only, never on rate values.
  std::vector<CountMove> moves(std::span<const std::uint32_t> counts,
                               std::span<const double> local_rates) const;

  /// Every local transition's own rate, in transitions() order.
  std::vector<double> local_rates() const;

  /// Overwrites every local transition's rate with `rates` (one per
  /// transitions() entry, active/passive kinds unchanged): the form of the
  /// same model at other rate values, e.g. a sweep point's.
  void set_local_rates(std::span<const double> rates);

  /// A representative term of `counts`: the system equation with every
  /// counted group unfolded into its replicas (balanced over the empty
  /// set).  Interns into the model's arena.
  ProcessId term_of(std::span<const std::uint32_t> counts) const;

  /// The count vector of any term of the model — the derivation's own
  /// terms or a permutation of same-set cooperands (e.g. a
  /// pepa::Canonicalizer representative) — or nullopt when `term` does not
  /// fit the cooperation tree.
  std::optional<CountVector> counts_of(ProcessId term) const;

 private:
  struct Builder;
  struct Walker;

  /// Mutable: term_of() interns representatives (the arena is thread-safe).
  ProcessArena* arena_ = nullptr;
  std::vector<Group> groups_;
  std::vector<LocalTransition> transitions_;
  std::vector<ActionId> actions_;
  std::vector<TreeNode> tree_;
  std::uint32_t root_ = 0;
  std::size_t dimension_ = 0;
  /// Per group: local derivative -> local index.
  std::vector<std::unordered_map<ProcessId, std::uint32_t>> local_index_;
  /// derivative_transitions(c) is derivative_slots_[derivative_offsets_[c]
  /// .. derivative_offsets_[c + 1]).
  std::vector<std::uint32_t> derivative_offsets_;
  std::vector<std::uint32_t> derivative_slots_;
};

}  // namespace choreo::pepa
