// Derivation of the marking graph of a PEPA net and its CTMC (the paper
// treats "each marking as a distinct state").
//
// Exploration delegates to explore::run, the level-synchronous BFS shared
// with pepa::StateSpace::derive: the markings of one breadth-first level are
// expanded concurrently, then the discovered markings are renumbered
// serially in canonical order (source index, then move order), which
// reproduces the sequential FIFO numbering byte-for-byte at every lane count
// — including the error raised first.  Transitions are held in a
// CSR-indexed explore::TransitionSystem shared with the PEPA side.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "ctmc/generator.hpp"
#include "explore/transition_system.hpp"
#include "pepa/statespace.hpp"
#include "pepanet/netsemantics.hpp"
#include "util/budget.hpp"
#include "util/striped_map.hpp"
#include "util/thread_pool.hpp"

namespace choreo::pepanet {

/// Counters describing one marking-graph derivation (same shape as the PEPA
/// state-space counters, so the service reports both uniformly).
using DeriveStats = pepa::DeriveStats;

struct NetDeriveOptions {
  std::size_t max_markings = 2'000'000;
  /// Drop (rather than reject) passive moves escaping to the top level.
  bool allow_top_level_passive = false;
  /// Exploration lanes per breadth-first level: 1 forces the sequential
  /// path, 0 sizes to the pool (worker count + the calling thread).  The
  /// derived graph is identical for every setting.
  std::size_t threads = 0;
  /// Pool expansion chunks run on; nullptr means util::ThreadPool::shared().
  util::ThreadPool* pool = nullptr;
  /// Resource governor: cancellation, deadline and marking/byte accounting,
  /// checked once per breadth-first level (see pepa::DeriveOptions::budget).
  util::Budget* budget = nullptr;
  /// Derive the marking-graph quotient directly, by the rule of
  /// pepa::DeriveOptions::aggregate: count tokens when some cell class
  /// holds two or more cells — a class is the cells of one token type
  /// among the siblings of one equal-set spine of a place's cooperation
  /// fold, which are interchangeable — and the token type's local
  /// derivative set builds (pepa::local_states).  A stored marking then
  /// lists each class's tokens in local-index order, vacant cells last, so
  /// it is the class's count vector written as a marking, and moves into
  /// one (target, action, kind, net transition, place) merge with their
  /// rates summed.  max_markings, the budget accounting and peak memory
  /// cover the quotient only.  Otherwise the full marking graph is derived
  /// (and still reported as aggregated()).  Throughputs and the
  /// place/token measures are permutation-invariant and stay exact; the
  /// quotient is byte-identical at every lane count.
  bool aggregate = false;
};

struct MarkingTransition {
  std::size_t source;
  std::size_t target;
  pepa::ActionId action;
  double rate;
  bool is_firing;
  /// Valid when is_firing.
  NetTransitionId net_transition;
  /// Valid when !is_firing: the place whose context moved.
  PlaceId place;
};

class NetStateSpace {
 public:
  static NetStateSpace derive(NetSemantics& semantics,
                              const NetDeriveOptions& options = {});
  static NetStateSpace derive_from(NetSemantics& semantics, Marking initial,
                                   const NetDeriveOptions& options = {});

  std::size_t marking_count() const noexcept { return markings_.size(); }
  const Marking& marking(std::size_t index) const { return markings_[index]; }
  /// The state of any marking of the net: on counted graphs the marking is
  /// arranged first, so every permutation of a class's tokens finds its
  /// block.
  std::optional<std::size_t> index_of(const Marking& marking) const;

  /// The CSR-indexed marking-graph transition system.
  const explore::TransitionSystem<MarkingTransition>& lts() const noexcept {
    return lts_;
  }

  /// The flat transition payload, in canonical emission order.
  const std::vector<MarkingTransition>& transitions() const noexcept {
    return lts_.transitions();
  }

  /// Counters from the derivation that produced this graph.
  const DeriveStats& stats() const noexcept { return stats_; }

  /// True when derived with NetDeriveOptions::aggregate (counted or, when
  /// no cell class exists, the full graph).
  bool aggregated() const noexcept { return aggregated_; }

  ctmc::Generator generator() const;

  /// Transitions carrying `action` (both kinds), for throughput rewards.
  std::vector<ctmc::RatedTransition> transitions_of(pepa::ActionId action) const;

  /// Markings with no enabled move.
  std::vector<std::size_t> deadlock_markings() const;

 private:
  std::vector<Marking> markings_;
  /// Sharded so expansion workers can pre-resolve move targets against
  /// earlier levels while the serial renumbering pass owns the writes.
  util::StripedMap<Marking, std::size_t, MarkingHash> index_;
  explore::TransitionSystem<MarkingTransition> lts_;
  DeriveStats stats_;
  bool aggregated_ = false;

  /// Counted graphs: 2+ interchangeable cells whose tokens every stored
  /// marking lists in local-index order, vacant cells last.
  struct CellClass {
    TokenTypeId type;
    std::vector<std::size_t> offsets;  ///< into the marking vector
  };
  std::vector<CellClass> classes_;
  /// Per token type with a class: local derivative -> local index.
  std::vector<std::unordered_map<pepa::ProcessId, std::uint32_t>> local_index_;

  /// Finds the cell classes of `net` and their token types' local
  /// derivative sets, seeded by the cell contents of `initial`; leaves
  /// classes_ empty when there is none or a set does not build.
  void count_tokens(NetSemantics& semantics, const Marking& initial);
  /// Lists every class's tokens of `marking` in local-index order; false
  /// when a token lies outside its type's local derivative set.
  bool arrange(Marking& marking) const;
};

/// Steady-state throughput of an action over the marking graph.
double action_throughput(const NetStateSpace& space,
                         std::span<const double> distribution,
                         pepa::ActionId action);

/// Steady-state probability that at least one token occupies a cell of
/// `place` in the net.
double occupancy_probability(const PepaNet& net, const NetStateSpace& space,
                             std::span<const double> distribution, PlaceId place);

/// Expected number of tokens resident in cells of `place`.
double mean_tokens_at(const PepaNet& net, const NetStateSpace& space,
                      std::span<const double> distribution, PlaceId place);

/// Steady-state probability that some cell of some place holds a token whose
/// current derivative is exactly `term`.
double derivative_probability(const PepaNet& net, const NetStateSpace& space,
                              std::span<const double> distribution,
                              pepa::ProcessId term);

/// Same, identifying the derivative by its defining constant (ProcessId and
/// ConstantId share a representation, so this cannot be an overload).
double derivative_probability_by_constant(const PepaNet& net,
                                          const NetStateSpace& space,
                                          std::span<const double> distribution,
                                          pepa::ConstantId constant);

}  // namespace choreo::pepanet
