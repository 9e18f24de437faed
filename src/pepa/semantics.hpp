// Structured operational semantics of PEPA over interned terms.
//
// Provides memoised apparent rates r_alpha(P) and one-step derivatives with
// their target terms: the instantiation of the SOS rules of pepa/sos.hpp
// that interns every derivative target into the arena.  Because terms are
// hash-consed, both caches are keyed by node id and every
// semantically-identical subterm is evaluated once, which is what makes
// state-space derivation of cooperating replicas tractable.
//
// Both caches are lock-striped (util::StripedMap) with publish-on-miss:
// parallel exploration workers call derivatives()/apparent_rate()
// concurrently, compute misses outside the stripe locks, and the first
// publisher wins (the computations are deterministic, so racing results
// are identical).  Returned references are stable for the lifetime of the
// Semantics object.
//
// Derivative lists preserve multiplicity: (a, r).P + (a, r).P yields two
// entries, so downstream CTMC construction (which sums parallel transitions)
// sees the correct apparent rate 2r.
#pragma once

#include <cstdint>
#include <vector>

#include "pepa/ast.hpp"
#include "pepa/sos.hpp"
#include "util/striped_map.hpp"

namespace choreo::pepa {

/// One enabled activity of a process term: action, rate and target term.
using Derivative = sos::Move<ProcessId>;

class Semantics {
 public:
  /// The arena is mutated: derivative targets intern new terms.
  explicit Semantics(ProcessArena& arena) : arena_(arena) {}

  ProcessArena& arena() noexcept { return arena_; }
  const ProcessArena& arena() const noexcept { return arena_; }

  /// Apparent rate of `action` in `process` (total capacity for the action,
  /// Rate() when the action is not enabled).  Throws util::ModelError on
  /// unguarded recursion and on mixed active/passive offerings.
  /// Thread-safe.
  Rate apparent_rate(ProcessId process, ActionId action);

  /// All enabled activities of `process`.  Thread-safe; the returned
  /// reference stays valid for the lifetime of this Semantics.
  const std::vector<Derivative>& derivatives(ProcessId process);

 private:
  struct Walk;

  ProcessArena& arena_;
  util::StripedMap<std::uint64_t, Rate> apparent_cache_;
  util::StripedMap<ProcessId, std::vector<Derivative>> derivative_cache_;
};

}  // namespace choreo::pepa
