// Structure-sharing rate rebinding: re-evaluate a PEPA model at new rate
// values without re-parsing and — crucially — without re-deriving its state
// space.
//
// Rates are baked into hash-consed process terms, so "changing a rate"
// means interning new terms.  What stays invariant is the *shape* of the
// derivation graph: which transitions exist depends only on the model's
// syntax and on the active/passive kind of each rate, never on the positive
// value of an active rate.  The rebinder exploits this:
//
//   * The parser records a PrefixRateTag for every prefix whose rate was
//     written as a single scaled parameter ("r", "2*r").  A rebinder checks
//     the swept parameters resolve to clean tags (no compound expressions,
//     no derived parameters, no hash-consing conflicts) and refuses
//     otherwise — a wrong silent rebind would be a corrupted analysis.
//
//   * Point::moves() runs PEPA's SOS rules (pepa/sos.hpp, the recursion
//     pepa::Semantics derives with) over the *base* terms with the point's
//     values substituted into tagged prefix rates, carrying only the
//     (action, rate) payload: no term is ever interned, so evaluating a
//     point is pure arithmetic over the existing DAG.  Being the same
//     recursion that derived the base space, the moves of a state align
//     one-to-one (same order, same multiplicity) with the base state's
//     transition row; the sweep runner overwrites just the rates of the
//     derived transition system (runner.cpp).
//
//   * Point::local_rates() folds those moves onto the local transitions of
//     a numerical vector form (pepa/vector_form.hpp), for backends that
//     work on the vector form instead of the state space: count-vector
//     quotients and the fluid ODE.
//
// The module also content-addresses models: structure_fingerprint() hashes
// the rate-stripped model (the identity shared by every point of a sweep)
// and RateRebinder::rate_fingerprint() hashes the full rate payload at one
// point — together they key per-point service cache entries.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "pepa/model.hpp"
#include "pepa/sos.hpp"
#include "pepa/vector_form.hpp"

namespace choreo::sweep {

/// FNV-1a hash of the rate-stripped model: operators, action and constant
/// names, cooperation/hiding sets and each rate's active/passive kind, but
/// no rate values.  Every point of a sweep shares this fingerprint; models
/// differing only in rate values collide on purpose.
std::uint64_t structure_fingerprint(pepa::Model& model);

/// One enabled activity of a base term at a sweep point: the action and the
/// substituted rate, in the exact emission order of Semantics::derivatives
/// on that term.
using RatedMove = pepa::sos::Move<pepa::sos::NoTarget>;

class RateRebinder {
 public:
  /// Prepares to sweep `parameters` of `model`.  Throws util::ModelError
  /// when a name is not a parameter, is opaque (used in a compound rate
  /// expression, feeds a derived parameter, or lost its provenance to
  /// hash-consing), or never appears as a prefix rate.  The model must
  /// outlive the rebinder; points never mutate its arena.
  RateRebinder(pepa::Model& model, std::vector<std::string> parameters);

  pepa::Model& model() noexcept { return model_; }
  const std::vector<std::string>& parameters() const noexcept {
    return parameters_;
  }
  /// The parameters' values in the base model, in parameters() order.
  const std::vector<double>& base_values() const noexcept {
    return base_values_;
  }
  /// Cached structure_fingerprint() of the model.
  std::uint64_t structure() const noexcept { return structure_; }

  /// FNV-1a hash of the model's full rate payload with `values` substituted
  /// into the swept prefixes — the per-point complement of structure().
  std::uint64_t rate_fingerprint(std::span<const double> values) const;

  /// One sweep point's evaluation context.  Not thread-safe; create one
  /// per evaluation task.  Memoises moves and apparent rates per base term,
  /// so shared subterms are evaluated once.
  class Point {
   public:
    /// The moves of a base term with this point's values substituted: the
    /// rate payload of Semantics::derivatives(base), by the same SOS
    /// recursion, without interning any term.  Throws util::ModelError on
    /// unguarded recursion and mixed active/passive offerings.
    const std::vector<RatedMove>& moves(pepa::ProcessId base);
    /// Apparent rate of `action` in a base term at this point's values.
    pepa::Rate apparent(pepa::ProcessId base, pepa::ActionId action);
    /// The rates of `form`'s local transitions at this point: each local
    /// state's moves summed onto the transitions its derivatives were
    /// merged into (VectorForm::derivative_transitions).  `form` must be
    /// built from the rebinder's model.
    std::vector<double> local_rates(const pepa::VectorForm& form);
    const std::vector<double>& values() const noexcept { return values_; }
    /// True when every swept value equals the base model's.
    bool is_identity() const noexcept { return identity_; }

   private:
    friend class RateRebinder;
    struct Walk;
    Point(const RateRebinder& owner, std::vector<double> values);

    const RateRebinder& owner_;
    std::vector<double> values_;
    bool identity_;
    std::unordered_map<pepa::ProcessId, std::vector<RatedMove>> moves_;
    std::unordered_map<std::uint64_t, pepa::Rate> apparent_;
  };

  /// An evaluation context for one point; `values` align with parameters()
  /// and must be positive and finite (util::ModelError otherwise).
  Point at(std::span<const double> values);

 private:
  friend class Point;

  pepa::Model& model_;
  std::vector<std::string> parameters_;
  std::vector<double> base_values_;
  std::uint64_t structure_ = 0;
  /// Tagged prefix -> (axis index, literal scale): rate = scale * value.
  std::unordered_map<pepa::ProcessId, std::pair<std::size_t, double>> swept_;
};

}  // namespace choreo::sweep
