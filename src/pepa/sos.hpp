// PEPA's structured operational semantics, written once.
//
// derivatives() and apparent() are the SOS rules of PEPA (prefix, choice,
// hiding, cooperation under the apparent-rate law, constant unfolding) as
// one recursion, generic over a Walk that decides
//
//   * what a move carries besides (action, rate): Walk::Target, built by
//     target() / hide() / cooperate().  pepa::Semantics interns the
//     derivative term (Target = ProcessId); a sweep point's rate-only walk
//     carries nothing (Target = NoTarget) and so never touches the arena;
//   * how a prefix reads its rate: rate(id, node), the node's own rate or a
//     sweep point's substituted value;
//   * where the recursion re-enters: the walk's memoised derivatives(id) and
//     apparent(id, action), which call back into these functions on a miss.
//
// Every user therefore emits the same moves in the same order with the same
// multiplicities: (a, r).P + (a, r).P yields two moves, and a sweep point's
// moves of a term align one-to-one with the transitions derived from it.
//
// The Walk interface:
//
//   using Target = ...;
//   const ProcessArena& arena();            // names and constant bodies
//   NodeRef node(ProcessId);                // ProcessNode or const&: a
//                                           // walk that interns copies
//   Rate rate(ProcessId prefix, const ProcessNode&);
//   Target target(ProcessId);
//   Target hide(Target, const std::vector<ActionId>& set);
//   Target cooperate(Target, const std::vector<ActionId>& set, Target);
//   const std::vector<Move<Target>>& derivatives(ProcessId);  // memoised;
//                                           // references stay valid
//   Rate apparent(ProcessId, ActionId);     // memoised
#pragma once

#include <algorithm>
#include <vector>

#include "pepa/ast.hpp"
#include "util/error.hpp"

namespace choreo::pepa::sos {

/// A move of a walk that carries no derivative term.
struct NoTarget {};

/// One enabled activity: its action, its rate and what the walk carries.
template <typename Target>
struct Move {
  ActionId action;
  Rate rate;
  [[no_unique_address]] Target target;
};

/// Marks a constant as being unfolded on this thread while in scope, and
/// throws util::ModelError when it already is: unguarded recursion.  One
/// stack per thread, empty between top-level calls, so concurrent walks
/// over shared caches each see exactly their own call tree.
class Unfolding {
 public:
  Unfolding(const ProcessArena& arena, ConstantId constant) {
    if (std::find(stack_.begin(), stack_.end(), constant) != stack_.end()) {
      throw util::ModelError(util::msg("unguarded recursion through constant '",
                                       arena.constant_name(constant), "'"));
    }
    stack_.push_back(constant);
  }
  ~Unfolding() { stack_.pop_back(); }
  Unfolding(const Unfolding&) = delete;
  Unfolding& operator=(const Unfolding&) = delete;

 private:
  static inline thread_local std::vector<ConstantId> stack_;
};

/// Apparent rate of `action` in `process`: Rate() when not enabled.
/// Throws util::ModelError on unguarded recursion and on mixed
/// active/passive offerings.
template <typename Walk>
Rate apparent(Walk& walk, ProcessId process, ActionId action) {
  decltype(auto) node = walk.node(process);
  switch (node.op) {
    case Op::kStop:
      return Rate();
    case Op::kPrefix:
      return node.action == action ? walk.rate(process, node) : Rate();
    case Op::kChoice:
      return walk.apparent(node.left, action)
          .plus(walk.apparent(node.right, action),
                walk.arena().action_name(action));
    case Op::kHiding:
      // Activities of a hidden type appear as tau; their original type has
      // apparent rate zero.  tau itself aggregates the hidden activities.
      if (action == kTau) {
        Rate sum = walk.apparent(node.left, kTau);
        for (const ActionId hidden : node.action_set) {
          sum = sum.plus(walk.apparent(node.left, hidden), "tau");
        }
        return sum;
      }
      if (set_contains(node.action_set, action)) return Rate();
      return walk.apparent(node.left, action);
    case Op::kCooperation: {
      const Rate left = walk.apparent(node.left, action);
      const Rate right = walk.apparent(node.right, action);
      if (action != kTau && set_contains(node.action_set, action)) {
        return Rate::min(left, right);
      }
      return left.plus(right, walk.arena().action_name(action));
    }
    case Op::kConstant: {
      const Unfolding unfolding(walk.arena(), node.constant);
      return walk.apparent(walk.arena().body(node.constant), action);
    }
  }
  CHOREO_ASSERT(false);
  return Rate();
}

/// All enabled activities of `process`, multiplicities preserved.  Throws
/// as apparent().
template <typename Walk>
std::vector<Move<typename Walk::Target>> derivatives(Walk& walk,
                                                     ProcessId process) {
  decltype(auto) node = walk.node(process);
  std::vector<Move<typename Walk::Target>> out;
  switch (node.op) {
    case Op::kStop:
      return out;
    case Op::kPrefix:
      out.push_back(
          {node.action, walk.rate(process, node), walk.target(node.left)});
      return out;
    case Op::kChoice: {
      const auto& left = walk.derivatives(node.left);
      const auto& right = walk.derivatives(node.right);
      out.reserve(left.size() + right.size());
      out.insert(out.end(), left.begin(), left.end());
      out.insert(out.end(), right.begin(), right.end());
      return out;
    }
    case Op::kHiding: {
      const auto& inner = walk.derivatives(node.left);
      out.reserve(inner.size());
      for (const auto& d : inner) {
        const ActionId action =
            set_contains(node.action_set, d.action) ? kTau : d.action;
        out.push_back({action, d.rate, walk.hide(d.target, node.action_set)});
      }
      return out;
    }
    case Op::kCooperation: {
      const auto& left = walk.derivatives(node.left);
      const auto& right = walk.derivatives(node.right);
      // Independent moves (action outside the cooperation set; tau is never
      // in the set).
      for (const auto& d : left) {
        if (set_contains(node.action_set, d.action)) continue;
        out.push_back({d.action, d.rate,
                       walk.cooperate(d.target, node.action_set,
                                      walk.target(node.right))});
      }
      for (const auto& d : right) {
        if (set_contains(node.action_set, d.action)) continue;
        out.push_back({d.action, d.rate,
                       walk.cooperate(walk.target(node.left), node.action_set,
                                      d.target)});
      }
      // Shared moves: each pair of co-operating activities, scaled by the
      // apparent-rate law.
      for (const ActionId shared : node.action_set) {
        const Rate apparent_left = walk.apparent(node.left, shared);
        const Rate apparent_right = walk.apparent(node.right, shared);
        if (apparent_left.is_zero() || apparent_right.is_zero()) continue;
        for (const auto& dl : left) {
          if (dl.action != shared) continue;
          for (const auto& dr : right) {
            if (dr.action != shared) continue;
            out.push_back(
                {shared,
                 cooperation_rate(dl.rate, apparent_left, dr.rate,
                                  apparent_right,
                                  walk.arena().action_name(shared)),
                 walk.cooperate(dl.target, node.action_set, dr.target)});
          }
        }
      }
      return out;
    }
    case Op::kConstant: {
      const Unfolding unfolding(walk.arena(), node.constant);
      out = walk.derivatives(walk.arena().body(node.constant));
      return out;
    }
  }
  CHOREO_ASSERT(false);
  return out;
}

}  // namespace choreo::pepa::sos
