#include "pepa/semantics.hpp"

namespace choreo::pepa {

/// The SOS walk that interns derivative targets, re-entering through the
/// striped caches.
struct Semantics::Walk {
  using Target = ProcessId;

  Semantics& semantics;

  const ProcessArena& arena() const { return semantics.arena_; }
  /// A copy: interning targets may grow the arena under a reference.
  ProcessNode node(ProcessId id) const { return semantics.arena_.node(id); }
  static Rate rate(ProcessId, const ProcessNode& node) { return node.rate; }
  static ProcessId target(ProcessId id) { return id; }
  ProcessId hide(ProcessId target, const std::vector<ActionId>& set) {
    return semantics.arena_.hiding(target, set);
  }
  ProcessId cooperate(ProcessId left, const std::vector<ActionId>& set,
                      ProcessId right) {
    return semantics.arena_.cooperation(left, set, right);
  }
  const std::vector<Derivative>& derivatives(ProcessId id) {
    return semantics.derivatives(id);
  }
  Rate apparent(ProcessId id, ActionId action) {
    return semantics.apparent_rate(id, action);
  }
};

Rate Semantics::apparent_rate(ProcessId process, ActionId action) {
  const std::uint64_t key = (static_cast<std::uint64_t>(process) << 32) | action;
  if (const Rate* hit = apparent_cache_.find(key)) return *hit;
  Walk walk{*this};
  const Rate rate = sos::apparent(walk, process, action);
  return *apparent_cache_.try_emplace(key, rate).first;
}

const std::vector<Derivative>& Semantics::derivatives(ProcessId process) {
  if (const std::vector<Derivative>* hit = derivative_cache_.find(process)) {
    return *hit;
  }
  Walk walk{*this};
  std::vector<Derivative> computed = sos::derivatives(walk, process);
  return *derivative_cache_.try_emplace(process, std::move(computed)).first;
}

}  // namespace choreo::pepa
