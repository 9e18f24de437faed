#include "fluid/vector_form.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "pepa/measures.hpp"
#include "util/error.hpp"

namespace choreo::fluid {

VectorForm VectorForm::build(pepa::Semantics& semantics, pepa::ProcessId system,
                             const BuildOptions& options) {
  VectorForm form;
  static_cast<pepa::VectorForm&>(form) = pepa::VectorForm::build(
      semantics, system, {.max_local_states = options.max_local_states});
  const pepa::ProcessArena& arena = form.arena();
  const std::vector<Group>& groups = form.groups();
  const std::vector<LocalTransition>& transitions = form.transitions();
  const std::vector<pepa::ActionId>& actions = form.actions();
  const std::vector<TreeNode>& tree = form.tree();
  // The mean-field drift reads every tree node as a cooperation; a hiding
  // node's relabelling has no fluid counterpart here.
  for (const TreeNode& node : tree) {
    if (node.hidden) {
      throw util::ModelError(
          "vector form: hiding or choice over a composition cannot be "
          "represented as a sequential component");
    }
  }

  // Static offering kinds, bottom up.  The tree is built children-first, so
  // a forward scan visits every child before its parent.
  const std::size_t slots = actions.size();
  form.kinds_.assign(tree.size() * slots, Kind::kDisabled);
  for (std::size_t n = 0; n < tree.size(); ++n) {
    const TreeNode& node = tree[n];
    if (node.group >= 0) {
      const Group& group = groups[node.group];
      for (std::uint32_t t = 0; t < group.transition_count; ++t) {
        const LocalTransition& lt =
            transitions[group.first_transition + t];
        Kind& kind = form.kinds_[n * slots + lt.action_slot];
        const Kind offered = lt.passive ? Kind::kPassive : Kind::kActive;
        if (kind == Kind::kDisabled) {
          kind = offered;
        } else if (kind != offered) {
          throw util::ModelError(util::msg(
              "fluid: action '", arena.action_name(lt.action),
              "' offered both actively and passively by one component"));
        }
      }
      continue;
    }
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const bool shared = pepa::set_contains(node.coop_set,
                                             actions[slot]);
      Kind combined = Kind::kDisabled;
      bool all_enabled = true;
      for (std::uint32_t child : node.children) {
        const Kind ck = form.kinds_[child * slots + slot];
        if (ck == Kind::kDisabled) {
          all_enabled = false;
          continue;
        }
        if (combined == Kind::kDisabled) {
          combined = ck;
        } else if (combined != ck) {
          if (shared) {
            // min(active, passive) = active in the T-extended ordering.
            combined = Kind::kActive;
          } else {
            throw util::ModelError(util::msg(
                "fluid: action '", arena.action_name(actions[slot]),
                "' offered both actively and passively across independent "
                "components"));
          }
        }
      }
      if (shared && !all_enabled) combined = Kind::kDisabled;
      form.kinds_[n * slots + slot] = combined;
    }
  }

  // Distinct offering states per (group, action): the mass behind the
  // availability factor of passive cooperands.
  form.enabled_sources_.resize(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const Group& group = groups[g];
    form.enabled_sources_[g].resize(slots);
    for (std::uint32_t t = 0; t < group.transition_count; ++t) {
      const LocalTransition& lt = transitions[group.first_transition + t];
      std::vector<std::uint32_t>& sources =
          form.enabled_sources_[g][lt.action_slot];
      if (std::find(sources.begin(), sources.end(), lt.source) ==
          sources.end()) {
        sources.push_back(lt.source);
      }
    }
  }

  if (!options.allow_top_level_passive) {
    for (std::size_t slot = 0; slot < slots; ++slot) {
      if (form.kind(form.root(), slot) == Kind::kPassive) {
        throw util::ModelError(util::msg(
            "action '", arena.action_name(actions[slot]),
            "' is passive at the top level of the system equation"));
      }
    }
  }
  return form;
}

std::vector<double> VectorForm::initial_state() const {
  std::vector<double> x(dimension(), 0.0);
  for (const Group& group : groups()) {
    x[group.first] = group.count;
  }
  return x;
}

void VectorForm::evaluate(std::span<const double> x,
                          std::vector<double>& apparent,
                          std::vector<double>& value,
                          std::vector<double>& avail,
                          std::vector<double>& throughput) const {
  const std::size_t slots = actions().size();
  apparent.assign(groups().size() * slots, 0.0);
  value.assign(tree().size() * slots, 0.0);
  avail.assign(tree().size() * slots, 0.0);
  throughput.assign(tree().size() * slots, 0.0);

  // Group apparent rates A_a(g) = sum_s x[s] r_a(s).
  for (std::size_t g = 0; g < groups().size(); ++g) {
    const Group& group = groups()[g];
    for (std::uint32_t t = 0; t < group.transition_count; ++t) {
      const LocalTransition& lt = transitions()[group.first_transition + t];
      apparent[g * slots + lt.action_slot] += x[lt.source] * lt.rate;
    }
  }

  // Bottom-up apparent values: min over cooperands on shared actions
  // (active offerings dominate passive ones), sums on independent ones.
  // `avail` carries the offering mass alongside: the continuous capacity
  // of a passive cooperand is min(1, avail) — see the header comment.
  for (std::size_t n = 0; n < tree().size(); ++n) {
    const TreeNode& node = tree()[n];
    if (node.group >= 0) {
      const std::size_t g = static_cast<std::size_t>(node.group);
      for (std::size_t slot = 0; slot < slots; ++slot) {
        value[n * slots + slot] = apparent[g * slots + slot];
        double mass = 0.0;
        for (std::uint32_t source : enabled_sources_[g][slot]) {
          mass += x[source];
        }
        avail[n * slots + slot] = mass;
      }
      continue;
    }
    for (std::size_t slot = 0; slot < slots; ++slot) {
      const Kind node_kind = kind(static_cast<std::uint32_t>(n),
                                  static_cast<std::uint32_t>(slot));
      if (node_kind == Kind::kDisabled) continue;
      const bool shared =
          pepa::set_contains(node.coop_set, actions()[slot]);
      double v = shared ? std::numeric_limits<double>::infinity() : 0.0;
      double m = shared ? std::numeric_limits<double>::infinity() : 0.0;
      double passive_factor = 1.0;
      for (std::uint32_t child : node.children) {
        const Kind ck = kind(child, static_cast<std::uint32_t>(slot));
        if (ck == Kind::kDisabled) continue;
        const double cv = value[child * slots + slot];
        const double cm = avail[child * slots + slot];
        if (!shared) {
          v += cv;
          m += cm;
          continue;
        }
        m = std::min(m, cm);
        if (ck == node_kind) {
          // Active nodes take the min over active cooperands; all-passive
          // nodes min the weights.
          v = std::min(v, cv);
        } else {
          // Passive cooperand of an active synchronisation: throttle by
          // its available offering mass.
          passive_factor *= std::min(1.0, cm);
        }
      }
      if (!std::isfinite(v)) v = 0.0;
      value[n * slots + slot] = v * passive_factor;
      avail[n * slots + slot] = m;
    }
  }

  // Top-down throughput apportionment: the root completes enabled active
  // actions at their apparent value; synchronised children receive the full
  // throughput, independent children their proportional share.
  const std::size_t slots_total = slots;
  for (std::size_t slot = 0; slot < slots_total; ++slot) {
    if (kind(root(), static_cast<std::uint32_t>(slot)) == Kind::kActive) {
      throughput[root() * slots_total + slot] = value[root() * slots_total + slot];
    }
  }
  for (std::size_t i = tree().size(); i-- > 0;) {
    const TreeNode& node = tree()[i];
    if (node.group >= 0) continue;
    for (std::size_t slot = 0; slot < slots_total; ++slot) {
      const double parent = throughput[i * slots_total + slot];
      if (parent <= 0.0) continue;
      const bool shared = pepa::set_contains(node.coop_set, actions()[slot]);
      const double total = value[i * slots_total + slot];
      for (std::uint32_t child : node.children) {
        if (kind(child, static_cast<std::uint32_t>(slot)) == Kind::kDisabled) {
          continue;
        }
        throughput[child * slots_total + slot] =
            shared ? parent
                   : (total > 0.0
                          ? parent * value[child * slots_total + slot] / total
                          : 0.0);
      }
    }
  }
}

void VectorForm::derivative(std::span<const double> x,
                            std::span<double> dx) const {
  CHOREO_ASSERT(x.size() == dimension() && dx.size() == dimension());
  std::vector<double> apparent, value, avail, throughput;
  evaluate(x, apparent, value, avail, throughput);

  std::fill(dx.begin(), dx.end(), 0.0);
  const std::size_t slots = actions().size();
  // Leaf node index per group: the tree is built leaves-before-parents, so
  // recover it by scanning once.
  for (std::size_t n = 0; n < tree().size(); ++n) {
    const TreeNode& node = tree()[n];
    if (node.group < 0) continue;
    const Group& group = groups()[node.group];
    for (std::uint32_t t = 0; t < group.transition_count; ++t) {
      const LocalTransition& lt = transitions()[group.first_transition + t];
      const double total =
          apparent[static_cast<std::size_t>(node.group) * slots +
                   lt.action_slot];
      if (total <= 0.0) continue;
      const double allotted = throughput[n * slots + lt.action_slot];
      if (allotted <= 0.0) continue;
      const double flow = allotted * x[lt.source] * lt.rate / total;
      dx[lt.source] -= flow;
      dx[lt.target] += flow;
    }
  }
}

std::vector<std::pair<pepa::ActionId, double>> VectorForm::throughputs(
    std::span<const double> x) const {
  CHOREO_ASSERT(x.size() == dimension());
  std::vector<double> apparent, value, avail, throughput;
  evaluate(x, apparent, value, avail, throughput);
  const std::size_t slots = actions().size();
  std::vector<std::pair<pepa::ActionId, double>> result;
  result.reserve(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    result.emplace_back(actions()[slot], throughput[root() * slots + slot]);
  }
  return result;
}

double VectorForm::population(std::span<const double> x,
                              pepa::ConstantId constant) const {
  CHOREO_ASSERT(x.size() == dimension());
  double total = 0.0;
  for (const Group& group : groups()) {
    for (std::size_t s = 0; s < group.states.size(); ++s) {
      if (pepa::occupies(arena(), group.states[s], constant)) {
        total += x[group.first + s];
      }
    }
  }
  return total;
}

}  // namespace choreo::fluid
