#include "pepa/vector_form.hpp"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <unordered_set>
#include <utility>

#include "util/error.hpp"

namespace choreo::pepa {

namespace {

/// True when `id` contains a cooperation anywhere below (through constant
/// definitions).  Sequential leaves must be composition-free: a choice over
/// a composition cannot be represented as one counted group.
bool contains_composition(const ProcessArena& arena, ProcessId id,
                          std::unordered_set<ProcessId>& seen) {
  if (!seen.insert(id).second) return false;
  const ProcessNode& node = arena.node(id);
  switch (node.op) {
    case Op::kStop:
      return false;
    case Op::kCooperation:
      return true;
    case Op::kPrefix:
    case Op::kHiding:
      return contains_composition(arena, node.left, seen);
    case Op::kChoice:
      return contains_composition(arena, node.left, seen) ||
             contains_composition(arena, node.right, seen);
    case Op::kConstant:
      return contains_composition(arena, arena.body(node.constant), seen);
  }
  return false;
}

bool contains_composition(const ProcessArena& arena, ProcessId id) {
  std::unordered_set<ProcessId> seen;
  return contains_composition(arena, id, seen);
}

/// True when `id` becomes an internal tree node: a cooperation, or a
/// hiding over a composition.
bool composite(const ProcessArena& arena, ProcessId id) {
  const ProcessNode& node = arena.node(id);
  return node.op == Op::kCooperation ||
         (node.op == Op::kHiding && contains_composition(arena, node.left));
}

/// Flattens a chain of cooperations over `set` into its maximal list of
/// operands, left to right (min and + are both associative).  Iterative:
/// replicated populations produce very deep or very wide chains.
void gather(const ProcessArena& arena, ProcessId term,
            const std::vector<ActionId>& set, std::vector<ProcessId>& out) {
  std::vector<ProcessId> stack{term};
  while (!stack.empty()) {
    const ProcessId current = stack.back();
    stack.pop_back();
    const ProcessNode& node = arena.node(current);
    if (node.op == Op::kCooperation && node.action_set == set) {
      stack.push_back(node.right);
      stack.push_back(node.left);
    } else {
      out.push_back(current);
    }
  }
}

/// Balanced fold of `operands` over `set` — the shape pepa::families uses,
/// so representative terms stay logarithmically deep in the population.
ProcessId fold(ProcessArena& arena, std::span<const ProcessId> operands,
               const std::vector<ActionId>& set) {
  if (operands.size() == 1) return operands.front();
  const std::size_t half = operands.size() / 2;
  return arena.cooperation(fold(arena, operands.first(half), set), set,
                           fold(arena, operands.subspan(half), set));
}

}  // namespace

std::size_t CountVectorHash::operator()(
    const CountVector& counts) const noexcept {
  std::size_t h = 1469598103934665603ull;
  for (const std::uint32_t value : counts) {
    h ^= value;
    h *= 1099511628211ull;
  }
  return h;
}

LocalStates local_states(Semantics& semantics,
                         std::span<const ProcessId> seeds,
                         const VectorFormOptions& options) {
  LocalStates out;
  auto add = [&](ProcessId term) {
    if (!out.index
             .try_emplace(term, static_cast<std::uint32_t>(out.states.size()))
             .second) {
      return;
    }
    if (out.states.size() >= options.max_local_states) {
      throw util::BudgetError(util::msg(
          "vector form: local derivative set exceeds ",
          options.max_local_states,
          " states; the component is not a small sequential process"));
    }
    out.states.push_back(term);
  };
  for (const ProcessId seed : seeds) {
    if (contains_composition(semantics.arena(), seed)) {
      throw util::ModelError(
          "vector form: hiding or choice over a composition cannot be "
          "represented as a sequential component");
    }
    add(seed);
  }
  for (std::size_t si = 0; si < out.states.size(); ++si) {
    for (const Derivative& d : semantics.derivatives(out.states[si])) {
      add(d.target);
    }
  }
  return out;
}

struct VectorForm::Builder {
  Semantics& semantics;
  const VectorFormOptions& options;
  std::vector<TreeNode> tree;
  std::vector<Group> groups;
  /// Per group, local-coordinate transitions (merged multiplicities).
  struct RawTransition {
    std::uint32_t source;
    std::uint32_t target;
    ActionId action;
    double rate;
    bool passive;
  };
  std::vector<std::vector<RawTransition>> raw;
  /// Per group and local state: the raw transition of each derivative.
  std::vector<std::vector<std::vector<std::uint32_t>>> derivative_raw;
  std::vector<std::unordered_map<ProcessId, std::uint32_t>> local_index;

  /// gather() per distinct operand with its occurrence count.  Hash-consing
  /// shares the identical subtrees of a replicated population, so the chain
  /// is a DAG with O(log N) distinct nodes; counting multiplicities instead
  /// of walking every occurrence keeps the build cost independent of the
  /// population size.  Operands are interned before the cooperations that
  /// use them, so visiting pending nodes in descending-id order sees every
  /// chain parent before its children.
  void gather_counted(ProcessId term, const std::vector<ActionId>& set,
                      std::vector<std::pair<ProcessId, std::size_t>>& out) {
    std::map<ProcessId, std::size_t, std::greater<ProcessId>> pending;
    pending.emplace(term, 1);
    while (!pending.empty()) {
      const auto [current, mult] = *pending.begin();
      pending.erase(pending.begin());
      const ProcessNode& node = semantics.arena().node(current);
      if (node.op == Op::kCooperation && node.action_set == set) {
        pending[node.left] += mult;
        pending[node.right] += mult;
      } else {
        out.emplace_back(current, mult);
      }
    }
  }

  std::uint32_t build_node(ProcessId term) {
    const ProcessArena& arena = semantics.arena();
    if (!composite(arena, term)) return leaf(term, 1);
    // Copies: leaf() interns derivatives, which may grow the arena.
    const ProcessNode node = arena.node(term);
    const std::vector<ActionId>& set = node.action_set;

    if (node.op == Op::kHiding) {
      TreeNode hiding;
      hiding.hidden = set;
      hiding.children.push_back(build_node(node.left));
      tree.push_back(std::move(hiding));
      return static_cast<std::uint32_t>(tree.size() - 1);
    }

    TreeNode internal;
    internal.coop_set = set;
    if (set.empty()) {
      // Identical sequential replicas interleaved over the empty set are
      // exchangeable: merge them into one counted group.  Composite
      // operands keep their own subtree per replica.
      std::vector<std::pair<ProcessId, std::size_t>> counted;
      gather_counted(term, set, counted);
      for (const auto& [part, count] : counted) {
        if (composite(arena, part)) {
          for (std::size_t i = 0; i < count; ++i) {
            internal.children.push_back(build_node(part));
          }
        } else {
          internal.children.push_back(leaf(part, count));
        }
      }
    } else {
      // Non-empty sets synchronise their operands, so every occurrence is
      // its own cooperand; these chains are written by hand and stay short.
      std::vector<ProcessId> parts;
      gather(arena, term, set, parts);
      for (ProcessId part : parts) {
        internal.children.push_back(composite(arena, part) ? build_node(part)
                                                           : leaf(part, 1));
      }
    }
    if (internal.children.size() == 1) return internal.children.front();
    tree.push_back(std::move(internal));
    return static_cast<std::uint32_t>(tree.size() - 1);
  }

  /// One counted group over the local derivative set of `term`.
  std::uint32_t leaf(ProcessId term, std::size_t count) {
    const ProcessArena& arena = semantics.arena();
    LocalStates closure = local_states(semantics, {&term, 1}, options);

    Group group;
    group.initial = term;
    group.count = count;
    group.states = std::move(closure.states);

    std::vector<RawTransition> local;
    std::vector<std::vector<std::uint32_t>> slots(group.states.size());
    for (std::uint32_t si = 0; si < group.states.size(); ++si) {
      for (const Derivative& d : semantics.derivatives(group.states[si])) {
        const std::uint32_t target = closure.index.at(d.target);
        // Merge multiplicity: parallel (s, a, s') activities sum their
        // rates (the apparent-rate convention of the semantics cache).
        std::uint32_t slot = 0;
        while (slot < local.size() &&
               !(local[slot].source == si && local[slot].target == target &&
                 local[slot].action == d.action)) {
          ++slot;
        }
        if (slot < local.size()) {
          if (local[slot].passive != d.rate.is_passive()) {
            throw util::ModelError(util::msg(
                "vector form: action '", arena.action_name(d.action),
                "' offered both actively and passively by one component"));
          }
          local[slot].rate += d.rate.value();
        } else {
          local.push_back({si, target, d.action, d.rate.value(),
                           d.rate.is_passive()});
        }
        slots[si].push_back(slot);
      }
    }

    raw.push_back(std::move(local));
    derivative_raw.push_back(std::move(slots));
    local_index.push_back(std::move(closure.index));
    groups.push_back(std::move(group));
    TreeNode node;
    node.group = static_cast<std::int32_t>(groups.size() - 1);
    tree.push_back(std::move(node));
    return static_cast<std::uint32_t>(tree.size() - 1);
  }
};

VectorForm VectorForm::build(Semantics& semantics, ProcessId system,
                             const VectorFormOptions& options) {
  ProcessArena& arena = semantics.arena();
  const ProcessId expanded = expand_static(arena, system);

  Builder builder{semantics, options, {}, {}, {}, {}, {}};
  const std::uint32_t root = builder.build_node(expanded);

  VectorForm form;
  form.arena_ = &arena;
  form.tree_ = std::move(builder.tree);
  form.groups_ = std::move(builder.groups);
  form.local_index_ = std::move(builder.local_index);
  form.root_ = root;

  // Assign vector offsets and globalise the per-group transitions.
  std::size_t dimension = 0;
  form.derivative_offsets_.push_back(0);
  for (std::size_t g = 0; g < form.groups_.size(); ++g) {
    Group& group = form.groups_[g];
    group.first = static_cast<std::uint32_t>(dimension);
    dimension += group.states.size();
    group.first_transition =
        static_cast<std::uint32_t>(form.transitions_.size());
    for (const Builder::RawTransition& t : builder.raw[g]) {
      form.transitions_.push_back({group.first + t.source,
                                   group.first + t.target, t.action, 0,
                                   t.rate, t.passive});
    }
    group.transition_count =
        static_cast<std::uint32_t>(builder.raw[g].size());
    for (const std::vector<std::uint32_t>& slots : builder.derivative_raw[g]) {
      for (const std::uint32_t slot : slots) {
        form.derivative_slots_.push_back(group.first_transition + slot);
      }
      form.derivative_offsets_.push_back(
          static_cast<std::uint32_t>(form.derivative_slots_.size()));
    }
  }
  form.dimension_ = dimension;

  // Action table and per-transition slots.
  for (const LocalTransition& t : form.transitions_) {
    form.actions_.push_back(t.action);
  }
  std::sort(form.actions_.begin(), form.actions_.end());
  form.actions_.erase(
      std::unique(form.actions_.begin(), form.actions_.end()),
      form.actions_.end());
  for (LocalTransition& t : form.transitions_) {
    t.action_slot = static_cast<std::uint32_t>(
        std::lower_bound(form.actions_.begin(), form.actions_.end(),
                         t.action) -
        form.actions_.begin());
  }
  form.labels_ = form.actions_;
  const bool hides = std::any_of(
      form.tree_.begin(), form.tree_.end(),
      [](const TreeNode& node) { return node.hidden.has_value(); });
  if (hides &&
      !std::binary_search(form.labels_.begin(), form.labels_.end(), kTau)) {
    form.labels_.insert(form.labels_.begin(), kTau);
  }
  return form;
}

std::span<const std::uint32_t> VectorForm::derivative_transitions(
    std::size_t coordinate) const {
  return std::span<const std::uint32_t>(derivative_slots_)
      .subspan(derivative_offsets_[coordinate],
               derivative_offsets_[coordinate + 1] -
                   derivative_offsets_[coordinate]);
}

CountVector VectorForm::initial_counts() const {
  CountVector counts(dimension_, 0);
  for (const Group& group : groups_) {
    counts[group.first] = static_cast<std::uint32_t>(group.count);
  }
  return counts;
}

std::vector<double> VectorForm::local_rates() const {
  std::vector<double> rates;
  rates.reserve(transitions_.size());
  for (const LocalTransition& t : transitions_) rates.push_back(t.rate);
  return rates;
}

void VectorForm::set_local_rates(std::span<const double> rates) {
  CHOREO_ASSERT(rates.size() == transitions_.size());
  for (std::size_t i = 0; i < rates.size(); ++i) transitions_[i].rate = rates[i];
}

/// The count-vector walks over the cooperation tree: move enumeration,
/// representative terms and term matching.
struct VectorForm::Walker {
  const VectorForm& form;
  std::span<const std::uint32_t> counts;
  std::span<const double> rates;

  /// A joint move below some node: its rate and the (source, target)
  /// coordinate hop of every participating group.
  struct Partial {
    Rate rate;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> hops;
  };

  const std::string& name(ActionId action) const {
    return form.arena_->action_name(action);
  }

  Rate scaled(std::uint32_t transition) const {
    const LocalTransition& lt = form.transitions_[transition];
    const double value = counts[lt.source] * rates[transition];
    return lt.passive ? Rate::passive(value) : Rate::active(value);
  }

  template <typename Visit>
  void offered(const Group& group, ActionId action, Visit&& visit) const {
    const std::uint32_t end = group.first_transition + group.transition_count;
    for (std::uint32_t t = group.first_transition; t < end; ++t) {
      const LocalTransition& lt = form.transitions_[t];
      if (lt.action == action && counts[lt.source] != 0) visit(t, lt);
    }
  }

  /// Apparent rate of `action` at `node`: sums over independent
  /// cooperands, the minimum over synchronised ones, and at a hiding node
  /// tau aggregates the hidden actions — the recursion of
  /// Semantics::apparent_rate, raising its mixing errors.
  Rate apparent(std::uint32_t node, ActionId action) const {
    const TreeNode& n = form.tree_[node];
    Rate result;
    if (n.group >= 0) {
      offered(form.groups_[n.group], action,
              [&](std::uint32_t t, const LocalTransition&) {
                result = result.plus(scaled(t), name(action));
              });
      return result;
    }
    if (n.hidden) {
      const std::uint32_t child = n.children.front();
      if (action != kTau) {
        return set_contains(*n.hidden, action) ? Rate()
                                               : apparent(child, action);
      }
      result = apparent(child, kTau);
      for (const ActionId hidden : *n.hidden) {
        result = result.plus(apparent(child, hidden), name(kTau));
      }
      return result;
    }
    const bool shared = set_contains(n.coop_set, action);
    bool first = true;
    for (const std::uint32_t child : n.children) {
      const Rate part = apparent(child, action);
      if (!shared) {
        result = result.plus(part, name(action));
      } else {
        result = first ? part : Rate::min(result, part);
      }
      first = false;
    }
    return result;
  }

  /// Joint moves of `action` below `node`: independent cooperands
  /// interleave, synchronised ones combine one move each at
  /// pepa::cooperation_rate, and a hiding node's tau moves are its child's
  /// tau moves followed by those of each hidden action.
  std::vector<Partial> enumerate(std::uint32_t node, ActionId action) const {
    const TreeNode& n = form.tree_[node];
    std::vector<Partial> out;
    if (n.group >= 0) {
      offered(form.groups_[n.group], action,
              [&](std::uint32_t t, const LocalTransition& lt) {
                out.push_back({scaled(t), {{lt.source, lt.target}}});
              });
      return out;
    }
    if (n.hidden) {
      const std::uint32_t child = n.children.front();
      if (action != kTau) {
        if (set_contains(*n.hidden, action)) return out;
        return enumerate(child, action);
      }
      out = enumerate(child, kTau);
      for (const ActionId hidden : *n.hidden) {
        std::vector<Partial> part = enumerate(child, hidden);
        std::move(part.begin(), part.end(), std::back_inserter(out));
      }
      return out;
    }
    const bool shared = set_contains(n.coop_set, action);
    Rate out_apparent;
    bool first = true;
    for (const std::uint32_t child : n.children) {
      std::vector<Partial> part = enumerate(child, action);
      if (!shared) {
        std::move(part.begin(), part.end(), std::back_inserter(out));
        continue;
      }
      if (part.empty()) return {};
      const Rate part_apparent = apparent(child, action);
      if (first) {
        out = std::move(part);
        out_apparent = part_apparent;
        first = false;
        continue;
      }
      std::vector<Partial> combined;
      combined.reserve(out.size() * part.size());
      for (const Partial& left : out) {
        for (const Partial& right : part) {
          Partial move{cooperation_rate(left.rate, out_apparent, right.rate,
                                        part_apparent, name(action)),
                       left.hops};
          move.hops.insert(move.hops.end(), right.hops.begin(),
                           right.hops.end());
          combined.push_back(std::move(move));
        }
      }
      out = std::move(combined);
      out_apparent = Rate::min(out_apparent, part_apparent);
    }
    return out;
  }

  /// Appends a group's replicas, local state by local state.
  void replicas(const Group& group, std::vector<ProcessId>& out) const {
    for (std::size_t s = 0; s < group.states.size(); ++s) {
      out.insert(out.end(), counts[group.first + s], group.states[s]);
    }
  }

  ProcessId term(std::uint32_t node) const {
    const TreeNode& n = form.tree_[node];
    std::vector<ProcessId> operands;
    if (n.group >= 0) {
      replicas(form.groups_[n.group], operands);
      return fold(*form.arena_, operands, {});
    }
    if (n.hidden) {
      return form.arena_->hiding(term(n.children.front()), *n.hidden);
    }
    for (const std::uint32_t child : n.children) {
      const std::int32_t group = form.tree_[child].group;
      if (n.coop_set.empty() && group >= 0) {
        replicas(form.groups_[group], operands);
      } else {
        operands.push_back(term(child));
      }
    }
    return fold(*form.arena_, operands, n.coop_set);
  }

  /// The coordinate of local derivative `term` in group `g`, if any.
  std::optional<std::uint32_t> coordinate(std::int32_t g,
                                          ProcessId term) const {
    const auto& index = form.local_index_[g];
    const auto it = index.find(term);
    if (it == index.end()) return std::nullopt;
    return form.groups_[g].first + it->second;
  }

  /// Adds the occupancy of `term`, read as the subterm at `node`, to
  /// `out`; false when it does not fit.  Same-set cooperands may come in
  /// any order: each operand takes the first child with spare capacity
  /// that accepts it.
  bool match(std::uint32_t node, ProcessId term, CountVector& out) const {
    const ProcessArena& arena = *form.arena_;
    const TreeNode& n = form.tree_[node];
    std::vector<ProcessId> operands;
    if (n.group >= 0) {
      const Group& group = form.groups_[n.group];
      if (group.count == 1) {
        operands.push_back(term);
      } else {
        gather(arena, term, {}, operands);
      }
      if (operands.size() != group.count) return false;
      for (const ProcessId operand : operands) {
        const auto c = coordinate(n.group, operand);
        if (!c) return false;
        ++out[*c];
      }
      return true;
    }
    if (n.hidden) {
      const ProcessNode& hiding = arena.node(term);
      return hiding.op == Op::kHiding && hiding.action_set == *n.hidden &&
             match(n.children.front(), hiding.left, out);
    }
    gather(arena, term, n.coop_set, operands);
    // A counted leaf directly under an empty-set node takes `count` of the
    // flattened operands; every other child takes exactly one.
    auto counted = [&](std::uint32_t child) {
      return n.coop_set.empty() && form.tree_[child].group >= 0;
    };
    std::vector<std::size_t> spare(n.children.size(), 1);
    std::size_t capacity = 0;
    for (std::size_t i = 0; i < n.children.size(); ++i) {
      if (counted(n.children[i])) {
        spare[i] = form.groups_[form.tree_[n.children[i]].group].count;
      }
      capacity += spare[i];
    }
    if (capacity != operands.size()) return false;
    for (const ProcessId operand : operands) {
      bool placed = false;
      for (std::size_t i = 0; i < n.children.size() && !placed; ++i) {
        if (spare[i] == 0) continue;
        const std::uint32_t child = n.children[i];
        if (counted(child)) {
          const auto c = coordinate(form.tree_[child].group, operand);
          if (c) {
            ++out[*c];
            placed = true;
          }
        } else {
          CountVector trial = out;
          if (match(child, operand, trial)) {
            out = std::move(trial);
            placed = true;
          }
        }
        if (placed) --spare[i];
      }
      if (!placed) return false;
    }
    return true;
  }
};

std::vector<CountMove> VectorForm::moves(
    std::span<const std::uint32_t> counts,
    std::span<const double> local_rates) const {
  CHOREO_ASSERT(counts.size() == dimension_ &&
                local_rates.size() == transitions_.size());
  const Walker walker{*this, counts, local_rates};
  std::vector<CountMove> out;
  for (const ActionId action : labels_) {
    const std::size_t first = out.size();
    for (Walker::Partial& move : walker.enumerate(root_, action)) {
      CountVector target(counts.begin(), counts.end());
      for (const auto& [source, destination] : move.hops) {
        CHOREO_ASSERT(target[source] > 0);
        --target[source];
        ++target[destination];
      }
      // Parallel moves into one target merge: the lumped rate is their sum.
      const auto same = std::find_if(
          out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
          [&](const CountMove& existing) {
            return existing.rate.is_passive() == move.rate.is_passive() &&
                   existing.target == target;
          });
      if (same != out.end()) {
        same->rate = same->rate.plus(move.rate, walker.name(action));
      } else {
        out.push_back({std::move(target), action, move.rate});
      }
    }
  }
  return out;
}

ProcessId VectorForm::term_of(std::span<const std::uint32_t> counts) const {
  CHOREO_ASSERT(counts.size() == dimension_);
  return Walker{*this, counts, {}}.term(root_);
}

std::optional<CountVector> VectorForm::counts_of(ProcessId term) const {
  // Derivation terms match as they are (expanding them would unfold
  // sequential aliases the local derivative sets keep by name); a
  // system-equation constant matches through its static expansion.
  const Walker walker{*this, {}, {}};
  CountVector counts(dimension_, 0);
  if (walker.match(root_, term, counts)) return counts;
  counts.assign(dimension_, 0);
  if (walker.match(root_, expand_static(*arena_, term), counts)) return counts;
  return std::nullopt;
}

}  // namespace choreo::pepa
