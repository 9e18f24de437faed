#include "pepa/measures.hpp"

#include "util/error.hpp"

namespace choreo::pepa {

double action_throughput(const StateSpace& space,
                         std::span<const double> distribution, ActionId action) {
  CHOREO_ASSERT(distribution.size() == space.state_count());
  // O(degree of the action) via the CSR action index; the slice keeps
  // emission order, so the sum is bit-identical to the former flat scan.
  return space.lts().action_throughput(distribution, action);
}

std::vector<std::pair<ActionId, double>> all_throughputs(
    const StateSpace& space, std::span<const double> distribution,
    const ProcessArena& arena) {
  (void)arena;
  std::vector<std::pair<ActionId, double>> out;
  const auto& lts = space.lts();
  for (std::size_t action = 0; action < lts.action_bound(); ++action) {
    if (lts.action_transitions(action).empty()) continue;
    out.emplace_back(static_cast<ActionId>(action),
                     lts.action_throughput(distribution, action));
  }
  return out;
}

bool occupies(const ProcessArena& arena, ProcessId term, ConstantId constant) {
  const ProcessNode& node = arena.node(term);
  switch (node.op) {
    case Op::kConstant:
      return node.constant == constant;
    case Op::kCooperation:
      return occupies(arena, node.left, constant) ||
             occupies(arena, node.right, constant);
    case Op::kHiding:
      return occupies(arena, node.left, constant);
    default:
      return false;
  }
}

namespace {
/// Count-vector spaces: how many replicas occupying `constant` each state
/// holds — the coordinates whose local derivative occupies it, summed —
/// read off the counts without building a term per state.
std::vector<std::size_t> occupants(const StateSpace& space,
                                   const ProcessArena& arena,
                                   ConstantId constant) {
  const VectorForm& form = *space.vector_form();
  std::vector<std::uint32_t> coordinates;
  for (const Group& group : form.groups()) {
    for (std::uint32_t s = 0; s < group.states.size(); ++s) {
      if (occupies(arena, group.states[s], constant)) {
        coordinates.push_back(group.first + s);
      }
    }
  }
  std::vector<std::size_t> out(space.state_count(), 0);
  for (std::size_t state = 0; state < out.size(); ++state) {
    const auto counts = space.state_counts(state);
    for (const std::uint32_t c : coordinates) out[state] += counts[c];
  }
  return out;
}
}  // namespace

double state_probability(const StateSpace& space,
                         std::span<const double> distribution,
                         const ProcessArena& arena, ConstantId constant) {
  CHOREO_ASSERT(distribution.size() == space.state_count());
  double sum = 0.0;
  if (space.vector_form() != nullptr) {
    const std::vector<std::size_t> count = occupants(space, arena, constant);
    for (std::size_t s = 0; s < count.size(); ++s) {
      if (count[s] != 0) sum += distribution[s];
    }
    return sum;
  }
  for (std::size_t s = 0; s < space.state_count(); ++s) {
    if (occupies(arena, space.state_term(s), constant)) sum += distribution[s];
  }
  return sum;
}

namespace {
std::size_t count_occurrences(const ProcessArena& arena, ProcessId term,
                              ConstantId constant) {
  const ProcessNode& node = arena.node(term);
  switch (node.op) {
    case Op::kConstant:
      return node.constant == constant ? 1 : 0;
    case Op::kCooperation:
      return count_occurrences(arena, node.left, constant) +
             count_occurrences(arena, node.right, constant);
    case Op::kHiding:
      return count_occurrences(arena, node.left, constant);
    default:
      return 0;
  }
}
}  // namespace

double mean_population(const StateSpace& space,
                       std::span<const double> distribution,
                       const ProcessArena& arena, ConstantId constant) {
  CHOREO_ASSERT(distribution.size() == space.state_count());
  double sum = 0.0;
  if (space.vector_form() != nullptr) {
    const std::vector<std::size_t> count = occupants(space, arena, constant);
    for (std::size_t s = 0; s < count.size(); ++s) {
      sum += distribution[s] * static_cast<double>(count[s]);
    }
    return sum;
  }
  for (std::size_t s = 0; s < space.state_count(); ++s) {
    sum += distribution[s] *
           static_cast<double>(count_occurrences(arena, space.state_term(s), constant));
  }
  return sum;
}

}  // namespace choreo::pepa
