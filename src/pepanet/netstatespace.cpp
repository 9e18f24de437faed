#include "pepanet/netstatespace.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "explore/engine.hpp"
#include "pepa/vector_form.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace choreo::pepanet {

void NetStateSpace::count_tokens(NetSemantics& semantics,
                                 const Marking& initial) {
  const PepaNet& net = semantics.net();
  const std::vector<pepa::ActionId> none;
  for (PlaceId p = 0; p < net.place_count(); ++p) {
    const Place& place = net.place(p);
    // An empty coop_sets list means every set is empty.
    auto set = [&](std::size_t i) -> const std::vector<pepa::ActionId>& {
      return place.coop_sets.empty() ? none : place.coop_sets[i];
    };
    // The context is slot0 <L0> (slot1 <L1> (... slot_{k-1})): a maximal
    // run of equal sets L_a .. L_{r-1} is one spine whose siblings are
    // slots a .. r-1, plus the tail slot when the run reaches it.
    const std::size_t slot_count = place.slots.size();
    for (std::size_t a = 0; a < slot_count;) {
      std::size_t r = a;
      while (r + 1 < slot_count && set(r) == set(a)) ++r;
      const std::size_t end = r + 1 == slot_count ? slot_count : r;
      std::vector<CellClass> spine;
      for (std::size_t slot = a; slot < end; ++slot) {
        const Slot& s = place.slots[slot];
        if (s.kind != Slot::Kind::kCell) continue;
        auto same = std::find_if(
            spine.begin(), spine.end(),
            [&s](const CellClass& c) { return c.type == s.cell_type; });
        if (same == spine.end()) {
          spine.push_back({s.cell_type, {}});
          same = spine.end() - 1;
        }
        same->offsets.push_back(net.slot_offset(p, slot));
      }
      for (CellClass& cell_class : spine) {
        if (cell_class.offsets.size() >= 2) {
          classes_.push_back(std::move(cell_class));
        }
      }
      a = end;
    }
  }
  if (classes_.empty()) return;

  local_index_.resize(net.token_type_count());
  try {
    for (const CellClass& cell_class : classes_) {
      if (!local_index_[cell_class.type].empty()) continue;
      // The type's initial derivative, then every token of the type in
      // `initial`: firings preserve types, so these reach every token a
      // cell of the type can hold.
      std::vector<pepa::ProcessId> seeds{
          net.token_type(cell_class.type).initial};
      for (PlaceId p = 0; p < net.place_count(); ++p) {
        const Place& place = net.place(p);
        for (std::size_t slot = 0; slot < place.slots.size(); ++slot) {
          if (place.slots[slot].kind == Slot::Kind::kCell &&
              place.slots[slot].cell_type == cell_class.type) {
            seeds.push_back(initial[net.slot_offset(p, slot)]);
          }
        }
      }
      std::erase(seeds, kVacant);
      local_index_[cell_class.type] =
          pepa::local_states(semantics.pepa(), seeds, {}).index;
    }
  } catch (const util::ModelError&) {  // BudgetError included
    classes_.clear();
    local_index_.clear();
  }
}

bool NetStateSpace::arrange(Marking& marking) const {
  constexpr std::uint32_t kVacantLast =
      std::numeric_limits<std::uint32_t>::max();
  std::vector<std::pair<std::uint32_t, pepa::ProcessId>> tokens;
  for (const CellClass& cell_class : classes_) {
    const auto& index = local_index_[cell_class.type];
    tokens.clear();
    for (const std::size_t offset : cell_class.offsets) {
      const pepa::ProcessId content = marking[offset];
      if (content == kVacant) {
        tokens.emplace_back(kVacantLast, kVacant);
        continue;
      }
      const auto it = index.find(content);
      if (it == index.end()) return false;
      tokens.emplace_back(it->second, content);
    }
    std::sort(tokens.begin(), tokens.end());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      marking[cell_class.offsets[i]] = tokens[i].second;
    }
  }
  return true;
}

NetStateSpace NetStateSpace::derive(NetSemantics& semantics,
                                    const NetDeriveOptions& options) {
  return derive_from(semantics, semantics.net().initial_marking(), options);
}

NetStateSpace NetStateSpace::derive_from(NetSemantics& semantics, Marking initial,
                                         const NetDeriveOptions& options) {
  semantics.net().validate();
  util::Stopwatch timer;
  NetStateSpace space;

  explore::EngineOptions engine;
  engine.max_states = options.max_markings;
  engine.allow_top_level_passive = options.allow_top_level_passive;
  engine.threads = options.threads;
  engine.pool = options.pool;
  engine.budget = options.budget;
  // Approximate per-marking footprint: every marking of one net holds the
  // same number of slots, plus its interning entry.
  engine.bytes_per_state =
      initial.size() * sizeof(pepa::ProcessId) + 2 * sizeof(std::size_t);
  engine.space_noun = "marking graph";
  engine.state_noun = "markings";
  engine.passive_suffix =
      "' occurs passively at the net level: no active partner sets its rate";

  space.aggregated_ = options.aggregate;
  if (options.aggregate) space.count_tokens(semantics, initial);
  const bool counted = !space.classes_.empty();
  auto arranged = [&space](Marking& marking) {
    if (!space.arrange(marking)) {
      throw util::ModelError(
          "marking graph: a token left its type's local derivative set");
    }
  };
  if (counted) arranged(initial);
  auto action_name = [&semantics](const NetMove& move) -> const std::string& {
    return semantics.net().arena().action_name(move.action);
  };
  space.stats_ = explore::run(
      space.markings_, space.index_, std::move(initial),
      // NetSemantics is stateless over the thread-safe arena/semantics
      // caches, so expansion workers may call moves() concurrently.
      [&semantics, &arranged, &action_name, counted](const Marking& marking) {
        std::vector<NetMove> moves = semantics.moves(marking);
        if (!counted) return moves;
        // Counted graph: arrange every target, then merge the moves a
        // block receives more than once, summing rates in emission order.
        std::vector<NetMove> merged;
        merged.reserve(moves.size());
        for (NetMove& move : moves) {
          arranged(move.target);
          const auto same = std::find_if(
              merged.begin(), merged.end(), [&move](const NetMove& m) {
                return m.kind == move.kind && m.action == move.action &&
                       m.transition == move.transition &&
                       m.place == move.place &&
                       m.rate.is_passive() == move.rate.is_passive() &&
                       m.target == move.target;
              });
          if (same == merged.end()) {
            merged.push_back(std::move(move));
          } else {
            same->rate = same->rate.plus(move.rate, action_name(move));
          }
        }
        return merged;
      },
      action_name,
      [&space](std::size_t source, const NetMove& move, std::size_t target) {
        MarkingTransition t;
        t.source = source;
        t.target = target;
        t.action = move.action;
        t.rate = move.rate.value();
        t.is_firing = move.kind == NetMove::Kind::kFiring;
        t.net_transition = move.transition;
        t.place = move.place;
        space.lts_.push_back(t);
      },
      engine);
  for (const CellClass& cell_class : space.classes_) {
    space.stats_.collapsed_replicas += cell_class.offsets.size() - 1;
  }
  space.lts_.finalize(space.markings_.size());
  space.stats_.seconds = timer.seconds();
  return space;
}

std::optional<std::size_t> NetStateSpace::index_of(const Marking& marking) const {
  if (markings_.empty() || marking.size() != markings_.front().size()) {
    return std::nullopt;
  }
  Marking arranged = marking;
  if (!arrange(arranged)) return std::nullopt;
  const std::size_t* found = index_.find(arranged);
  if (found == nullptr) return std::nullopt;
  return *found;
}

ctmc::Generator NetStateSpace::generator() const {
  return ctmc::Generator::build_from<MarkingTransition>(marking_count(),
                                                        lts_.transitions());
}

std::vector<ctmc::RatedTransition> NetStateSpace::transitions_of(
    pepa::ActionId action) const {
  std::vector<ctmc::RatedTransition> out;
  const auto slice = lts_.action_transitions(action);
  out.reserve(slice.size());
  for (const std::size_t i : slice) {
    const MarkingTransition& t = lts_[i];
    out.push_back({t.source, t.target, t.rate});
  }
  return out;
}

std::vector<std::size_t> NetStateSpace::deadlock_markings() const {
  return lts_.deadlock_states();
}

double action_throughput(const NetStateSpace& space,
                         std::span<const double> distribution,
                         pepa::ActionId action) {
  CHOREO_ASSERT(distribution.size() == space.marking_count());
  return space.lts().action_throughput(distribution, action);
}

namespace {
std::size_t tokens_at(const PepaNet& net, const Marking& marking, PlaceId place) {
  const Place& p = net.place(place);
  std::size_t count = 0;
  for (std::size_t slot = 0; slot < p.slots.size(); ++slot) {
    if (p.slots[slot].kind != Slot::Kind::kCell) continue;
    if (marking[net.slot_offset(place, slot)] != kVacant) ++count;
  }
  return count;
}
}  // namespace

double occupancy_probability(const PepaNet& net, const NetStateSpace& space,
                             std::span<const double> distribution, PlaceId place) {
  CHOREO_ASSERT(distribution.size() == space.marking_count());
  double sum = 0.0;
  for (std::size_t m = 0; m < space.marking_count(); ++m) {
    if (tokens_at(net, space.marking(m), place) > 0) sum += distribution[m];
  }
  return sum;
}

double mean_tokens_at(const PepaNet& net, const NetStateSpace& space,
                      std::span<const double> distribution, PlaceId place) {
  CHOREO_ASSERT(distribution.size() == space.marking_count());
  double sum = 0.0;
  for (std::size_t m = 0; m < space.marking_count(); ++m) {
    sum += distribution[m] *
           static_cast<double>(tokens_at(net, space.marking(m), place));
  }
  return sum;
}

double derivative_probability_by_constant(const PepaNet& net,
                                          const NetStateSpace& space,
                                          std::span<const double> distribution,
                                          pepa::ConstantId constant) {
  CHOREO_ASSERT(distribution.size() == space.marking_count());
  double sum = 0.0;
  for (std::size_t m = 0; m < space.marking_count(); ++m) {
    const Marking& marking = space.marking(m);
    bool found = false;
    for (PlaceId place = 0; place < net.place_count() && !found; ++place) {
      const Place& p = net.place(place);
      for (std::size_t slot = 0; slot < p.slots.size() && !found; ++slot) {
        if (p.slots[slot].kind != Slot::Kind::kCell) continue;
        const pepa::ProcessId content = marking[net.slot_offset(place, slot)];
        if (content == kVacant) continue;
        const pepa::ProcessNode& node = net.arena().node(content);
        found = node.op == pepa::Op::kConstant && node.constant == constant;
      }
    }
    if (found) sum += distribution[m];
  }
  return sum;
}

double derivative_probability(const PepaNet& net, const NetStateSpace& space,
                              std::span<const double> distribution,
                              pepa::ProcessId term) {
  CHOREO_ASSERT(distribution.size() == space.marking_count());
  double sum = 0.0;
  for (std::size_t m = 0; m < space.marking_count(); ++m) {
    const Marking& marking = space.marking(m);
    bool found = false;
    for (PlaceId place = 0; place < net.place_count() && !found; ++place) {
      const Place& p = net.place(place);
      for (std::size_t slot = 0; slot < p.slots.size() && !found; ++slot) {
        if (p.slots[slot].kind != Slot::Kind::kCell) continue;
        found = marking[net.slot_offset(place, slot)] == term;
      }
    }
    if (found) sum += distribution[m];
  }
  return sum;
}

}  // namespace choreo::pepanet
