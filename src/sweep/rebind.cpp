#include "sweep/rebind.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace choreo::sweep {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Canonical FNV-1a walk over a model's term DAG.  Shared subterms hash as
/// back-references so the walk is linear in the DAG size; rate values are
/// included only when `include_rates` (with swept substitutions applied),
/// which is the whole difference between the structure and rate
/// fingerprints.
class Fingerprinter {
 public:
  Fingerprinter(
      const pepa::ProcessArena& arena, bool include_rates,
      const std::unordered_map<pepa::ProcessId,
                               std::pair<std::size_t, double>>* swept,
      std::span<const double> values)
      : arena_(arena),
        include_rates_(include_rates),
        swept_(swept),
        values_(values) {}

  std::uint64_t run(pepa::Model& model) {
    for (pepa::ConstantId id = 0; id < arena_.constant_count(); ++id) {
      if (!arena_.is_defined(id)) continue;
      byte('D');
      str(arena_.constant_name(id));
      term(arena_.body(id));
    }
    byte('S');
    term(model.system());
    return hash_;
  }

 private:
  void term(pepa::ProcessId id) {
    auto [it, inserted] = seen_.emplace(id, seen_.size());
    if (!inserted) {
      byte('#');
      u64(it->second);
      return;
    }
    const pepa::ProcessNode& node = arena_.node(id);
    switch (node.op) {
      case pepa::Op::kStop:
        byte('0');
        break;
      case pepa::Op::kPrefix: {
        byte('.');
        str(arena_.action_name(node.action));
        byte(node.rate.is_passive() ? 'p' : 'a');
        if (include_rates_) {
          double value = node.rate.value();
          if (swept_ != nullptr) {
            if (const auto swept = swept_->find(id); swept != swept_->end()) {
              value = swept->second.second * values_[swept->second.first];
            }
          }
          real(value);
        }
        term(node.left);
        break;
      }
      case pepa::Op::kChoice:
        byte('+');
        term(node.left);
        term(node.right);
        break;
      case pepa::Op::kCooperation:
        byte('<');
        for (const pepa::ActionId action : node.action_set) {
          str(arena_.action_name(action));
        }
        byte('>');
        term(node.left);
        term(node.right);
        break;
      case pepa::Op::kHiding:
        byte('/');
        for (const pepa::ActionId action : node.action_set) {
          str(arena_.action_name(action));
        }
        byte('}');
        term(node.left);
        break;
      case pepa::Op::kConstant:
        byte('C');
        str(arena_.constant_name(node.constant));
        break;
    }
  }

  void byte(unsigned char value) { hash_ = (hash_ ^ value) * kFnvPrime; }
  void u64(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      byte(static_cast<unsigned char>(value >> shift));
    }
  }
  void real(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void str(const std::string& text) {
    for (const char c : text) byte(static_cast<unsigned char>(c));
    byte(0);
  }

  const pepa::ProcessArena& arena_;
  bool include_rates_;
  const std::unordered_map<pepa::ProcessId, std::pair<std::size_t, double>>*
      swept_;
  std::span<const double> values_;
  std::unordered_map<pepa::ProcessId, std::uint64_t> seen_;
  std::uint64_t hash_ = kFnvOffset;
};

}  // namespace

std::uint64_t structure_fingerprint(pepa::Model& model) {
  return Fingerprinter(model.arena(), /*include_rates=*/false, nullptr, {})
      .run(model);
}

RateRebinder::RateRebinder(pepa::Model& model,
                           std::vector<std::string> parameters)
    : model_(model), parameters_(std::move(parameters)) {
  if (parameters_.empty()) {
    throw util::ModelError("a sweep needs at least one parameter");
  }
  base_values_.reserve(parameters_.size());
  for (const std::string& name : parameters_) {
    base_values_.push_back(model_.parameter(name));  // throws when unknown
    if (model_.parameter_is_opaque(name)) {
      throw util::ModelError(util::msg(
          "rate parameter '", name,
          "' cannot be swept: it is used in a compound rate expression, "
          "feeds a derived parameter, or shares a prefix with a literal "
          "rate"));
    }
  }
  std::vector<std::size_t> tagged(parameters_.size(), 0);
  for (const auto& [prefix, tag] : model_.prefix_rate_tags()) {
    for (std::size_t axis = 0; axis < parameters_.size(); ++axis) {
      if (tag.parameter == parameters_[axis]) {
        swept_.emplace(prefix, std::make_pair(axis, tag.scale));
        ++tagged[axis];
        break;
      }
    }
  }
  for (std::size_t axis = 0; axis < parameters_.size(); ++axis) {
    if (tagged[axis] == 0) {
      throw util::ModelError(util::msg("rate parameter '", parameters_[axis],
                                       "' is never used as an activity "
                                       "rate; sweeping it has no effect"));
    }
  }
  structure_ = structure_fingerprint(model_);
}

std::uint64_t RateRebinder::rate_fingerprint(
    std::span<const double> values) const {
  if (values.size() != parameters_.size()) {
    throw util::ModelError(util::msg("sweep point has ", values.size(),
                                     " values for ", parameters_.size(),
                                     " parameters"));
  }
  return Fingerprinter(model_.arena(), /*include_rates=*/true, &swept_, values)
      .run(model_);
}

RateRebinder::Point RateRebinder::at(std::span<const double> values) {
  if (values.size() != parameters_.size()) {
    throw util::ModelError(util::msg("sweep point has ", values.size(),
                                     " values for ", parameters_.size(),
                                     " parameters"));
  }
  for (std::size_t axis = 0; axis < values.size(); ++axis) {
    if (!(values[axis] > 0.0) || !std::isfinite(values[axis])) {
      throw util::ModelError(util::msg(
          "sweep value ", util::format_double(values[axis]), " for '",
          parameters_[axis], "' is not a valid rate"));
    }
  }
  return Point(*this, std::vector<double>(values.begin(), values.end()));
}

/// The SOS walk of one sweep point: base terms, substituted prefix rates,
/// no targets, re-entering through the point's memo.  The arena is only
/// read, so nodes are read in place.
struct RateRebinder::Point::Walk {
  using Target = pepa::sos::NoTarget;

  Point& point;

  const pepa::ProcessArena& arena() const {
    return point.owner_.model_.arena();
  }
  const pepa::ProcessNode& node(pepa::ProcessId id) const {
    return arena().node(id);
  }
  pepa::Rate rate(pepa::ProcessId id, const pepa::ProcessNode& node) const {
    const auto& swept = point.owner_.swept_;
    if (const auto it = swept.find(id); it != swept.end()) {
      const double value = it->second.second * point.values_[it->second.first];
      return node.rate.is_passive() ? pepa::Rate::passive(value)
                                    : pepa::Rate::active(value);
    }
    return node.rate;
  }
  static Target target(pepa::ProcessId) { return {}; }
  static Target hide(Target, const std::vector<pepa::ActionId>&) { return {}; }
  static Target cooperate(Target, const std::vector<pepa::ActionId>&,
                          Target) {
    return {};
  }
  const std::vector<RatedMove>& derivatives(pepa::ProcessId id) {
    return point.moves(id);
  }
  pepa::Rate apparent(pepa::ProcessId id, pepa::ActionId action) {
    return point.apparent(id, action);
  }
};

RateRebinder::Point::Point(const RateRebinder& owner,
                           std::vector<double> values)
    : owner_(owner),
      values_(std::move(values)),
      identity_(values_ == owner.base_values_) {}

const std::vector<RatedMove>& RateRebinder::Point::moves(pepa::ProcessId base) {
  if (const auto it = moves_.find(base); it != moves_.end()) return it->second;
  Walk walk{*this};
  std::vector<RatedMove> computed = pepa::sos::derivatives(walk, base);
  return moves_.emplace(base, std::move(computed)).first->second;
}

pepa::Rate RateRebinder::Point::apparent(pepa::ProcessId base,
                                         pepa::ActionId action) {
  const std::uint64_t key = (static_cast<std::uint64_t>(base) << 32) | action;
  if (const auto it = apparent_.find(key); it != apparent_.end()) {
    return it->second;
  }
  Walk walk{*this};
  const pepa::Rate rate = pepa::sos::apparent(walk, base, action);
  apparent_.emplace(key, rate);
  return rate;
}

std::vector<double> RateRebinder::Point::local_rates(
    const pepa::VectorForm& form) {
  if (identity_) return form.local_rates();
  std::vector<double> local(form.transitions().size(), 0.0);
  for (const pepa::Group& group : form.groups()) {
    for (std::uint32_t s = 0; s < group.states.size(); ++s) {
      const std::vector<RatedMove>& state_moves = moves(group.states[s]);
      const auto slots = form.derivative_transitions(group.first + s);
      if (state_moves.size() != slots.size()) {
        throw util::ModelError(
            "sweep point does not preserve the model structure; the "
            "derived state space cannot be reused");
      }
      for (std::size_t j = 0; j < state_moves.size(); ++j) {
        local[slots[j]] += state_moves[j].rate.value();
      }
    }
  }
  return local;
}

}  // namespace choreo::sweep
