// Property-based tests: random PEPA models (seed-parameterised TEST_P
// sweeps) checked against semantic invariants that must hold for *every*
// model -- determinism of derivation, probability conservation, throughput
// accounting, cooperation commutativity, hiding invariance, lumping
// exactness, count-vector quotient exactness, transient/steady-state
// consistency, and sweep points agreeing with a fresh derivation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <regex>
#include <string>

#include "ctmc/lumping.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "pepa/aggregate.hpp"
#include "pepa/measures.hpp"
#include "pepa/parser.hpp"
#include "pepa/printer.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "sweep/runner.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace cp = choreo::pepa;
namespace cc = choreo::ctmc;
namespace cu = choreo::util;

namespace {

constexpr const char* kActions[] = {"a", "b", "c", "d"};

/// Generates a random PEPA model in source form: 2-3 sequential components
/// (each a guarded choice of prefixes per state, so derivation always
/// terminates) composed under cooperation over random action subsets.
/// `swap_operands` flips the top-level cooperation for the commutativity
/// property; `hide` wraps the system in a hiding set; `replicas` puts that
/// many copies of each component side by side over the empty set.
std::string random_model(std::uint64_t seed, bool swap_operands = false,
                         const std::string& hide_set = "",
                         std::size_t replicas = 1) {
  cu::Xoshiro256 rng(seed);
  const std::size_t components = 2 + rng.below(2);
  std::string source;
  std::vector<std::string> component_names;
  for (std::size_t c = 0; c < components; ++c) {
    const std::size_t states = 2 + rng.below(3);
    std::vector<std::string> state_names;
    for (std::size_t s = 0; s < states; ++s) {
      state_names.push_back("C" + std::to_string(c) + "S" + std::to_string(s));
    }
    component_names.push_back(state_names[0]);
    for (std::size_t s = 0; s < states; ++s) {
      source += state_names[s] + " = ";
      const std::size_t branches = 1 + rng.below(2);
      for (std::size_t b = 0; b < branches; ++b) {
        if (b != 0) source += " + ";
        const char* action = kActions[rng.below(4)];
        const double rate = 0.5 + 0.25 * static_cast<double>(rng.below(14));
        const std::size_t target = rng.below(states);
        source += "(" + std::string(action) + ", " + cu::format_double(rate) +
                  ")." + state_names[target];
      }
      source += ";\n";
    }
  }
  auto coop_set = [&rng]() {
    std::string set;
    for (const char* action : kActions) {
      if (rng.below(3) == 0) {  // each action in the set with p = 1/3
        if (!set.empty()) set += ", ";
        set += action;
      }
    }
    return set.empty() ? std::string("||") : "<" + set + ">";
  };
  for (std::string& name : component_names) {
    const std::string single = name;
    for (std::size_t r = 1; r < replicas; ++r) name += " || " + single;
    if (replicas > 1) name = "(" + name + ")";
  }
  std::string system = component_names.back();
  for (std::size_t c = components - 1; c-- > 0;) {
    const std::string op = coop_set();
    system = swap_operands && c == 0
                 ? "(" + system + ") " + op + " " + component_names[c]
                 : component_names[c] + " " + op + " (" + system + ")";
  }
  if (!hide_set.empty()) system = "(" + system + ")/{" + hide_set + "}";
  source += "Sys = " + system + ";\n@system Sys;\n";
  return source;
}

struct Solved {
  std::size_t states = 0;
  /// Deadlocked or reducible with several recurrent classes (the steady
  /// state is then not unique); the distribution-level properties skip.
  bool has_deadlock = false;
  double residual = 0.0;
  std::vector<double> distribution;
  std::map<std::string, double> throughputs;
  double total_event_rate = 0.0;
};

Solved solve_source(const std::string& source) {
  cp::Model model = cp::parse_model(source);
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  Solved out;
  out.states = space.state_count();
  out.has_deadlock = !space.deadlock_states().empty();
  if (out.has_deadlock) return out;
  cc::SolveResult solved;
  try {
    solved = cc::steady_state(space.generator());
  } catch (const cu::NumericError&) {
    out.has_deadlock = true;  // singular system: several recurrent classes
    return out;
  }
  out.residual = solved.residual;
  out.distribution = solved.distribution;
  for (const auto& [action, value] :
       cp::all_throughputs(space, solved.distribution, model.arena())) {
    out.throughputs[model.arena().action_name(action)] = value;
    out.total_event_rate += value;
  }
  return out;
}

}  // namespace

class RandomModels : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomModels, DerivationIsDeterministic) {
  const std::string source = random_model(GetParam());
  const Solved first = solve_source(source);
  const Solved second = solve_source(source);
  EXPECT_EQ(first.states, second.states);
  EXPECT_EQ(first.throughputs, second.throughputs);
}

TEST_P(RandomModels, SteadyStateIsAProbabilityDistribution) {
  const Solved solved = solve_source(random_model(GetParam()));
  if (solved.has_deadlock) GTEST_SKIP() << "deadlocked composition";
  double sum = 0.0;
  for (double p : solved.distribution) {
    EXPECT_GE(p, -1e-12);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_LT(solved.residual, 1e-8);
}

TEST_P(RandomModels, ThroughputsAccountForTotalEventRate) {
  // Sum of per-action throughputs == expected total exit rate.
  const std::string source = random_model(GetParam());
  cp::Model model = cp::parse_model(source);
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  if (!space.deadlock_states().empty()) GTEST_SKIP() << "deadlocked";
  const auto generator = space.generator();
  cc::SolveResult solved;
  try {
    solved = cc::steady_state(generator);
  } catch (const cu::NumericError&) {
    GTEST_SKIP() << "several recurrent classes";
  }
  double total_throughput = 0.0;
  for (const auto& [action, value] :
       cp::all_throughputs(space, solved.distribution, model.arena())) {
    total_throughput += value;
  }
  // The generator drops self-loops (they do not affect the distribution),
  // but self-loop activities still complete and count towards throughput.
  double self_loop_rate = 0.0;
  for (const auto& t : space.transitions()) {
    if (t.source == t.target) {
      self_loop_rate += solved.distribution[t.source] * t.rate;
    }
  }
  double expected_exit = 0.0;
  for (std::size_t s = 0; s < space.state_count(); ++s) {
    expected_exit += solved.distribution[s] * generator.exit_rate(s);
  }
  EXPECT_NEAR(total_throughput, expected_exit + self_loop_rate, 1e-8);
}

TEST_P(RandomModels, CooperationIsCommutative) {
  // P <L> Q and Q <L> P derive isomorphic chains: identical state counts
  // and identical per-action throughputs.
  const Solved normal = solve_source(random_model(GetParam(), false));
  const Solved swapped = solve_source(random_model(GetParam(), true));
  EXPECT_EQ(normal.states, swapped.states);
  EXPECT_EQ(normal.has_deadlock, swapped.has_deadlock);
  if (normal.has_deadlock) GTEST_SKIP() << "deadlocked composition";
  ASSERT_EQ(normal.throughputs.size(), swapped.throughputs.size());
  for (const auto& [action, value] : normal.throughputs) {
    ASSERT_TRUE(swapped.throughputs.count(action)) << action;
    EXPECT_NEAR(value, swapped.throughputs.at(action), 1e-8) << action;
  }
}

TEST_P(RandomModels, HidingPreservesDynamics) {
  // Hiding renames labels to tau but leaves the chain isomorphic: state
  // count and total event rate are invariant, and the hidden actions'
  // throughput reappears as tau's.
  const Solved plain = solve_source(random_model(GetParam()));
  const Solved hidden = solve_source(random_model(GetParam(), false, "a, b"));
  EXPECT_EQ(plain.states, hidden.states);
  EXPECT_EQ(plain.has_deadlock, hidden.has_deadlock);
  if (plain.has_deadlock) GTEST_SKIP() << "deadlocked composition";
  EXPECT_NEAR(plain.total_event_rate, hidden.total_event_rate, 1e-8);
  const double hidden_mass =
      (plain.throughputs.count("a") ? plain.throughputs.at("a") : 0.0) +
      (plain.throughputs.count("b") ? plain.throughputs.at("b") : 0.0);
  const double tau_mass =
      hidden.throughputs.count("tau") ? hidden.throughputs.at("tau") : 0.0;
  EXPECT_NEAR(hidden_mass, tau_mass, 1e-8);
}

TEST_P(RandomModels, LumpingQuotientIsExact) {
  const std::string source = random_model(GetParam());
  cp::Model model = cp::parse_model(source);
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  if (!space.deadlock_states().empty()) GTEST_SKIP() << "deadlocked";
  const auto generator = space.generator();
  const auto lumping = cc::compute_lumping(generator);
  cc::check_lumpable(generator, lumping);
  std::vector<double> pi_full, pi_quotient;
  try {
    pi_full = cc::steady_state(generator).distribution;
    pi_quotient = cc::steady_state(lumping.quotient(generator)).distribution;
  } catch (const cu::NumericError&) {
    GTEST_SKIP() << "several recurrent classes";
  }
  const auto aggregated = lumping.aggregate(pi_full);
  ASSERT_EQ(pi_quotient.size(), aggregated.size());
  for (std::size_t b = 0; b < aggregated.size(); ++b) {
    EXPECT_NEAR(pi_quotient[b], aggregated[b], 1e-8);
  }
}

TEST_P(RandomModels, CountVectorQuotientIsExact) {
  // Every component doubled over the empty set, bare and under a hiding
  // set: the quotient-direct derivation explores count vectors (the hiding
  // becomes a node of the vector form), whose moves must reproduce the
  // full chain under any cooperation structure — lumping the quotient post
  // hoc reaches the full chain's coarsest lumping, and the steady-state
  // throughputs agree.
  const char* skipped = nullptr;
  for (const char* hide : {"", "a"}) {
    SCOPED_TRACE(::testing::Message() << "hide {" << hide << "}");
    cp::Model model =
        cp::parse_model(random_model(GetParam(), false, hide, 2));
    cp::Semantics semantics(model.arena());
    const auto full = cp::StateSpace::derive(semantics, model.system());
    cp::DeriveOptions options;
    options.aggregate = true;
    const auto quotient =
        cp::StateSpace::derive(semantics, model.system(), options);
    ASSERT_NE(quotient.vector_form(), nullptr);
    EXPECT_LE(quotient.state_count(), full.state_count());
    EXPECT_EQ(cp::aggregate(quotient).block_count,
              cp::aggregate(full).block_count);
    if (!full.deadlock_states().empty()) {
      skipped = "deadlocked";
      continue;
    }
    std::vector<double> pi_full, pi_quotient;
    try {
      pi_full = cc::steady_state(full.generator()).distribution;
      pi_quotient = cc::steady_state(quotient.generator()).distribution;
    } catch (const cu::NumericError&) {
      skipped = "several recurrent classes";
      continue;
    }
    for (cp::ActionId action = 0; action < model.arena().action_count();
         ++action) {
      EXPECT_NEAR(cp::action_throughput(full, pi_full, action),
                  cp::action_throughput(quotient, pi_quotient, action), 1e-8)
          << model.arena().action_name(action);
    }
  }
  if (skipped != nullptr) GTEST_SKIP() << skipped;
}

TEST_P(RandomModels, TransientConvergesToSteadyState) {
  const std::string source = random_model(GetParam());
  cp::Model model = cp::parse_model(source);
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  if (!space.deadlock_states().empty()) GTEST_SKIP() << "deadlocked";
  const auto generator = space.generator();
  std::vector<double> pi;
  try {
    pi = cc::steady_state(generator).distribution;
  } catch (const cu::NumericError&) {
    GTEST_SKIP() << "several recurrent classes";
  }
  // A reducible but deadlock-free chain may have transient states whose
  // long-run mass is zero; uniformisation must agree with pi Q = 0 in that
  // case too as long as the recurrent class is unique.  Conservatively run
  // from the steady state itself: it must be a fixed point of evolution.
  const auto evolved = cc::transient(generator, pi, 10.0);
  for (std::size_t s = 0; s < pi.size(); ++s) {
    EXPECT_NEAR(evolved.distribution[s], pi[s], 1e-6);
  }
}

TEST_P(RandomModels, SweepPointMatchesFreshDerivation) {
  // Each prefix rate of the random model in turn written through a
  // parameter `p`: every point of a sweep over `p` must reproduce a fresh
  // parse, derive and solve of the model with that value written in.
  // Covers the full chain, the count-vector quotient of doubled
  // components, and the count-vector quotient under the hiding set.
  struct Variant {
    const char* hide;
    std::size_t replicas;
    bool aggregate;
  };
  for (const Variant variant : {Variant{"", 1, false}, Variant{"", 2, true},
                                Variant{"a", 2, true}}) {
    const std::string source = random_model(GetParam(), false, variant.hide,
                                            variant.replicas);
    static const std::regex kPrefix(R"(\(([a-d]), ([0-9.]+)\))");
    for (auto match = std::sregex_iterator(source.begin(), source.end(),
                                           kPrefix);
         match != std::sregex_iterator(); ++match) {
      SCOPED_TRACE(::testing::Message()
                   << "replicas " << variant.replicas << ", hide {"
                   << variant.hide << "}, prefix at " << match->position(0));
      const std::string head = source.substr(0, match->position(0)) + "(" +
                               match->str(1) + ", p)" +
                               source.substr(match->position(0) +
                                             match->length(0));
      auto source_at = [&head](double value) {
        return "p = " + cu::format_double(value) + ";\n" + head;
      };

      cp::Model model = cp::parse_model(source_at(std::stod(match->str(2))));
      if (model.parameter_is_opaque("p")) continue;  // shares a literal prefix
      choreo::sweep::SweepSpec spec;
      spec.axes = {choreo::sweep::Axis::list("p", {0.4, 1.3, 2.9})};
      choreo::sweep::SweepOptions options;
      options.threads = 1;
      options.derive.aggregate = variant.aggregate;
      const choreo::sweep::SweepTable table =
          choreo::sweep::sweep(model, spec, options);

      for (const choreo::sweep::SweepRow& row : table.rows) {
        cp::Model fresh = cp::parse_model(source_at(row.values[0]));
        cp::Semantics semantics(fresh.arena());
        const auto space =
            cp::StateSpace::derive(semantics, fresh.system(), options.derive);
        ASSERT_EQ(table.state_count, space.state_count());
        cc::SolveResult solved;
        try {
          solved = cc::steady_state(space.generator());
        } catch (const cu::NumericError&) {
          EXPECT_FALSE(row.ok());  // several recurrent classes
          continue;
        }
        ASSERT_TRUE(row.ok()) << row.error;
        ASSERT_EQ(row.measures.size(), fresh.arena().action_count() - 1);
        for (cp::ActionId action = 1; action < fresh.arena().action_count();
             ++action) {
          const double expected =
              space.lts().action_throughput(solved.distribution, action);
          EXPECT_NEAR(row.measures[action - 1], expected,
                      1e-9 * std::max(1.0, std::abs(expected)))
              << fresh.arena().action_name(action) << " at p="
              << row.values[0];
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModels,
                         ::testing::Range<std::uint64_t>(0, 24));
