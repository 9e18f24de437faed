// Tests for quotient-direct derivation (DeriveOptions::aggregate): the
// exploration engine explores count vectors — replicated PEPA groups, or
// the tokens of interchangeable PEPA-net cells — so the explored space *is*
// a strong-equivalence quotient; models with nothing to count derive the
// full chain.  The post-hoc lumping (pepa::aggregate / pepanet::aggregate)
// acts as the correctness oracle throughout: block counts must agree
// exactly, the map from full states to quotient states must induce the
// same partition as the coarsest labelled lumping, and quotient steady
// states must match block-aggregated full distributions to 1e-9.  The
// families' closed-form quotient sizes pin the counts, and the acceptance
// test shows a quotient derivation completing under state and byte budgets
// the full chain provably exceeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ctmc/steady_state.hpp"
#include "pepa/aggregate.hpp"
#include "pepa/families.hpp"
#include "pepa/measures.hpp"
#include "pepa/parser.hpp"
#include "pepa/printer.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "pepanet/net.hpp"
#include "pepanet/netaggregate.hpp"
#include "pepanet/net_parser.hpp"
#include "pepanet/netsemantics.hpp"
#include "pepanet/netstatespace.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"

namespace {

using namespace choreo;
namespace cc = choreo::ctmc;
namespace cp = choreo::pepa;
namespace cn = choreo::pepanet;

/// Derives the full space and the quotient-direct space of `model` from
/// one shared arena, then checks the tentpole invariants:
///  - the quotient state count equals the coarsest labelled lumping's
///    block count on the full space (the post-hoc oracle);
///  - the quotient map (full state -> quotient.index_of of its term)
///    induces *exactly* the oracle's partition, not merely one of equal
///    size;
///  - the block-aggregated full steady state equals the quotient steady
///    state to 1e-9, and every per-action throughput survives.
void expect_quotient_matches_oracle(cp::Model& model) {
  cp::Semantics semantics(model.arena());
  const cp::StateSpace full =
      cp::StateSpace::derive(semantics, model.system());
  cp::DeriveOptions quotient_options;
  quotient_options.aggregate = true;
  const cp::StateSpace quotient =
      cp::StateSpace::derive(semantics, model.system(), quotient_options);
  EXPECT_FALSE(full.aggregated());
  EXPECT_TRUE(quotient.aggregated());

  const cc::LabelledLumping oracle = cp::aggregate(full);
  ASSERT_EQ(quotient.state_count(), oracle.block_count);

  // The quotient map must refine-and-equal the coarsest partition: two
  // full states share an oracle block iff they map to the same quotient
  // state.
  std::vector<std::size_t> quotient_of(full.state_count());
  std::map<std::size_t, std::set<std::size_t>> blocks_hit;
  for (std::size_t i = 0; i < full.state_count(); ++i) {
    const auto index = quotient.index_of(full.state_term(i));
    ASSERT_TRUE(index.has_value()) << "full state " << i
                                   << " missing from the quotient space";
    quotient_of[i] = *index;
    blocks_hit[*index].insert(oracle.block_of[i]);
  }
  for (const auto& [quotient_state, oracle_blocks] : blocks_hit) {
    EXPECT_EQ(oracle_blocks.size(), 1u)
        << "quotient state " << quotient_state
        << " spans several coarsest-lumping blocks";
  }
  EXPECT_EQ(blocks_hit.size(), oracle.block_count);

  // Steady state: block-aggregated full distribution == quotient solve.
  const auto pi_full = cc::steady_state(full.generator()).distribution;
  const auto pi_quotient = cc::steady_state(quotient.generator()).distribution;
  std::vector<double> aggregated(quotient.state_count(), 0.0);
  for (std::size_t i = 0; i < full.state_count(); ++i) {
    aggregated[quotient_of[i]] += pi_full[i];
  }
  ASSERT_EQ(aggregated.size(), pi_quotient.size());
  for (std::size_t b = 0; b < aggregated.size(); ++b) {
    EXPECT_NEAR(aggregated[b], pi_quotient[b], 1e-9) << "block " << b;
  }

  // Every per-action throughput is preserved on the quotient.
  const auto action_count =
      static_cast<cp::ActionId>(model.arena().action_count());
  for (cp::ActionId action = 0; action < action_count; ++action) {
    EXPECT_NEAR(cp::action_throughput(full, pi_full, action),
                cp::action_throughput(quotient, pi_quotient, action), 1e-9)
        << "action " << model.arena().action_name(action);
  }
}

TEST(QuotientPepa, ClientServerMatchesClosedFormAndOracle) {
  cp::ClientServerParams params;
  params.servers = 3;
  cp::Model model = cp::client_server(4, params);
  {
    cp::Semantics semantics(model.arena());
    cp::DeriveOptions options;
    options.aggregate = true;
    const auto quotient =
        cp::StateSpace::derive(semantics, model.system(), options);
    EXPECT_EQ(quotient.state_count(), cp::client_server_quotient_states(4, 3));
    // Count-vector derivation: 4 clients and 3 servers fold into two
    // counted groups.
    ASSERT_NE(quotient.vector_form(), nullptr);
    EXPECT_EQ(quotient.stats().collapsed_replicas, 3u + 2u);
  }
  expect_quotient_matches_oracle(model);
}

TEST(QuotientPepa, PdaHandoverMatchesClosedFormAndOracle) {
  cp::PdaHandoverParams params;
  params.transmitters = 2;
  cp::Model model = cp::pda_handover(3, params);
  {
    cp::Semantics semantics(model.arena());
    cp::DeriveOptions options;
    options.aggregate = true;
    const auto quotient =
        cp::StateSpace::derive(semantics, model.system(), options);
    EXPECT_EQ(quotient.state_count(), cp::pda_handover_quotient_states(3, 2));
  }
  expect_quotient_matches_oracle(model);
}

TEST(QuotientPepa, RingIsTheNoCollapseControl) {
  // Ring stations carry distinct per-station action types: nothing is
  // exchangeable, so there is nothing to count and the quotient is the
  // full space.
  cp::Model model = cp::ring(4);
  cp::Semantics semantics(model.arena());
  const auto full = cp::StateSpace::derive(semantics, model.system());
  cp::DeriveOptions options;
  options.aggregate = true;
  const auto quotient =
      cp::StateSpace::derive(semantics, model.system(), options);
  EXPECT_EQ(full.state_count(), cp::ring_states(4));
  EXPECT_EQ(quotient.state_count(), full.state_count());
  expect_quotient_matches_oracle(model);
}

TEST(QuotientPepa, ByteIdenticalAcrossLaneCounts) {
  // Count vectors are chosen by structure, never by interning order, so
  // the quotient (states *and* transitions) is identical at every lane
  // count.  Fresh models per lane: nothing can leak through a shared
  // arena.
  using Rendered = std::pair<std::vector<std::string>,
                             std::vector<std::tuple<std::size_t, std::size_t,
                                                    std::uint32_t, double>>>;
  auto render = [](const std::function<cp::Model()>& build,
                   std::size_t threads) -> Rendered {
    cp::Model model = build();
    cp::Semantics semantics(model.arena());
    cp::DeriveOptions options;
    options.aggregate = true;
    options.threads = threads;
    const auto space =
        cp::StateSpace::derive(semantics, model.system(), options);
    Rendered out;
    for (std::size_t i = 0; i < space.state_count(); ++i) {
      out.first.push_back(cp::to_string(model.arena(), space.state_term(i)));
    }
    for (const auto& t : space.transitions()) {
      out.second.emplace_back(t.source, t.target, t.action, t.rate);
    }
    return out;
  };
  const std::function<cp::Model()> client_server = [] {
    cp::ClientServerParams params;
    params.servers = 3;
    return cp::client_server(5, params);
  };
  const std::function<cp::Model()> pda_handover = [] {
    cp::PdaHandoverParams params;
    params.transmitters = 6;
    return cp::pda_handover(30, params);
  };
  const std::function<cp::Model()> hidden = [] {
    return cp::parse_model(R"(
      P = (a, 2.0).P1;
      P1 = (b, 1.0).P2;
      P2 = (c, 0.5).P;
      S = (b, 3.0).S1;
      S1 = (d, 4.0).S;
      System = ((P || P || P || P || P || P)/{a, c}) <b> (S || S);
      @system System;
    )");
  };
  const Rendered clients = render(client_server, 1);
  EXPECT_EQ(clients.first.size(), cp::client_server_quotient_states(5, 3));
  const Rendered pdas = render(pda_handover, 1);
  EXPECT_EQ(pdas.first.size(), cp::pda_handover_quotient_states(30, 6));
  const Rendered hiddens = render(hidden, 1);
  EXPECT_EQ(hiddens.first.size(), 28u * 3u);  // C(6+2, 2) x C(2+1, 1)
  for (const std::size_t lanes : {2u, 4u, 8u}) {
    EXPECT_EQ(render(client_server, lanes), clients) << lanes << " lanes";
    EXPECT_EQ(render(pda_handover, lanes), pdas) << lanes << " lanes";
    EXPECT_EQ(render(hidden, lanes), hiddens) << lanes << " lanes";
  }
}

TEST(QuotientPepa, TransitionsScaleWithTheQuotient) {
  // Count-vector states merge the replicas' parallel moves into one
  // transition per (target, action): the stored transitions track the
  // block count, not the replica count (one transition per replica move
  // would be 52,920 and 43,540 here).
  auto derive = [](cp::Model model) {
    cp::Semantics semantics(model.arena());
    cp::DeriveOptions options;
    options.aggregate = true;
    const auto space =
        cp::StateSpace::derive(semantics, model.system(), options);
    return std::make_pair(space.state_count(), space.transitions().size());
  };
  cp::PdaHandoverParams pda_params;
  pda_params.transmitters = 20;
  const auto [pda_states, pda_transitions] =
      derive(cp::pda_handover(20, pda_params));
  EXPECT_EQ(pda_states, cp::pda_handover_quotient_states(20, 20));
  EXPECT_LE(pda_transitions, 1240u);

  cp::ClientServerParams server_params;
  server_params.servers = 20;
  const auto [server_states, server_transitions] =
      derive(cp::client_server(200, server_params));
  EXPECT_EQ(server_states, cp::client_server_quotient_states(200, 20));
  EXPECT_LE(server_transitions, 40u);
}

TEST(QuotientPepa, SynchronisedReplicasStayApartButLumpToTheOracle) {
  // The vector form groups only replicas over the empty set: the two
  // synchronised Ps are separate count-one groups, so (P, P1) and (P1, P)
  // stay distinct blocks while the three Qs collapse to counts.  The
  // quotient is finer than the coarsest lumping but exact — throughputs
  // match the full chain, and lumping it post hoc reaches the oracle.
  cp::Model model = cp::parse_model(R"(
    P = (a, 2.0).P1;
    P1 = (b, 1.0).P;
    Q = (c, 1.5).Q1;
    Q1 = (d, 0.5).Q;
    System = (P <a> P) || (Q || Q || Q);
    @system System;
  )");
  cp::Semantics semantics(model.arena());
  const cp::StateSpace full =
      cp::StateSpace::derive(semantics, model.system());
  cp::DeriveOptions options;
  options.aggregate = true;
  const cp::StateSpace quotient =
      cp::StateSpace::derive(semantics, model.system(), options);
  ASSERT_NE(quotient.vector_form(), nullptr);
  EXPECT_EQ(full.state_count(), 4u * 8u);
  EXPECT_EQ(quotient.state_count(), 4u * 4u);

  const cc::LabelledLumping oracle = cp::aggregate(full);
  EXPECT_EQ(oracle.block_count, 3u * 4u);
  EXPECT_EQ(cp::aggregate(quotient).block_count, oracle.block_count);

  // Every full state lands on the quotient through its count vector, and
  // the block-aggregated full steady state is the quotient's.
  const auto pi_full = cc::steady_state(full.generator()).distribution;
  const auto pi_quotient = cc::steady_state(quotient.generator()).distribution;
  std::vector<double> aggregated(quotient.state_count(), 0.0);
  for (std::size_t i = 0; i < full.state_count(); ++i) {
    const auto index = quotient.index_of(full.state_term(i));
    ASSERT_TRUE(index.has_value()) << "full state " << i;
    aggregated[*index] += pi_full[i];
  }
  for (std::size_t b = 0; b < aggregated.size(); ++b) {
    EXPECT_NEAR(aggregated[b], pi_quotient[b], 1e-9) << "block " << b;
  }
  const auto action_count =
      static_cast<cp::ActionId>(model.arena().action_count());
  for (cp::ActionId action = 0; action < action_count; ++action) {
    EXPECT_NEAR(cp::action_throughput(full, pi_full, action),
                cp::action_throughput(quotient, pi_quotient, action), 1e-9)
        << "action " << model.arena().action_name(action);
  }
}

TEST(QuotientPepa, CompletesUnderBudgetTheFullChainExceeds) {
  // The acceptance gate: client_server(120, 2) has C(122, 2) = 7381 full
  // states but a 3-state quotient.  Under a 4000-state cap the full
  // derivation must abort with BudgetError while the quotient-direct one
  // completes — and reports the closed-form block count.
  cp::ClientServerParams params;
  params.servers = 2;
  ASSERT_EQ(cp::client_server_states(120, 2), 7381u);
  ASSERT_EQ(cp::client_server_quotient_states(120, 2), 3u);

  {
    cp::Model model = cp::client_server(120, params);
    cp::Semantics semantics(model.arena());
    cp::DeriveOptions options;
    options.max_states = 4000;
    EXPECT_THROW(cp::StateSpace::derive(semantics, model.system(), options),
                 util::BudgetError);
  }
  {
    cp::Model model = cp::client_server(120, params);
    cp::Semantics semantics(model.arena());
    cp::DeriveOptions options;
    options.max_states = 4000;
    options.aggregate = true;
    const auto quotient =
        cp::StateSpace::derive(semantics, model.system(), options);
    EXPECT_EQ(quotient.state_count(), 3u);
    EXPECT_GT(quotient.stats().collapsed_replicas, 0u);
  }

  // Same story in bytes: a budget ceiling the full chain blows through
  // within its first levels leaves the quotient derivation untouched.
  {
    cp::Model model = cp::client_server(120, params);
    cp::Semantics semantics(model.arena());
    util::Budget budget;
    budget.set_max_state_bytes(4096);
    cp::DeriveOptions options;
    options.budget = &budget;
    EXPECT_THROW(cp::StateSpace::derive(semantics, model.system(), options),
                 util::BudgetError);
  }
  {
    cp::Model model = cp::client_server(120, params);
    cp::Semantics semantics(model.arena());
    util::Budget budget;
    budget.set_max_state_bytes(4096);
    cp::DeriveOptions options;
    options.budget = &budget;
    options.aggregate = true;
    const auto quotient =
        cp::StateSpace::derive(semantics, model.system(), options);
    EXPECT_EQ(quotient.state_count(), 3u);
    EXPECT_EQ(budget.usage().states, 3u);
    EXPECT_LE(budget.usage().peak_state_bytes, 4096u);
  }
}

TEST(QuotientPepa, HiddenPopulationKeepsItsCountVectorQuotient) {
  // A hiding over a composition is a vector-form node carrying its hiding
  // set: the three hidden replicas still fold into one counted group (4
  // blocks: how many sit in P1), their hidden moves appear as tau, and the
  // quotient passes the oracle.
  cp::Model model = cp::parse_model(R"(
    P = (a, 2.0).P1;
    P1 = (b, 1.0).P;
    System = (P || P || P)/{a};
    @system System;
  )");
  {
    cp::Semantics semantics(model.arena());
    cp::DeriveOptions options;
    options.aggregate = true;
    const auto quotient =
        cp::StateSpace::derive(semantics, model.system(), options);
    ASSERT_NE(quotient.vector_form(), nullptr);
    EXPECT_EQ(quotient.state_count(), 4u);
    EXPECT_EQ(quotient.stats().collapsed_replicas, 2u);
    for (const auto& t : quotient.transitions()) {
      EXPECT_NE(model.arena().action_name(t.action), "a");
    }
  }
  expect_quotient_matches_oracle(model);
}

TEST(QuotientPepa, NothingToCountDerivesTheFullChain) {
  // Synchronised identical cooperands and a replicated composite hold no
  // group of two or more replicas over the empty set: aggregation derives
  // the full chain (P <a> P: 4 states; (P <a> Q) || (P <a> Q): 16), which
  // is still exact and lumps post hoc to the coarsest quotient.
  for (const char* system : {"P <a> P", "(P <a> Q) || (P <a> Q)"}) {
    SCOPED_TRACE(system);
    cp::Model model = cp::parse_model(std::string(R"(
      P = (a, 2.0).P1;
      P1 = (b, 1.0).P;
      Q = (a, 3.0).Q1;
      Q1 = (c, 0.5).Q;
      System = )") + system + ";\n@system System;\n");
    cp::Semantics semantics(model.arena());
    const auto full = cp::StateSpace::derive(semantics, model.system());
    cp::DeriveOptions options;
    options.aggregate = true;
    const auto quotient =
        cp::StateSpace::derive(semantics, model.system(), options);
    EXPECT_TRUE(quotient.aggregated());
    EXPECT_EQ(quotient.vector_form(), nullptr);
    EXPECT_EQ(quotient.state_count(), full.state_count());
    EXPECT_EQ(quotient.stats().collapsed_replicas, 0u);
    EXPECT_EQ(cp::aggregate(quotient).block_count,
              cp::aggregate(full).block_count);
  }
}

// --- PEPA nets -------------------------------------------------------------

/// Three independent identical tokens cycling Work -> Rest in one place:
/// 2^3 = 8 raw markings, 4 population-vector blocks.
cn::PepaNet three_cell_net() {
  cn::PepaNet net;
  auto& arena = net.arena();
  const auto work = arena.action("work");
  const auto rest = arena.action("rest");
  const auto working = arena.declare("Working");
  const auto resting = arena.declare("Resting");
  arena.define(working, arena.prefix(work, cp::Rate::active(2.0),
                                     arena.constant(resting)));
  arena.define(resting, arena.prefix(rest, cp::Rate::active(3.0),
                                     arena.constant(working)));
  const auto type = net.add_token_type("T", arena.constant(working));
  const auto place = net.add_place("p");
  net.add_cell(place, type, arena.constant(working));
  net.add_cell(place, type, arena.constant(working));
  net.add_cell(place, type, arena.constant(working));
  net.set_coop_sets(place, {{}, {}});
  return net;
}

TEST(QuotientNet, SymmetricCellsCollapseToPopulationCounts) {
  cn::PepaNet net = three_cell_net();
  cn::NetSemantics semantics(net);
  const auto full = cn::NetStateSpace::derive(semantics);
  ASSERT_EQ(full.marking_count(), 8u);

  cn::NetDeriveOptions options;
  options.aggregate = true;
  const auto quotient = cn::NetStateSpace::derive(semantics, options);
  EXPECT_TRUE(quotient.aggregated());
  EXPECT_EQ(quotient.marking_count(), 4u);  // 0..3 resting tokens
  EXPECT_EQ(quotient.stats().collapsed_replicas, 2u);  // one 3-cell class

  const cc::LabelledLumping oracle = cn::aggregate(full);
  ASSERT_EQ(oracle.block_count, quotient.marking_count());

  // Steady state through the quotient map (index_of arranges any marking
  // of the net), against the quotient solve, to 1e-9 — the same oracle
  // discipline as the PEPA side.
  const auto pi_full = cc::steady_state(full.generator()).distribution;
  const auto pi_quotient = cc::steady_state(quotient.generator()).distribution;
  std::vector<double> aggregated(quotient.marking_count(), 0.0);
  for (std::size_t i = 0; i < full.marking_count(); ++i) {
    const auto target = quotient.index_of(full.marking(i));
    ASSERT_TRUE(target.has_value()) << "marking " << i
                                    << " missing from quotient graph";
    aggregated[*target] += pi_full[i];
  }
  for (std::size_t b = 0; b < aggregated.size(); ++b) {
    EXPECT_NEAR(aggregated[b], pi_quotient[b], 1e-9) << "block " << b;
  }

  const auto work = *net.arena().find_action("work");
  EXPECT_NEAR(cn::action_throughput(full, pi_full, work),
              cn::action_throughput(quotient, pi_quotient, work), 1e-9);
}

/// Two tokens hopping between two 2-cell places with a local work cycle:
/// firing moves and local moves both cross the canonical map.
cn::PepaNet hopping_net() {
  cn::PepaNet net;
  auto& arena = net.arena();
  const auto work = arena.action("work");
  const auto hop = arena.action("hop");
  const auto stay = arena.declare("Stay");
  const auto go = arena.declare("Go");
  arena.define(stay,
               arena.prefix(work, cp::Rate::active(2.0), arena.constant(go)));
  arena.define(go,
               arena.prefix(hop, cp::Rate::active(1.0), arena.constant(stay)));
  const auto type = net.add_token_type("T", arena.constant(stay));
  const auto p = net.add_place("p");
  net.add_cell(p, type, arena.constant(stay));
  net.add_cell(p, type, arena.constant(stay));
  net.set_coop_sets(p, {{}});
  const auto q = net.add_place("q");
  net.add_cell(q, type);
  net.add_cell(q, type);
  net.set_coop_sets(q, {{}});
  net.add_transition("hop", cp::Rate::passive(1.0), {p}, {q});
  net.add_transition("hop", cp::Rate::passive(1.0), {q}, {p});
  return net;
}

TEST(QuotientNet, FiringMovesAgreeWithPostHocOracle) {
  cn::PepaNet full_net = hopping_net();
  cn::NetSemantics full_semantics(full_net);
  const auto full = cn::NetStateSpace::derive(full_semantics);

  cn::PepaNet quotient_net = hopping_net();
  cn::NetSemantics quotient_semantics(quotient_net);
  cn::NetDeriveOptions options;
  options.aggregate = true;
  const auto quotient = cn::NetStateSpace::derive(quotient_semantics, options);

  // Token counts collapse cell permutations *within* each place;
  // this net additionally has a p <-> q exchange symmetry only the global
  // coarsest lumping can see.  So the on-the-fly quotient sits strictly
  // between: a sound refinement of the coarsest partition, strictly
  // smaller than the raw graph — and lumping the quotient post hoc must
  // land on exactly the coarsest block count the full graph yields
  // (nothing was lost by aggregating on the fly).
  const cc::LabelledLumping oracle = cn::aggregate(full);
  EXPECT_LT(quotient.marking_count(), full.marking_count());
  EXPECT_GE(quotient.marking_count(), oracle.block_count);
  EXPECT_EQ(cn::aggregate(quotient).block_count, oracle.block_count);
  EXPECT_GT(quotient.stats().collapsed_replicas, 0u);

  const auto pi_full = cc::steady_state(full.generator()).distribution;
  const auto pi_quotient = cc::steady_state(quotient.generator()).distribution;
  for (const char* name : {"work", "hop"}) {
    const auto full_action = *full_net.arena().find_action(name);
    const auto quotient_action = *quotient_net.arena().find_action(name);
    EXPECT_NEAR(cn::action_throughput(full, pi_full, full_action),
                cn::action_throughput(quotient, pi_quotient, quotient_action),
                1e-9)
        << name;
  }
}

TEST(QuotientNet, MergedMovesStoreNoMoreTransitionsPerBlock) {
  // Moves into one block merge with their rates summed, so a counted graph
  // stores no more transitions per block than the full graph stores per
  // marking.
  for (const auto& build : {three_cell_net, hopping_net}) {
    cn::PepaNet net = build();
    cn::NetSemantics semantics(net);
    const auto full = cn::NetStateSpace::derive(semantics);
    cn::NetDeriveOptions options;
    options.aggregate = true;
    const auto quotient = cn::NetStateSpace::derive(semantics, options);
    ASSERT_LT(quotient.marking_count(), full.marking_count());
    EXPECT_LE(quotient.transitions().size() * full.marking_count(),
              full.transitions().size() * quotient.marking_count())
        << quotient.transitions().size() << " transitions over "
        << quotient.marking_count() << " blocks vs "
        << full.transitions().size() << " over " << full.marking_count()
        << " markings";
  }
}

TEST(QuotientNet, MarkingGraphDeterministicAcrossLaneCounts) {
  using Rendered = std::pair<std::vector<std::string>,
                             std::vector<std::tuple<std::size_t, std::size_t,
                                                    std::uint32_t, double>>>;
  // hopping_net, and four tokens hopping round a ring of three 4-cell
  // places (7,920 markings, 126 blocks), whose wider levels spread over
  // the lanes.
  auto render = [](std::size_t threads, bool ring) -> Rendered {
    cn::PepaNet net = ring ? cn::parse_net(R"(
      Msg = (hop, 2.0).Rest;
      Rest = (hop, 1.0).Msg;
      @token Msg;
      @place ring0 { cell Msg = Msg; cell Msg = Msg; cell Msg = Rest; cell Msg; }
      @place ring1 { cell Msg; cell Msg; cell Msg; cell Msg = Rest; }
      @place ring2 { cell Msg; cell Msg; cell Msg; cell Msg; }
      @transition hop (rate infty) from ring0 to ring1;
      @transition hop (rate infty) from ring1 to ring2;
      @transition hop (rate infty) from ring2 to ring0;
    )").net
                           : hopping_net();
    cn::NetSemantics semantics(net);
    cn::NetDeriveOptions options;
    options.aggregate = true;
    options.threads = threads;
    const auto space = cn::NetStateSpace::derive(semantics, options);
    Rendered out;
    for (std::size_t i = 0; i < space.marking_count(); ++i) {
      std::string rendered;
      for (const auto slot : space.marking(i)) {
        rendered += slot == cn::kVacant ? std::string("-")
                                        : cp::to_string(net.arena(), slot);
        rendered += '|';
      }
      out.first.push_back(std::move(rendered));
    }
    for (const auto& t : space.transitions()) {
      out.second.emplace_back(t.source, t.target, t.action, t.rate);
    }
    return out;
  };
  for (const bool ring : {false, true}) {
    const Rendered lane1 = render(1, ring);
    if (ring) {
      EXPECT_EQ(lane1.first.size(), 126u);
    }
    EXPECT_EQ(render(2, ring), lane1) << "ring " << ring;
    EXPECT_EQ(render(8, ring), lane1) << "ring " << ring;
  }
}

// --- design-space sweeps over the quotient ---------------------------------

TEST(QuotientSweep, SweepOverQuotientStructureMatchesFullSweep) {
  // The canonical partition depends only on structure, never on rate
  // values, so one quotient derivation can back a whole sweep: every
  // point's measures must match the full-structure sweep to 1e-9.
  const char* source = R"(
    req = 1.5;
    resp = 2.0;
    Client = (request, req).ClientWaiting;
    ClientWaiting = (response, infty).Client;
    Server = (request, infty).ServerBusy;
    ServerBusy = (response, resp).Server;
    System = (Client || Client || Client)
             <request, response> (Server || Server);
    @system System;
  )";
  sweep::SweepSpec spec;
  spec.axes = {sweep::Axis::list("req", {0.5, 1.5, 4.0})};

  cp::Model full_model = cp::parse_model(source, "full");
  sweep::SweepOptions full_options;
  full_options.threads = 1;
  const sweep::SweepTable full = sweep::sweep(full_model, spec, full_options);

  cp::Model quotient_model = cp::parse_model(source, "quotient");
  sweep::SweepOptions quotient_options;
  quotient_options.threads = 1;
  quotient_options.derive.aggregate = true;
  const sweep::SweepTable quotient =
      sweep::sweep(quotient_model, spec, quotient_options);

  EXPECT_EQ(full.state_count, cp::client_server_states(3, 2));
  EXPECT_EQ(quotient.state_count, cp::client_server_quotient_states(3, 2));
  EXPECT_EQ(quotient.derivations, 1u);
  ASSERT_EQ(quotient.rows.size(), full.rows.size());
  ASSERT_EQ(quotient.measures, full.measures);
  for (std::size_t r = 0; r < full.rows.size(); ++r) {
    ASSERT_TRUE(full.rows[r].ok()) << full.rows[r].error;
    ASSERT_TRUE(quotient.rows[r].ok()) << quotient.rows[r].error;
    ASSERT_EQ(quotient.rows[r].measures.size(), full.rows[r].measures.size());
    for (std::size_t m = 0; m < full.rows[r].measures.size(); ++m) {
      EXPECT_NEAR(quotient.rows[r].measures[m], full.rows[r].measures[m], 1e-9)
          << "row " << r << " measure " << full.measures[m];
    }
  }
}

}  // namespace
