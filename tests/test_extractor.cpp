// Integration tests for the Section-3 extractor: activity diagrams to PEPA
// nets on the paper's case studies, the state-machine extractor, the DOM
// extraction path, .rates files, and the reflector.
#include <gtest/gtest.h>

#include "choreographer/dom_extract.hpp"
#include "choreographer/extract_activity.hpp"
#include "choreographer/extract_statechart.hpp"
#include "choreographer/names.hpp"
#include "choreographer/paper_models.hpp"
#include "choreographer/rates.hpp"
#include "choreographer/reflect.hpp"
#include "ctmc/steady_state.hpp"
#include "pepa/measures.hpp"
#include "pepa/printer.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "pepanet/net_printer.hpp"
#include "pepanet/netsemantics.hpp"
#include "pepanet/netstatespace.hpp"
#include "uml/xmi.hpp"
#include "util/error.hpp"

namespace chor = choreo::chor;
namespace cm = choreo::uml;
namespace cp = choreo::pepa;
namespace cn = choreo::pepanet;
namespace cc = choreo::ctmc;
namespace cu = choreo::util;

TEST(Names, Sanitisation) {
  EXPECT_EQ(chor::sanitise_identifier("download file"), "download_file");
  EXPECT_EQ(chor::sanitise_identifier("9lives"), "_9lives");
  EXPECT_EQ(chor::sanitise_identifier(""), "_");
  EXPECT_EQ(chor::sanitise_identifier("ok_name2"), "ok_name2");
}

TEST(Names, PoolUniquifies) {
  chor::NamePool pool;
  EXPECT_EQ(pool.unique("a b"), "a_b");
  EXPECT_EQ(pool.unique("a_b"), "a_b_2");
  EXPECT_EQ(pool.unique("a b"), "a_b_3");
}

TEST(ExtractActivity, InstantMessageMapping) {
  // The Section-3 mapping on Figure 2: two locations -> two places, two
  // moves -> two net transitions, one object -> one token type.
  const cm::Model model = chor::instant_message_model();
  const auto extraction =
      chor::extract_activity_graph(model.activity_graphs()[0]);
  EXPECT_EQ(extraction.net.place_count(), 2u);
  EXPECT_EQ(extraction.net.transition_count(), 2u);
  EXPECT_EQ(extraction.net.token_type_count(), 1u);
  EXPECT_EQ(extraction.place_names, (std::vector<std::string>{"p1", "p2"}));
  ASSERT_EQ(extraction.tokens.size(), 1u);
  EXPECT_EQ(extraction.tokens[0].first, "f");
  // The transmit firing goes p1 -> p2, archive goes p2 -> p1.
  const auto& transmit = extraction.net.transition(0);
  EXPECT_EQ(transmit.name, "transmit");
  EXPECT_EQ(extraction.net.place(transmit.inputs[0]).name, "p1");
  EXPECT_EQ(extraction.net.place(transmit.outputs[0]).name, "p2");
  EXPECT_DOUBLE_EQ(transmit.rate.value(), 0.7);
}

TEST(ExtractActivity, InstantMessageSteadyState) {
  const cm::Model model = chor::instant_message_model();
  auto extraction = chor::extract_activity_graph(model.activity_graphs()[0]);
  cn::NetSemantics semantics(extraction.net);
  const auto space = cn::NetStateSpace::derive(semantics);
  EXPECT_TRUE(space.deadlock_markings().empty());
  const auto pi = cc::steady_state(space.generator()).distribution;
  const auto transmit = *extraction.net.arena().find_action("transmit");
  const auto archive = *extraction.net.arena().find_action("archive");
  const auto write = *extraction.net.arena().find_action("write");
  // One transmit per archive per write per cycle.
  EXPECT_NEAR(cn::action_throughput(space, pi, transmit),
              cn::action_throughput(space, pi, archive), 1e-10);
  EXPECT_NEAR(cn::action_throughput(space, pi, transmit),
              cn::action_throughput(space, pi, write), 1e-10);
  // The cycle rate is bounded by its slowest stage (transmit at 0.7).
  EXPECT_LT(cn::action_throughput(space, pi, transmit), 0.7);
}

TEST(ExtractActivity, FileDiagramWithoutMobility) {
  // Figure 1: no atloc tags -> a single implicit place, no firings.
  const cm::Model model = chor::file_activity_model();
  auto extraction = chor::extract_activity_graph(model.activity_graphs()[0]);
  EXPECT_EQ(extraction.net.place_count(), 1u);
  EXPECT_EQ(extraction.net.transition_count(), 0u);
  EXPECT_EQ(extraction.place_names, std::vector<std::string>{"main"});

  cn::NetSemantics semantics(extraction.net);
  const auto space = cn::NetStateSpace::derive(semantics);
  EXPECT_TRUE(space.deadlock_markings().empty());
  const auto pi = cc::steady_state(space.generator()).distribution;
  // Protocol invariants: every open is closed, reads and writes balance
  // with their respective opens.
  const auto openread = *extraction.net.arena().find_action("openread");
  const auto openwrite = *extraction.net.arena().find_action("openwrite");
  const auto close_r = *extraction.net.arena().find_action("close_after_read");
  const auto close_w = *extraction.net.arena().find_action("close_after_write");
  EXPECT_NEAR(cn::action_throughput(space, pi, openread),
              cn::action_throughput(space, pi, close_r), 1e-10);
  EXPECT_NEAR(cn::action_throughput(space, pi, openwrite),
              cn::action_throughput(space, pi, close_w), 1e-10);
}

TEST(ExtractActivity, PdaHandoverMapping) {
  const cm::Model model = chor::pda_handover_model();
  auto extraction = chor::extract_activity_graph(model.activity_graphs()[0]);
  EXPECT_EQ(extraction.net.place_count(), 2u);  // two transmitters
  EXPECT_EQ(extraction.net.transition_count(), 2u);  // handover_1, handover_2
  cn::NetSemantics semantics(extraction.net);
  const auto space = cn::NetStateSpace::derive(semantics);
  EXPECT_TRUE(space.deadlock_markings().empty());

  const auto pi = cc::steady_state(space.generator()).distribution;
  const auto& arena = extraction.net.arena();
  // 50/50 handover outcome: continue and abort throughputs are equal.
  const double cont = cn::action_throughput(
      space, pi, *arena.find_action("continue_download_1"));
  const double abort = cn::action_throughput(
      space, pi, *arena.find_action("abort_download_1"));
  EXPECT_NEAR(cont, abort, 1e-10);
  // Ring symmetry: both handovers have the same throughput, and each cycle
  // stage completes once per handover.
  const double h1 =
      cn::action_throughput(space, pi, *arena.find_action("handover_1"));
  const double h2 =
      cn::action_throughput(space, pi, *arena.find_action("handover_2"));
  EXPECT_NEAR(h1, h2, 1e-10);
  EXPECT_NEAR(cont + abort, h1, 1e-10);
}

TEST(ExtractActivity, PdaRingScalesWithTransmitters) {
  for (std::size_t n : {2u, 3u, 5u}) {
    chor::PdaParams params;
    params.transmitters = n;
    const cm::Model model = chor::pda_handover_model(params);
    auto extraction = chor::extract_activity_graph(model.activity_graphs()[0]);
    EXPECT_EQ(extraction.net.place_count(), n);
    EXPECT_EQ(extraction.net.transition_count(), n);
    cn::NetSemantics semantics(extraction.net);
    const auto space = cn::NetStateSpace::derive(semantics);
    EXPECT_TRUE(space.deadlock_markings().empty());
    // One token cycling the ring: five markings per hop (download, detect,
    // search, handover-ready at the hop's transmitter; the outcome diamond
    // at the next one).
    EXPECT_EQ(space.marking_count(), 5 * n);
  }
}

TEST(ExtractActivity, DefaultRateAppliesToUntaggedActions) {
  cm::ActivityGraph graph("g");
  const auto initial = graph.add_initial();
  cm::ActivityNode raw;  // untagged action
  raw.kind = cm::ActivityNode::Kind::kAction;
  raw.name = "untimed";
  const auto action = graph.add_node(std::move(raw));
  graph.add_control_flow(initial, action);
  graph.add_control_flow(action, action);
  const auto obj = graph.add_object("o", "T", "");
  graph.add_object_flow(action, obj, true);
  cm::Model model;
  model.add_activity_graph(std::move(graph));

  chor::ExtractOptions options;
  options.default_rate = 4.25;
  auto extraction =
      chor::extract_activity_graph(model.activity_graphs()[0], options);
  cn::NetSemantics semantics(extraction.net);
  const auto moves = semantics.moves(extraction.net.initial_marking());
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_DOUBLE_EQ(moves[0].rate.value(), 4.25);
}

TEST(ExtractActivity, PriorityTagMustBeAnUnsignedInteger) {
  for (const char* priority : {"1e30", "-1", "1.5"}) {
    cm::Model model = chor::pda_handover_model();
    auto& graph = model.activity_graphs()[0];
    graph.nodes()[*graph.find_action("handover_1")].tags.set("priority", priority);
    EXPECT_THROW(chor::extract_activity_graph(graph), cu::ModelError) << priority;
  }
}

TEST(ExtractActivity, RejectsDegenerateDiagrams) {
  {
    cm::ActivityGraph graph("no_objects");
    graph.add_initial();
    cm::Model model;
    model.add_activity_graph(std::move(graph));
    EXPECT_THROW(chor::extract_activity_graph(model.activity_graphs()[0]),
                 cu::ModelError);
  }
  {
    cm::ActivityGraph graph("inert_object");
    const auto initial = graph.add_initial();
    const auto a = graph.add_action("a", 1.0);
    graph.add_control_flow(initial, a);
    graph.add_object("o", "T", "x");  // never attached to an activity
    const auto p = graph.add_object("p", "T", "x");
    graph.add_object_flow(a, p, true);
    cm::Model model;
    model.add_activity_graph(std::move(graph));
    EXPECT_THROW(chor::extract_activity_graph(model.activity_graphs()[0]),
                 cu::ModelError);
  }
}

TEST(ExtractActivity, ObjectlessActivitiesBecomeStatics) {
  // An activity with no object flow maps to a static component at its
  // location (Section 3 mapping table, row 4).
  cm::ActivityGraph graph("statics");
  const auto initial = graph.add_initial();
  const auto work = graph.add_action("work", 2.0);
  const auto beep = graph.add_action("beep", 7.0);  // object-less
  graph.add_control_flow(initial, work);
  graph.add_control_flow(work, beep);
  graph.add_control_flow(beep, work);
  const auto obj = graph.add_object("o", "T", "lab");
  graph.add_object_flow(work, obj, true);
  cm::Model model;
  model.add_activity_graph(std::move(graph));

  auto extraction = chor::extract_activity_graph(model.activity_graphs()[0]);
  EXPECT_EQ(extraction.static_locations, std::vector<std::string>{"lab"});
  const cn::Place& place = extraction.net.place(0);
  ASSERT_EQ(place.slots.size(), 2u);
  EXPECT_EQ(place.slots[1].kind, cn::Slot::Kind::kStatic);

  cn::NetSemantics semantics(extraction.net);
  const auto space = cn::NetStateSpace::derive(semantics);
  const auto pi = cc::steady_state(space.generator()).distribution;
  EXPECT_GT(cn::action_throughput(space, pi,
                                  *extraction.net.arena().find_action("beep")),
            0.0);
}

TEST(ExtractActivity, DomAndMetamodelPathsAgree) {
  // The paper's two extractor routes (typed-metamodel vs DOM walk) must
  // produce identical nets.
  const cm::Model model = chor::pda_handover_model();
  const auto via_metamodel =
      chor::extract_activity_graph(model.activity_graphs()[0]);
  const auto via_dom = chor::extract_activity_graph_dom(cm::to_xmi(model));
  EXPECT_EQ(cn::to_string(via_dom.net), cn::to_string(via_metamodel.net));
  EXPECT_EQ(via_dom.place_names, via_metamodel.place_names);
  EXPECT_EQ(via_dom.tokens, via_metamodel.tokens);
}

TEST(ExtractStatechart, TomcatClientServer) {
  const cm::Model model = chor::tomcat_model(false);
  auto extraction = chor::extract_state_machines(model);
  cp::Semantics semantics(extraction.model.arena());
  const auto space =
      cp::StateSpace::derive(semantics, extraction.model.system());
  // Client (3 states) x server (6 states), synchronised on request/response:
  // the reachable space is the single request cycle of 7 joint states.
  EXPECT_TRUE(space.deadlock_states().empty());
  EXPECT_EQ(space.state_count(), 7u);

  const auto pi = cc::steady_state(space.generator()).distribution;
  double total = 0.0;
  for (const std::string& name : extraction.state_constants[0]) {
    total += cp::state_probability(space, pi, extraction.model.arena(),
                                   *extraction.model.arena().find_constant(name));
  }
  EXPECT_NEAR(total, 1.0, 1e-10);
}

TEST(ExtractStatechart, CachedServerRespondsFaster) {
  // The paper's optimisation study: direct servlet lookup must raise the
  // response throughput substantially (translate+compile avoided).
  auto solve_response = [](bool cached) {
    const cm::Model model = chor::tomcat_model(cached);
    auto extraction = chor::extract_state_machines(model);
    cp::Semantics semantics(extraction.model.arena());
    const auto space =
        cp::StateSpace::derive(semantics, extraction.model.system());
    const auto pi = cc::steady_state(space.generator()).distribution;
    return cp::action_throughput(
        space, pi, *extraction.model.arena().find_action("response"));
  };
  const double uncached = solve_response(false);
  const double cached = solve_response(true);
  EXPECT_GT(cached, 3.0 * uncached);
}

TEST(ExtractStatechart, ReplicaClientsInterleave) {
  chor::TomcatParams params;
  params.clients = 3;
  const cm::Model model = chor::tomcat_model(true, params);
  auto extraction = chor::extract_state_machines(model);
  cp::Semantics semantics(extraction.model.arena());
  const auto space =
      cp::StateSpace::derive(semantics, extraction.model.system());
  EXPECT_TRUE(space.deadlock_states().empty());
  // With three interleaving clients the space grows well beyond a single
  // client's 8 states (it would stay tiny if replicas were synchronised).
  EXPECT_GT(space.state_count(), 20u);
}

TEST(Rates, ParseAndApply) {
  const auto rates = chor::parse_rates(R"(
    // overrides for the PDA study
    handover_1 = 0.25
    download_file_1 = 8.0   // inline comment
    # another comment style
  )");
  ASSERT_EQ(rates.size(), 2u);
  cm::Model model = chor::pda_handover_model();
  EXPECT_EQ(chor::apply_rates(model, rates), 2u);
  const auto& graph = model.activity_graphs()[0];
  EXPECT_DOUBLE_EQ(
      graph.nodes()[*graph.find_action("handover_1")].tags.get_double("rate", 0),
      0.25);
}

TEST(Rates, ParseErrors) {
  EXPECT_THROW(chor::parse_rates("novalue"), cu::ParseError);
  EXPECT_THROW(chor::parse_rates("x = fast"), cu::ParseError);
  EXPECT_THROW(chor::parse_rates("x = -1"), cu::ParseError);
  EXPECT_THROW(chor::parse_rates("= 2.0"), cu::ParseError);
}

TEST(Rates, NonFiniteRateRejectedAtParseTime) {
  try {
    chor::parse_rates("handover_1 = 0.25\nhandover_2 = inf\n", "pda.rates");
    FAIL() << "expected ParseError";
  } catch (const cu::ParseError& error) {
    EXPECT_EQ(std::string(error.what()).rfind(
                  "pda.rates:2:1: rate must be positive and finite", 0),
              0u)
        << error.what();
  }
}

TEST(Rates, AppliesToStateMachines) {
  cm::Model model = chor::tomcat_model(false);
  const auto rates = chor::parse_rates("translate = 9.5");
  EXPECT_EQ(chor::apply_rates(model, rates), 1u);
  bool found = false;
  for (const auto& t : model.state_machines().back().transitions()) {
    if (t.action == "translate") {
      EXPECT_DOUBLE_EQ(t.rate, 9.5);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Reflect, WritesThroughputTags) {
  cm::Model model = chor::instant_message_model();
  chor::Throughputs throughputs{{"transmit", 0.123}, {"write", 0.456}};
  EXPECT_EQ(chor::reflect_throughputs(model.activity_graphs()[0], throughputs),
            2u);
  const auto& graph = model.activity_graphs()[0];
  EXPECT_DOUBLE_EQ(graph.nodes()[*graph.find_action("transmit")].tags.get_double(
                       "throughput", 0),
                   0.123);
  EXPECT_FALSE(graph.nodes()[*graph.find_action("read")].tags.has("throughput"));
}

TEST(Reflect, WritesProbabilityTags) {
  cm::Model model = chor::tomcat_model(true);
  cm::StateMachine& client = model.state_machines()[0];
  const std::vector<std::string> constants{"GenerateRequest", "WaitForResponse",
                                           "ProcessResponse"};
  chor::Probabilities probabilities{{"WaitForResponse", 0.5}};
  EXPECT_EQ(chor::reflect_probabilities(client, constants, probabilities), 1u);
  EXPECT_DOUBLE_EQ(client.states()[1].tags.get_double("probability", 0), 0.5);
}

TEST(ExtractActivity, MoveRelocatingTwoObjects) {
  // One <<move>> can relocate several objects as long as they come from
  // (and go to) distinct places: the net transition gets one arc per
  // object.
  cm::ActivityGraph graph("convoy");
  const auto initial = graph.add_initial();
  const auto pack = graph.add_action("pack", 2.0);
  const auto ship = graph.add_action("ship", 1.0, /*is_move=*/true);
  const auto unpack = graph.add_action("unpack", 3.0);
  graph.add_control_flow(initial, pack);
  graph.add_control_flow(pack, ship);
  graph.add_control_flow(ship, unpack);
  graph.add_control_flow(unpack, pack);

  const auto truck_a = graph.add_object("truck", "Truck", "depot_a");
  const auto cargo_b = graph.add_object("cargo", "Cargo", "depot_b");
  const auto truck_c = graph.add_object("truck", "Truck", "site_c");
  const auto cargo_d = graph.add_object("cargo", "Cargo", "site_d");
  graph.add_object_flow(pack, truck_a, true);
  graph.add_object_flow(pack, cargo_b, true);
  graph.add_object_flow(ship, truck_a, true);
  graph.add_object_flow(ship, cargo_b, true);
  graph.add_object_flow(ship, truck_c, false);
  graph.add_object_flow(ship, cargo_d, false);
  graph.add_object_flow(unpack, truck_c, true);
  graph.add_object_flow(unpack, cargo_d, true);

  cm::Model model;
  model.add_activity_graph(std::move(graph));
  auto extraction = chor::extract_activity_graph(model.activity_graphs()[0]);
  EXPECT_EQ(extraction.net.place_count(), 4u);
  EXPECT_EQ(extraction.net.token_type_count(), 2u);
  ASSERT_EQ(extraction.net.transition_count(), 1u);
  EXPECT_EQ(extraction.net.transition(0).inputs.size(), 2u);
  EXPECT_EQ(extraction.net.transition(0).outputs.size(), 2u);

  // The net is live: both tokens shuttle... except the return leg is
  // missing, so after one shipment the cycle blocks at 'ship'.  The pack
  // and unpack throughputs still exist in the transient; here we just
  // require structural validity and a derivable marking graph.
  cn::NetSemantics semantics(extraction.net);
  const auto space = cn::NetStateSpace::derive(semantics);
  EXPECT_GE(space.marking_count(), 4u);
}

TEST(ExtractActivity, MoveFromSamePlaceRejected) {
  // Two objects leaving the same place through one <<move>> needs arc
  // multiplicities, which the paper's Definition 1 does not provide.
  cm::ActivityGraph graph("clash");
  const auto initial = graph.add_initial();
  const auto hop = graph.add_action("hop", 1.0, /*is_move=*/true);
  graph.add_control_flow(initial, hop);
  graph.add_control_flow(hop, hop);
  const auto a_here = graph.add_object("a", "T", "shared");
  const auto b_here = graph.add_object("b", "T", "shared");
  const auto a_there = graph.add_object("a", "T", "left");
  const auto b_there = graph.add_object("b", "T", "right");
  graph.add_object_flow(hop, a_here, true);
  graph.add_object_flow(hop, b_here, true);
  graph.add_object_flow(hop, a_there, false);
  graph.add_object_flow(hop, b_there, false);
  cm::Model model;
  model.add_activity_graph(std::move(graph));
  EXPECT_THROW(chor::extract_activity_graph(model.activity_graphs()[0]),
               cu::ModelError);
}

namespace {

/// Two machines that share both "ping" and "log" action types.  Without an
/// interaction diagram they synchronise on both; an interaction diagram
/// declaring only "ping" as a message lets "log" interleave.
cm::Model two_loggers(bool with_interaction) {
  cm::Model model("loggers");
  cm::StateMachine a("a", "A");
  const auto a0 = a.add_state("A0");
  const auto a1 = a.add_state("A1");
  a.add_transition(a0, a1, "ping", 1.0);
  a.add_transition(a1, a0, "log", 2.0);
  model.add_state_machine(std::move(a));
  cm::StateMachine b("b", "B");
  const auto b0 = b.add_state("B0");
  const auto b1 = b.add_state("B1");
  b.add_passive_transition(b0, b1, "ping");
  b.add_transition(b1, b0, "log", 3.0);
  model.add_state_machine(std::move(b));
  if (with_interaction) {
    cm::InteractionDiagram diagram("ab");
    diagram.add_lifeline("A");
    diagram.add_lifeline("B");
    diagram.add_message("A", "B", "ping");
    model.add_interaction(std::move(diagram));
  }
  return model;
}

}  // namespace

TEST(Interactions, DefaultSynchronisesOnSharedAlphabet) {
  cm::Model model = two_loggers(false);
  auto extraction = chor::extract_state_machines(model);
  cp::Semantics semantics(extraction.model.arena());
  const auto space =
      cp::StateSpace::derive(semantics, extraction.model.system());
  // Fully synchronised lockstep: (A0,B0) -ping-> (A1,B1) -log-> (A0,B0).
  EXPECT_EQ(space.state_count(), 2u);
}

TEST(Interactions, MessagesRestrictCooperation) {
  cm::Model model = two_loggers(true);
  auto extraction = chor::extract_state_machines(model);
  cp::Semantics semantics(extraction.model.arena());
  const auto space =
      cp::StateSpace::derive(semantics, extraction.model.system());
  // ping still synchronises, but the two logs interleave: from (A1,B1)
  // either side may log first, visiting (A0,B1) and (A1,B0) too.
  EXPECT_EQ(space.state_count(), 4u);
  // And the logs now race: total log throughput exceeds the slower one.
  const auto pi = cc::steady_state(space.generator()).distribution;
  const auto log_action = *extraction.model.arena().find_action("log");
  EXPECT_GT(cp::action_throughput(space, pi, log_action), 0.0);
}

TEST(Interactions, XmiRoundTrip) {
  cm::Model model = two_loggers(true);
  const cm::Model loaded = cm::from_xmi(cm::to_xmi(model));
  ASSERT_EQ(loaded.interactions().size(), 1u);
  const auto& diagram = loaded.interactions()[0];
  EXPECT_EQ(diagram.name(), "ab");
  ASSERT_EQ(diagram.lifelines().size(), 2u);
  ASSERT_EQ(diagram.messages().size(), 1u);
  EXPECT_EQ(diagram.messages()[0].sender, "A");
  EXPECT_EQ(diagram.messages()[0].receiver, "B");
  EXPECT_EQ(diagram.messages()[0].action, "ping");
  // Behaviour is preserved through the round trip.
  cm::Model reloaded = loaded;
  auto extraction = chor::extract_state_machines(reloaded);
  cp::Semantics semantics(extraction.model.arena());
  const auto space =
      cp::StateSpace::derive(semantics, extraction.model.system());
  EXPECT_EQ(space.state_count(), 4u);
}

TEST(Interactions, ValidationRejectsBadDiagrams) {
  {
    cm::InteractionDiagram diagram("dup");
    diagram.add_lifeline("A");
    diagram.add_lifeline("A");
    EXPECT_THROW(diagram.validate(), cu::ModelError);
  }
  {
    cm::InteractionDiagram diagram("dangling");
    diagram.add_lifeline("A");
    diagram.add_message("A", "B", "ping");
    EXPECT_THROW(diagram.validate(), cu::ModelError);
  }
  {
    cm::InteractionDiagram diagram("unnamed");
    diagram.add_lifeline("A");
    diagram.add_lifeline("B");
    diagram.add_message("A", "B", "");
    EXPECT_THROW(diagram.validate(), cu::ModelError);
  }
}

TEST(Interactions, UncoveredPairsKeepDefault) {
  // A third context not covered by the diagram still synchronises on its
  // shared alphabet with the others.
  cm::Model model = two_loggers(true);
  cm::StateMachine c("c", "C");
  const auto c0 = c.add_state("C0");
  const auto c1 = c.add_state("C1");
  c.add_passive_transition(c0, c1, "log");
  c.add_transition(c1, c0, "tick", 1.0);
  model.add_state_machine(std::move(c));
  auto extraction = chor::extract_state_machines(model);
  cp::Semantics semantics(extraction.model.arena());
  const auto space =
      cp::StateSpace::derive(semantics, extraction.model.system());
  EXPECT_TRUE(space.deadlock_states().empty());
  // C's passive 'log' must be driven by A's or B's active log.
  const auto pi = cc::steady_state(space.generator()).distribution;
  const auto tick = *extraction.model.arena().find_action("tick");
  EXPECT_GT(cp::action_throughput(space, pi, tick), 0.0);
}

TEST(ExtractActivity, MergeNodesAreSupported) {
  // Several control flows converging on one action ("merge" in UML terms)
  // need no dedicated node kind: the action simply has two predecessors.
  cm::ActivityGraph graph("merge");
  const auto initial = graph.add_initial();
  const auto decision = graph.add_decision("pick");
  const auto fast = graph.add_action("fast_path", 4.0);
  const auto slow = graph.add_action("slow_path", 1.0);
  const auto join = graph.add_action("join_work", 2.0);  // the merge target
  graph.add_control_flow(initial, decision);
  graph.add_control_flow(decision, fast);
  graph.add_control_flow(decision, slow);
  graph.add_control_flow(fast, join);
  graph.add_control_flow(slow, join);
  graph.add_control_flow(join, decision);
  const auto obj = graph.add_object("o", "T", "");
  for (auto action : {fast, slow, join}) graph.add_object_flow(action, obj, true);
  cm::Model model;
  model.add_activity_graph(std::move(graph));

  auto extraction = chor::extract_activity_graph(model.activity_graphs()[0]);
  cn::NetSemantics semantics(extraction.net);
  const auto space = cn::NetStateSpace::derive(semantics);
  EXPECT_TRUE(space.deadlock_markings().empty());
  const auto pi = cc::steady_state(space.generator()).distribution;
  const auto& arena = extraction.net.arena();
  const double fast_tp =
      cn::action_throughput(space, pi, *arena.find_action("fast_path"));
  const double slow_tp =
      cn::action_throughput(space, pi, *arena.find_action("slow_path"));
  const double join_tp =
      cn::action_throughput(space, pi, *arena.find_action("join_work"));
  // Everything funnels through the merge target.
  EXPECT_NEAR(fast_tp + slow_tp, join_tp, 1e-10);
  // The faster branch wins the race more often.
  EXPECT_GT(fast_tp, slow_tp);
}

TEST(ExtractActivity, ObjectlessActivityInheritsMoveDestination) {
  // "the last location to which a move was made": an object-less activity
  // placed after the <<move>> belongs to the destination's static
  // component, not the origin's.
  cm::ActivityGraph graph("beacon");
  const auto initial = graph.add_initial();
  const auto send = graph.add_action("send", 1.0, /*is_move=*/true);
  const auto beep = graph.add_action("beep", 5.0);  // object-less
  const auto back = graph.add_action("back", 1.0, /*is_move=*/true);
  graph.add_control_flow(initial, send);
  graph.add_control_flow(send, beep);
  graph.add_control_flow(beep, back);
  graph.add_control_flow(back, send);
  const auto at_src = graph.add_object("o", "T", "src");
  const auto at_dst = graph.add_object("o", "T", "dst");
  graph.add_object_flow(send, at_src, true);
  graph.add_object_flow(send, at_dst, false);
  graph.add_object_flow(back, at_dst, true);
  graph.add_object_flow(back, at_src, false);
  cm::Model model;
  model.add_activity_graph(std::move(graph));

  auto extraction = chor::extract_activity_graph(model.activity_graphs()[0]);
  ASSERT_EQ(extraction.static_locations, std::vector<std::string>{"dst"});
  // The static component sits in the 'dst' place.
  const auto dst = *extraction.net.find_place("dst");
  bool has_static = false;
  for (const auto& slot : extraction.net.place(dst).slots) {
    has_static |= slot.kind == cn::Slot::Kind::kStatic;
  }
  EXPECT_TRUE(has_static);
  const auto src = *extraction.net.find_place("src");
  for (const auto& slot : extraction.net.place(src).slots) {
    EXPECT_NE(slot.kind, cn::Slot::Kind::kStatic);
  }
}

TEST(Interactions, SurviveTheProjectPipeline) {
  // A project with state machines AND an interaction diagram analysed
  // through the full file pipeline: the restriction must take effect.
  cm::Model restricted = two_loggers(true);
  cm::Model unrestricted = two_loggers(false);
  auto states_of = [](cm::Model& model) {
    auto extraction = chor::extract_state_machines(
        cm::from_xmi(cm::to_xmi(model)));  // through XMI, as the pipeline does
    cp::Semantics semantics(extraction.model.arena());
    return cp::StateSpace::derive(semantics, extraction.model.system())
        .state_count();
  };
  EXPECT_EQ(states_of(unrestricted), 2u);
  EXPECT_EQ(states_of(restricted), 4u);
}
