// Unit and integration tests for PEPA nets: structure, firing semantics
// (paper Definitions 2-6), marking-graph derivation, the textual parser,
// and net-level measures.  The running example is the paper's instant-
// message net (Section 2.2).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "choreographer/extract_activity.hpp"
#include "choreographer/paper_models.hpp"
#include "ctmc/steady_state.hpp"
#include "pepa/parser.hpp"
#include "pepanet/net.hpp"
#include "pepanet/net_parser.hpp"
#include "pepanet/net_printer.hpp"
#include "pepanet/netsemantics.hpp"
#include "pepanet/netstatespace.hpp"
#include "util/error.hpp"

namespace cp = choreo::pepa;
namespace cn = choreo::pepanet;
namespace cc = choreo::ctmc;
namespace cu = choreo::util;

namespace {

/// The paper's instant-message example: a message written at place p1 is
/// transmitted to place p2 where a FileReader reads it.
const char* kInstantMessageNet = R"(
  r_t = 0.7;
  InstantMessage = (write, 1.2).Written;
  Written        = (transmit, r_t).File;
  File           = (openread, 2.0).InStream;
  InStream       = (read, 1.8).InStream + (close, 3.0).Done;
  Done           = (reset, 5.0).InstantMessage;
  FileReader     = (openread, infty).(read, infty).(close, infty).FileReader;

  @token InstantMessage;
  @place p1 { cell InstantMessage = InstantMessage; }
  @place p2 { cell InstantMessage; static FileReader; }
  @transition transmit (rate infty) from p1 to p2;
  @transition reset (rate infty) from p2 to p1;
)";

cn::ParsedNet parse_instant_message() { return cn::parse_net(kInstantMessageNet); }

std::vector<double> solve(const cn::NetStateSpace& space) {
  return cc::steady_state(space.generator()).distribution;
}

}  // namespace

TEST(Net, BuilderAndValidation) {
  auto parsed = parse_instant_message();
  cn::PepaNet& net = parsed.net;
  EXPECT_EQ(net.token_type_count(), 1u);
  EXPECT_EQ(net.place_count(), 2u);
  EXPECT_EQ(net.transition_count(), 2u);
  EXPECT_TRUE(net.find_place("p1").has_value());
  EXPECT_TRUE(net.find_token_type("InstantMessage").has_value());
  EXPECT_FALSE(net.find_place("nope").has_value());
  const auto transmit = net.arena().find_action("transmit");
  ASSERT_TRUE(transmit.has_value());
  EXPECT_TRUE(net.is_firing_type(*transmit));
  EXPECT_FALSE(net.is_firing_type(*net.arena().find_action("read")));
  net.validate();
}

TEST(Net, SharedAlphabetCooperation) {
  auto parsed = parse_instant_message();
  const cn::Place& p2 = parsed.net.place(*parsed.net.find_place("p2"));
  ASSERT_EQ(p2.coop_sets.size(), 1u);
  // Cell type alphabet (minus firing types) intersected with FileReader's:
  // openread, read, close.
  std::vector<std::string> names;
  for (auto action : p2.coop_sets[0]) {
    names.push_back(parsed.net.arena().action_name(action));
  }
  EXPECT_EQ(names, (std::vector<std::string>{"openread", "read", "close"}));
}

TEST(Net, InitialMarking) {
  auto parsed = parse_instant_message();
  const auto marking = parsed.net.initial_marking();
  ASSERT_EQ(marking.size(), 3u);  // p1 cell, p2 cell, p2 static
  EXPECT_NE(marking[0], cn::kVacant);
  EXPECT_EQ(marking[1], cn::kVacant);
  EXPECT_NE(marking[2], cn::kVacant);
}

TEST(Net, UnbalancedTransitionRejected) {
  cn::PepaNet net;
  const auto a = net.arena().action("go");
  const auto body = net.arena().prefix(a, cp::Rate::active(1.0), net.arena().stop());
  const auto c = net.arena().declare("T");
  net.arena().define(c, body);
  const auto type = net.add_token_type("T", net.arena().constant(c));
  const auto p1 = net.add_place("p1");
  net.add_cell(p1, type, net.arena().constant(c));
  const auto p2 = net.add_place("p2");
  net.add_cell(p2, type);
  const auto p3 = net.add_place("p3");
  net.add_cell(p3, type);
  net.add_transition("go", cp::Rate::active(1.0), {p1}, {p2, p3});
  EXPECT_THROW(net.validate(), cu::ModelError);
}

TEST(Net, PlaceWithoutCellRejected) {
  cn::PepaNet net;
  const auto c = net.arena().declare("S");
  net.arena().define(c, net.arena().stop());
  const auto p = net.add_place("p");
  net.add_static(p, net.arena().constant(c));
  EXPECT_THROW(net.validate(), cu::ModelError);
}

TEST(NetSemantics, LocalMovesOnlyInsideOnePlace) {
  auto parsed = parse_instant_message();
  cn::NetSemantics semantics(parsed.net);
  const auto marking = parsed.net.initial_marking();
  const auto moves = semantics.moves(marking);
  // Initially: the message can 'write' locally at p1; transmit is not yet
  // enabled (the token is InstantMessage, whose first step is write).
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].kind, cn::NetMove::Kind::kLocal);
  EXPECT_EQ(parsed.net.arena().action_name(moves[0].action), "write");
  EXPECT_DOUBLE_EQ(moves[0].rate.value(), 1.2);
}

TEST(NetSemantics, FiringMovesTokenAndEvolvesIt) {
  auto parsed = parse_instant_message();
  cn::NetSemantics semantics(parsed.net);
  auto marking = parsed.net.initial_marking();
  // Step 1: local write.
  marking = semantics.moves(marking)[0].target;
  // Step 2: the transmit firing must now be the only move.
  const auto moves = semantics.moves(marking);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].kind, cn::NetMove::Kind::kFiring);
  EXPECT_EQ(parsed.net.arena().action_name(moves[0].action), "transmit");
  // Label rate is passive, so the token's rate r_t = 0.7 drives the firing.
  EXPECT_DOUBLE_EQ(moves[0].rate.value(), 0.7);
  const auto& target = moves[0].target;
  EXPECT_EQ(target[0], cn::kVacant);  // source cell vacated
  EXPECT_NE(target[1], cn::kVacant);  // token arrived at p2, evolved to File
  const auto file = parsed.net.arena().constant("File");
  EXPECT_EQ(target[1], file);
}

TEST(NetSemantics, NoConcessionWithoutVacantCell) {
  // Two tokens, one vacant cell at the destination: after one transmits,
  // the second has no output until the first token's cell frees up (it
  // never does in this net), so only local moves remain.
  const char* source = R"(
    Msg  = (transmit, 1.0).Idle;
    Idle = (spin, 1.0).Idle;
    @token Msg;
    @place a { cell Msg = Msg; cell Msg = Msg; }
    @place b { cell Msg; }
    @transition transmit (rate infty) from a to b;
  )";
  auto parsed = cn::parse_net(source);
  cn::NetSemantics semantics(parsed.net);
  auto marking = parsed.net.initial_marking();
  auto moves = semantics.moves(marking);
  // Both tokens can transmit (two enablings, one output cell each).
  std::size_t firings = 0;
  for (const auto& move : moves) {
    firings += move.kind == cn::NetMove::Kind::kFiring;
  }
  EXPECT_EQ(firings, 2u);
  // Take one; afterwards the remaining token has concession for nothing.
  const auto after = moves[0].kind == cn::NetMove::Kind::kFiring
                         ? moves[0].target
                         : moves[1].target;
  EXPECT_FALSE(semantics.has_concession(after, 0));
}

TEST(NetSemantics, RacingTokensShareBoundedCapacity) {
  // The transition label is the bottleneck (rate 1); two eligible tokens
  // race for it, so the total firing rate must be 1, split equally.
  const char* source = R"(
    Msg  = (hop, 4.0).Idle;
    Idle = (spin, 1.0).Idle;
    @token Msg;
    @place a { cell Msg = Msg; cell Msg = Msg; }
    @place b { cell Msg; cell Msg; }
    @transition hop (rate 1.0) from a to b;
  )";
  auto parsed = cn::parse_net(source);
  cn::NetSemantics semantics(parsed.net);
  const auto moves = semantics.moves(parsed.net.initial_marking());
  double firing_total = 0.0;
  std::size_t firing_count = 0;
  for (const auto& move : moves) {
    if (move.kind == cn::NetMove::Kind::kFiring) {
      firing_total += move.rate.value();
      ++firing_count;
    }
  }
  // 2 enablings x 2 vacant-cell variants each.
  EXPECT_EQ(firing_count, 4u);
  EXPECT_NEAR(firing_total, 1.0, 1e-12);
}

TEST(NetSemantics, PriorityBlocksLowerFirings) {
  const char* source = R"(
    Msg = (fast, 1.0).Idle + (slow, 1.0).Idle;
    Idle = (spin, 1.0).Idle;
    @token Msg;
    @place a { cell Msg = Msg; }
    @place b { cell Msg; }
    @place c { cell Msg; }
    @transition fast (rate 1.0, priority 2) from a to b;
    @transition slow (rate 1.0, priority 1) from a to c;
  )";
  auto parsed = cn::parse_net(source);
  cn::NetSemantics semantics(parsed.net);
  const auto moves = semantics.moves(parsed.net.initial_marking());
  for (const auto& move : moves) {
    if (move.kind == cn::NetMove::Kind::kFiring) {
      EXPECT_EQ(parsed.net.arena().action_name(move.action), "fast");
    }
  }
  // Both transitions have concession; priority picks 'fast'.
  EXPECT_TRUE(semantics.has_concession(parsed.net.initial_marking(), 0));
  EXPECT_TRUE(semantics.has_concession(parsed.net.initial_marking(), 1));
}

TEST(NetSemantics, LowerPriorityFiresWhenHigherHasNoConcession) {
  const char* source = R"(
    Msg = (fast, 1.0).Idle + (slow, 1.0).Idle;
    Idle = (spin, 1.0).Idle;
    @token Msg;
    @place a { cell Msg = Msg; }
    @place b { cell Msg = Idle; }   // full: no vacant cell for 'fast'
    @place c { cell Msg; }
    @transition fast (rate 1.0, priority 2) from a to b;
    @transition slow (rate 1.0, priority 1) from a to c;
  )";
  auto parsed = cn::parse_net(source);
  cn::NetSemantics semantics(parsed.net);
  bool saw_slow_firing = false;
  for (const auto& move : semantics.moves(parsed.net.initial_marking())) {
    if (move.kind == cn::NetMove::Kind::kFiring) {
      EXPECT_EQ(parsed.net.arena().action_name(move.action), "slow");
      saw_slow_firing = true;
    }
  }
  EXPECT_TRUE(saw_slow_firing);
}

TEST(NetStateSpace, InstantMessageLifecycle) {
  auto parsed = parse_instant_message();
  cn::NetSemantics semantics(parsed.net);
  const auto space = cn::NetStateSpace::derive(semantics);
  // Lifecycle: write at p1, transmit firing to p2, openread/read/close in
  // cooperation with the static FileReader (which steps through its own
  // three states alongside the token), then the reset firing returns the
  // message to p1.  The cycle is a simple loop of six markings.
  EXPECT_EQ(space.marking_count(), 6u);
  EXPECT_TRUE(space.deadlock_markings().empty());
  for (const auto& t : space.transitions()) {
    EXPECT_GT(t.rate, 0.0);
  }
}

TEST(NetStateSpace, RoundTripNetReachesSteadyState) {
  // A message shuttles between two places forever; CTMC throughputs of the
  // two firings must agree.
  const char* source = R"(
    Out  = (send, 2.0).Back;
    Back = (ret, 3.0).Out;
    @token Out;
    @place a { cell Out = Out; }
    @place b { cell Out; }
    @transition send (rate infty) from a to b;
    @transition ret (rate infty) from b to a;
  )";
  auto parsed = cn::parse_net(source);
  cn::NetSemantics semantics(parsed.net);
  const auto space = cn::NetStateSpace::derive(semantics);
  EXPECT_EQ(space.marking_count(), 2u);
  const auto pi = solve(space);
  const auto send = *parsed.net.arena().find_action("send");
  const auto ret = *parsed.net.arena().find_action("ret");
  const double send_tp = cn::action_throughput(space, pi, send);
  const double ret_tp = cn::action_throughput(space, pi, ret);
  EXPECT_NEAR(send_tp, ret_tp, 1e-10);
  EXPECT_NEAR(send_tp, 1.0 / (1.0 / 2.0 + 1.0 / 3.0), 1e-10);

  // Occupancy: P[token at a] = (1/2) / (1/2 + 1/3).
  const auto a = *parsed.net.find_place("a");
  const auto b = *parsed.net.find_place("b");
  EXPECT_NEAR(cn::occupancy_probability(parsed.net, space, pi, a),
              (1.0 / 2.0) / (1.0 / 2.0 + 1.0 / 3.0), 1e-10);
  EXPECT_NEAR(cn::mean_tokens_at(parsed.net, space, pi, a) +
                  cn::mean_tokens_at(parsed.net, space, pi, b),
              1.0, 1e-10);
}

TEST(NetStateSpace, StaticComponentsConstrainTokens) {
  auto parsed = parse_instant_message();
  cn::NetSemantics semantics(parsed.net);
  const auto space = cn::NetStateSpace::derive(semantics);
  const auto pi = solve(space);
  // The reader's passive openread synchronises with the arriving File
  // token; read throughput is positive only because the static FileReader
  // cooperates at p2.
  const auto read = *parsed.net.arena().find_action("read");
  EXPECT_GT(cn::action_throughput(space, pi, read), 0.0);
}

TEST(NetStateSpace, DerivativeProbabilitySumsToTokenPresence) {
  auto parsed = parse_instant_message();
  cn::NetSemantics semantics(parsed.net);
  const auto space = cn::NetStateSpace::derive(semantics);
  const auto pi = solve(space);
  // The token is always somewhere in exactly one derivative.
  double total = 0.0;
  for (const char* name :
       {"InstantMessage", "Written", "File", "InStream", "Done"}) {
    total += cn::derivative_probability(
        parsed.net, space, pi, parsed.net.arena().constant(name));
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(NetParser, Printing) {
  auto parsed = parse_instant_message();
  const std::string text = cn::to_string(parsed.net);
  EXPECT_NE(text.find("@token InstantMessage"), std::string::npos);
  EXPECT_NE(text.find("@place p1"), std::string::npos);
  EXPECT_NE(text.find("@transition transmit"), std::string::npos);
  const std::string marking =
      cn::marking_to_string(parsed.net, parsed.net.initial_marking());
  EXPECT_NE(marking.find("p1[InstantMessage]"), std::string::npos);
  EXPECT_NE(marking.find("_"), std::string::npos);
}

TEST(NetParser, Errors) {
  EXPECT_THROW(cn::parse_net("P = (a, 1.0).P;"), cu::ParseError);  // no net part
  EXPECT_THROW(cn::parse_net("P = (a,1.0).P; @token Unknown;"), cu::ParseError);
  EXPECT_THROW(cn::parse_net(R"(
    P = (a, 1.0).P;
    @token P;
    @place x { cell Nope; }
  )"),
               cu::ParseError);
  EXPECT_THROW(cn::parse_net(R"(
    P = (a, 1.0).P;
    @token P;
    @place x { cell P = P; }
    @transition a (rate 1.0) from x to nowhere;
  )"),
               cu::ParseError);
}

TEST(NetParser, ParameterRatesAndPriorities) {
  const char* source = R"(
    speed = 4.5;
    M = (go, speed).M;
    @token M;
    @place a { cell M = M; }
    @place b { cell M; }
    @transition go (rate speed, priority 3) from a to b;
  )";
  auto parsed = cn::parse_net(source);
  EXPECT_DOUBLE_EQ(parsed.net.transition(0).rate.value(), 4.5);
  EXPECT_EQ(parsed.net.transition(0).priority, 3u);
  ASSERT_EQ(parsed.parameters.size(), 1u);
  EXPECT_EQ(parsed.parameters[0].first, "speed");
}

TEST(NetSemantics, SynchronisedMoveOfTwoTokenTypes) {
  // A two-input, two-output firing: the transfer relocates one Person and
  // one Bag together; the bijection must respect the token types (the
  // Person lands in the Person cell, the Bag in the Bag cell).
  const char* source = R"(
    Person = (board, 1.0).Seated;
    Seated = (rest, 1.0).Seated;
    Bag    = (board, infty).Stowed;
    Stowed = (sit, 1.0).Stowed;
    @token Person;
    @token Bag;
    @place gate_p  { cell Person = Person; }
    @place gate_b  { cell Bag = Bag; }
    @place cabin_p { cell Person; }
    @place cabin_b { cell Bag; }
    @transition board (rate 2.0) from gate_p, gate_b to cabin_p, cabin_b;
  )";
  auto parsed = cn::parse_net(source);
  cn::NetSemantics semantics(parsed.net);
  const auto moves = semantics.moves(parsed.net.initial_marking());
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].kind, cn::NetMove::Kind::kFiring);
  // Label 2.0 against active Person 1.0 and passive Bag: min is 1.0.
  EXPECT_DOUBLE_EQ(moves[0].rate.value(), 1.0);
  const auto& target = moves[0].target;
  const auto cabin_p = *parsed.net.find_place("cabin_p");
  const auto cabin_b = *parsed.net.find_place("cabin_b");
  EXPECT_EQ(target[parsed.net.slot_offset(cabin_p, 0)],
            parsed.net.arena().constant("Seated"));
  EXPECT_EQ(target[parsed.net.slot_offset(cabin_b, 0)],
            parsed.net.arena().constant("Stowed"));
  EXPECT_EQ(target[0], cn::kVacant);
  EXPECT_EQ(target[1], cn::kVacant);
}

TEST(NetSemantics, SynchronisedMoveBlocksWhenOnePartnerMissing) {
  const char* source = R"(
    Person = (board, 1.0).Seated;
    Seated = (rest, 1.0).Seated;
    Bag    = (board, infty).Stowed;
    Stowed = (sit, 1.0).Stowed;
    @token Person;
    @token Bag;
    @place gate_p  { cell Person = Person; }
    @place gate_b  { cell Bag; }   // no bag waiting
    @place cabin_p { cell Person; }
    @place cabin_b { cell Bag; }
    @transition board (rate 2.0) from gate_p, gate_b to cabin_p, cabin_b;
  )";
  auto parsed = cn::parse_net(source);
  cn::NetSemantics semantics(parsed.net);
  EXPECT_FALSE(semantics.has_concession(parsed.net.initial_marking(), 0));
  EXPECT_TRUE(semantics.moves(parsed.net.initial_marking()).empty());
}

TEST(NetSemantics, TypeMismatchedVacancyGivesNoOutput) {
  // The only vacant cell at the destination is of the wrong type: no
  // type-preserving bijection exists (Definition 4), so no concession.
  const char* source = R"(
    Person = (walk, 1.0).Person;
    Bag    = (walk, 1.0).Bag;
    @token Person;
    @token Bag;
    @place here  { cell Person = Person; }
    @place there { cell Bag; }
    @transition walk (rate 1.0) from here to there;
  )";
  auto parsed = cn::parse_net(source);
  cn::NetSemantics semantics(parsed.net);
  EXPECT_FALSE(semantics.has_concession(parsed.net.initial_marking(), 0));
}

TEST(NetStateSpace, TwoTokenRendezvousCycle) {
  // Person and Bag shuttle back and forth together; the marking graph is a
  // joint cycle and both firings share one throughput.
  const char* source = R"(
    Person = (board, 2.0).Seated;
    Seated = (alight, 1.5).Person;
    Bag    = (board, infty).Stowed;
    Stowed = (alight, infty).Bag;
    @token Person;
    @token Bag;
    @place gate_p  { cell Person = Person; }
    @place gate_b  { cell Bag = Bag; }
    @place cabin_p { cell Person; }
    @place cabin_b { cell Bag; }
    @transition board  (rate infty) from gate_p, gate_b to cabin_p, cabin_b;
    @transition alight (rate infty) from cabin_p, cabin_b to gate_p, gate_b;
  )";
  auto parsed = cn::parse_net(source);
  cn::NetSemantics semantics(parsed.net);
  const auto space = cn::NetStateSpace::derive(semantics);
  EXPECT_EQ(space.marking_count(), 2u);
  EXPECT_TRUE(space.deadlock_markings().empty());
  const auto pi = solve(space);
  const double board_tp = cn::action_throughput(
      space, pi, *parsed.net.arena().find_action("board"));
  const double alight_tp = cn::action_throughput(
      space, pi, *parsed.net.arena().find_action("alight"));
  EXPECT_NEAR(board_tp, alight_tp, 1e-12);
  EXPECT_NEAR(board_tp, 1.0 / (1.0 / 2.0 + 1.0 / 1.5), 1e-12);
}

TEST(NetParser, ExplicitSyncSetsOverrideDefault) {
  // By default the token and the monitor would synchronise on 'work'
  // (shared alphabet); an explicit empty sync set decouples them.
  const char* coupled = R"(
    Job = (work, 2.0).Job;
    Monitor = (work, 3.0).Monitor;
    @token Job;
    @place lab { cell Job = Job; static Monitor; }
    @place aux { cell Job; }
    @transition shift (rate 1.0) from lab to aux;
    @transition back (rate 1.0) from aux to lab;
  )";
  const char* decoupled = R"(
    Job = (work, 2.0).Job;
    Monitor = (work, 3.0).Monitor;
    @token Job;
    @place lab { cell Job = Job; static Monitor; sync <>; }
    @place aux { cell Job; }
    @transition shift (rate 1.0) from lab to aux;
    @transition back (rate 1.0) from aux to lab;
  )";
  // 'shift'/'back' need token activities: Job has none -> the transitions
  // never fire; only local 'work' moves exist, which is what we compare.
  auto solve_work = [](const char* source) {
    auto parsed = cn::parse_net(source);
    cn::NetSemantics semantics(parsed.net);
    const auto moves = semantics.moves(parsed.net.initial_marking());
    double total = 0.0;
    for (const auto& move : moves) total += move.rate.value();
    return total;
  };
  // Coupled: one synchronised 'work' at min(2,3) = 2.  Decoupled: the token
  // works at 2 and the monitor at 3 independently = 5.
  EXPECT_DOUBLE_EQ(solve_work(coupled), 2.0);
  EXPECT_DOUBLE_EQ(solve_work(decoupled), 5.0);
}

TEST(NetParser, WrongSyncArityRejected) {
  const char* source = R"(
    Job = (work, 2.0).Job;
    @token Job;
    @place lab { cell Job = Job; sync <>; sync <>; }
    @transition shift (rate 1.0) from lab to lab;
  )";
  EXPECT_THROW(cn::parse_net(source), cu::Error);
}

TEST(NetPrinter, SourceRoundTripPreservesSemantics) {
  // extract -> emit -> parse must yield a net with the same marking graph
  // size and identical per-action throughputs.
  for (const char* which : {"instant_message", "pda"}) {
    cn::ParsedNet original;
    if (std::string(which) == "instant_message") {
      original = parse_instant_message();
    } else {
      auto model = choreo::chor::pda_handover_model();
      auto extraction =
          choreo::chor::extract_activity_graph(model.activity_graphs()[0]);
      original.net = std::move(extraction.net);
    }
    const std::string source = cn::to_source(original.net);
    auto reparsed = cn::parse_net(source);

    cn::NetSemantics semantics_a(original.net);
    cn::NetSemantics semantics_b(reparsed.net);
    const auto space_a = cn::NetStateSpace::derive(semantics_a);
    const auto space_b = cn::NetStateSpace::derive(semantics_b);
    EXPECT_EQ(space_a.marking_count(), space_b.marking_count()) << which;

    const auto pi_a = solve(space_a);
    const auto pi_b = solve(space_b);
    for (cp::ActionId action = 1; action < original.net.arena().action_count();
         ++action) {
      const std::string& name = original.net.arena().action_name(action);
      const auto action_b = reparsed.net.arena().find_action(name);
      ASSERT_TRUE(action_b.has_value()) << name;
      EXPECT_NEAR(cn::action_throughput(space_a, pi_a, action),
                  cn::action_throughput(space_b, pi_b, *action_b), 1e-10)
          << which << ":" << name;
    }
  }
}

TEST(NetSemantics, CompoundTokenMovesAsAUnit) {
  // PEPA-net tokens are arbitrary PEPA terms: here a token that is itself a
  // cooperation of two subcomponents.  It evolves internally inside a place
  // and fires as one unit.
  cn::PepaNet net;
  auto& arena = net.arena();
  const auto work = arena.action("work");
  const auto hop = arena.action("hop");
  const auto left = arena.declare("L");
  const auto right = arena.declare("R");
  arena.define(left, arena.prefix(work, cp::Rate::active(2.0),
                                  arena.prefix(hop, cp::Rate::active(1.0),
                                               arena.constant(left))));
  arena.define(right, arena.prefix(work, cp::Rate::passive(1.0),
                                   arena.constant(right)));
  const auto pair =
      arena.cooperation(arena.constant(left), {work}, arena.constant(right));
  const auto type = net.add_token_type("Pair", pair);
  const auto a = net.add_place("a");
  net.add_cell(a, type, pair);
  const auto b = net.add_place("b");
  net.add_cell(b, type);
  net.add_transition("hop", cp::Rate::passive(1.0), {a}, {b});
  net.add_transition("hop", cp::Rate::passive(1.0), {b}, {a});
  net.use_shared_alphabet_cooperation(a);
  net.use_shared_alphabet_cooperation(b);

  cn::NetSemantics semantics(net);
  const auto space = cn::NetStateSpace::derive(semantics);
  EXPECT_TRUE(space.deadlock_markings().empty());
  // The compound evolves: (work sync) at 2.0, then the left half's hop
  // fires the whole pair to the other place; 2 internal states x 2 places.
  EXPECT_EQ(space.marking_count(), 4u);
  const auto pi = solve(space);
  EXPECT_NEAR(cn::action_throughput(space, pi, work),
              cn::action_throughput(space, pi, hop), 1e-10);
}

TEST(NetSemantics, LocalAndFiringMovesRace) {
  // A token that can either keep working locally or hop away: both moves
  // coexist in the marking graph and race in the CTMC.
  const char* cyclic = R"(
    Busy  = (work, 3.0).Busy + (hop, 1.0).Away;
    Away  = (hop_back, 2.0).Busy;
    @token Busy;
    @place a { cell Busy = Busy; }
    @place b { cell Busy; }
    @transition hop (rate infty) from a to b;
    @transition hop_back (rate infty) from b to a;
  )";
  auto parsed = cn::parse_net(cyclic);
  cn::NetSemantics semantics(parsed.net);
  const auto moves = semantics.moves(parsed.net.initial_marking());
  ASSERT_EQ(moves.size(), 2u);
  bool saw_local = false, saw_firing = false;
  for (const auto& move : moves) {
    saw_local |= move.kind == cn::NetMove::Kind::kLocal;
    saw_firing |= move.kind == cn::NetMove::Kind::kFiring;
  }
  EXPECT_TRUE(saw_local);
  EXPECT_TRUE(saw_firing);

  const auto space = cn::NetStateSpace::derive(semantics);
  const auto pi = solve(space);
  const auto work = *parsed.net.arena().find_action("work");
  const auto hop = *parsed.net.arena().find_action("hop");
  // Race ratio at place a: work at 3.0 vs hop at 1.0.
  EXPECT_NEAR(cn::action_throughput(space, pi, work) /
                  cn::action_throughput(space, pi, hop),
              3.0, 1e-9);
}

TEST(NetSemantics, PriorityDoesNotBlockLocalMoves) {
  const char* source = R"(
    Busy  = (work, 3.0).Busy + (hop, 1.0).Away;
    Away  = (hop_back, 2.0).Busy;
    @token Busy;
    @place a { cell Busy = Busy; }
    @place b { cell Busy; }
    @transition hop (rate infty, priority 7) from a to b;
    @transition hop_back (rate infty) from b to a;
  )";
  auto parsed = cn::parse_net(source);
  cn::NetSemantics semantics(parsed.net);
  const auto moves = semantics.moves(parsed.net.initial_marking());
  bool saw_local = false;
  for (const auto& move : moves) {
    saw_local |= move.kind == cn::NetMove::Kind::kLocal;
  }
  EXPECT_TRUE(saw_local);  // priorities gate firings only (Definition 5)
}

TEST(NetStateSpace, DeriveFromCustomMarking) {
  auto parsed = parse_instant_message();
  cn::NetSemantics semantics(parsed.net);
  // Start with the message already transmitted: vacate p1, put File at p2.
  cn::Marking marking = parsed.net.initial_marking();
  marking[0] = cn::kVacant;
  marking[1] = parsed.net.arena().constant("File");
  const auto space = cn::NetStateSpace::derive_from(semantics, marking);
  // Same recurrent cycle as from M0, minus nothing: all 6 markings reachable.
  EXPECT_EQ(space.marking_count(), 6u);
  EXPECT_EQ(space.marking(0), marking);
}

TEST(NetStateSpace, StaticStateSurvivesTokenDeparture) {
  // The static reader advances while the token is resident; when the token
  // fires away mid-protocol the reader must keep its state at the place.
  const char* source = R"(
    Msg   = (ping, 1.0).Gone;
    Gone  = (leave, 1.0).Back;
    Back  = (ret, 1.0).Msg;
    Clock = (ping, infty).Clock2;
    Clock2 = (tick, 4.0).Clock;
    @token Msg;
    @place a { cell Msg = Msg; static Clock; }
    @place b { cell Msg; }
    @transition leave (rate infty) from a to b;
    @transition ret (rate infty) from b to a;
  )";
  auto parsed = cn::parse_net(source);
  cn::NetSemantics semantics(parsed.net);
  auto marking = parsed.net.initial_marking();
  // ping synchronises token and clock; the clock advances to Clock2.
  marking = semantics.moves(marking)[0].target;
  EXPECT_EQ(marking[1], parsed.net.arena().constant("Clock2"));
  // The token leaves; the clock must still be in Clock2 at place a.
  const auto moves = semantics.moves(marking);
  const cn::NetMove* leave = nullptr;
  for (const auto& move : moves) {
    if (move.kind == cn::NetMove::Kind::kFiring) leave = &move;
  }
  ASSERT_NE(leave, nullptr);
  EXPECT_EQ(leave->target[0], cn::kVacant);
  EXPECT_EQ(leave->target[1], parsed.net.arena().constant("Clock2"));
}

TEST(Net, CoopSetWithFiringTypeRejected) {
  cn::PepaNet net;
  const auto hop = net.arena().action("hop");
  const auto c = net.arena().declare("T");
  net.arena().define(c, net.arena().prefix(hop, cp::Rate::active(1.0),
                                           net.arena().constant(c)));
  const auto type = net.add_token_type("T", net.arena().constant(c));
  const auto p = net.add_place("p");
  net.add_cell(p, type, net.arena().constant(c));
  net.add_cell(p, type);
  const auto q = net.add_place("q");
  net.add_cell(q, type);
  net.add_transition("hop", cp::Rate::active(1.0), {p}, {q});
  net.set_coop_sets(p, {{hop}});  // firing type in a local cooperation set
  EXPECT_THROW(net.validate(), cu::ModelError);
}

// --- the shared PEPA reader ------------------------------------------------
//
// A .pepanet is lexed once with the PEPA lexer, and its transition labels
// are PEPA rate expressions, so comments, numbers, rates and error
// positions follow the .pepa rules in both parts of the file.

namespace {

/// Parses `source` and returns the ParseError it must raise.
cu::ParseError net_parse_error(const std::string& source) {
  try {
    cn::parse_net(source, "probe.pepanet");
  } catch (const cu::ParseError& error) {
    return error;
  }
  ADD_FAILURE() << "expected a ParseError for:\n" << source;
  return cu::ParseError("", 0, 0, "");
}

/// A two-place net whose last line is `transition`.
std::string one_transition_net(const std::string& transition) {
  return "M = (go, 1.0).M;\n@token M;\n@place A { cell M = M; }\n"
         "@place B { cell M; }\n" +
         transition + "\n";
}

}  // namespace

TEST(NetParser, TransitionRatesUseThePepaRateGrammar) {
  const char* source = R"(
    r = 0.5;
    M = (go, infty).(back, infty).M;
    @token M;
    @place A { cell M = M; }
    @place B { cell M; }
    @transition go (rate 2*r + 0.25) from A to B;
    @transition back (rate (r + 1) * infty) from B to A;
  )";
  const auto parsed = cn::parse_net(source);
  EXPECT_TRUE(parsed.net.transition(0).rate.is_active());
  EXPECT_DOUBLE_EQ(parsed.net.transition(0).rate.value(), 1.25);
  EXPECT_TRUE(parsed.net.transition(1).rate.is_passive());
  EXPECT_DOUBLE_EQ(parsed.net.transition(1).rate.value(), 1.5);
}

TEST(NetParser, OverflowingRateIsAParseError) {
  const auto error = net_parse_error(
      one_transition_net("@transition go (rate 1e999) from A to B;"));
  EXPECT_EQ(error.line(), 5u);
  EXPECT_EQ(error.column(), 22u);
  EXPECT_NE(std::string(error.what()).find("1e999"), std::string::npos);
  const auto zero = net_parse_error(
      one_transition_net("@transition go (rate 1 - 1) from A to B;"));
  EXPECT_EQ(zero.column(), 22u);
}

TEST(NetParser, PriorityOutOfRangeIsAParseError) {
  for (const char* priority : {"1e30", "1.5", "-1"}) {
    const auto error = net_parse_error(one_transition_net(
        std::string("@transition go (rate 1.0, priority ") + priority +
        ") from A to B;"));
    EXPECT_EQ(error.line(), 5u) << priority;
    EXPECT_EQ(error.column(), 36u) << priority;
  }
}

TEST(NetParser, UnterminatedCommentInNetPartIsAParseError) {
  const auto error = net_parse_error(
      one_transition_net("@transition go (rate 1.0) from A to B; /* open"));
  EXPECT_NE(std::string(error.what()).find("unterminated block comment"),
            std::string::npos);
}

TEST(NetParser, ErrorsReportTheTokenColumn) {
  const auto dollar = net_parse_error(
      "M = (go, 1.0).M;\n@token M;\n@place A { cell M = M; } @place B { cell M; }\n"
      "@transition go (rate 1.0)$ from A to B;\n");
  EXPECT_EQ(dollar.line(), 4u);
  EXPECT_EQ(dollar.column(), 26u);
  const auto unknown_place =
      net_parse_error(one_transition_net("@transition go (rate 1.0) from A to C;"));
  EXPECT_EQ(unknown_place.line(), 5u);
  EXPECT_EQ(unknown_place.column(), 37u);
}

TEST(NetParser, NetSniffReadsTokensNotText) {
  EXPECT_TRUE(cn::is_net_source(kInstantMessageNet));
  EXPECT_FALSE(cn::is_net_source("// @token M;\nP = (a, 1.0).P;\n"));
  EXPECT_FALSE(cn::is_net_source("/* @place p { } */ P = (a, 1.0).P;"));
  EXPECT_FALSE(cn::is_net_source("P = (a, 1.0).P; @system P;"));
  EXPECT_FALSE(cn::is_net_source("@token M; /* never closed"));
  // The plain-model parser keeps its own error for net declarations.
  EXPECT_THROW(cp::parse_model(kInstantMessageNet), cu::ParseError);
}

// Every file under tests/corpus/pepa is dispatched as the CLI does: a net
// when is_net_source says so, a PEPA model otherwise.  Valid files parse;
// invalid ones raise util::ParseError at a real position, and nothing else.
TEST(PepaCorpus, ValidFilesParseAndInvalidFilesRaiseParseError) {
  const auto read = [](const std::filesystem::path& path) {
    std::ifstream stream(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << stream.rdbuf();
    return buffer.str();
  };
  const auto parse = [](const std::string& source, const std::string& name) {
    if (cn::is_net_source(source)) {
      cn::parse_net(source, name);
    } else {
      cp::parse_model(source, name);
    }
  };
  const std::filesystem::path corpus(CHOREO_PEPA_CORPUS_DIR);
  std::size_t valid = 0, invalid = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(corpus / "valid")) {
    EXPECT_NO_THROW(parse(read(entry.path()), entry.path().string()))
        << entry.path();
    ++valid;
  }
  for (const auto& entry :
       std::filesystem::directory_iterator(corpus / "invalid")) {
    try {
      parse(read(entry.path()), entry.path().string());
      ADD_FAILURE() << entry.path() << " parsed";
    } catch (const cu::ParseError& error) {
      EXPECT_GE(error.line(), 1u) << entry.path();
      EXPECT_GE(error.column(), 1u) << entry.path();
    } catch (const std::exception& error) {
      ADD_FAILURE() << entry.path() << " raised a non-ParseError: " << error.what();
    }
    ++invalid;
  }
  EXPECT_GE(valid, 2u);
  EXPECT_GE(invalid, 5u);
}
