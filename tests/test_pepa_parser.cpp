// Unit tests for the PEPA parser (workbench dialect).
#include <gtest/gtest.h>

#include "pepa/parser.hpp"
#include "pepa/printer.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace cp = choreo::pepa;
namespace cu = choreo::util;

TEST(Parser, FileModelFromThePaper) {
  // Section 2.2 of the paper.
  auto model = cp::parse_model(R"(
    r_o = 2.0; r_r = 1.8; r_w = 1.2; r_c = 3.0;
    File      = (openread, r_o).InStream + (openwrite, r_o).OutStream;
    InStream  = (read, r_r).InStream + (close, r_c).File;
    OutStream = (write, r_w).OutStream + (close, r_c).File;
  )");
  EXPECT_EQ(model.parameters().size(), 4u);
  EXPECT_DOUBLE_EQ(model.parameter("r_r"), 1.8);
  EXPECT_EQ(model.definitions().size(), 3u);
  // Default system is the last definition.
  EXPECT_EQ(model.system(), model.term("OutStream"));
}

TEST(Parser, SystemDirective) {
  auto model = cp::parse_model(R"(
    P = (a, 1.0).P;
    Q = (b, 1.0).Q;
    @system P;
  )");
  EXPECT_EQ(model.system(), model.term("P"));
  EXPECT_TRUE(model.has_explicit_system());
}

TEST(Parser, CooperationAndHiding) {
  auto model = cp::parse_model(R"(
    P = (a, 1.0).P;
    Q = (a, infty).(b, 2.0).Q;
    S = (P <a> Q) / {b};
  )");
  const auto& node = model.arena().node(model.arena().body(
      *model.arena().find_constant("S")));
  EXPECT_EQ(node.op, cp::Op::kHiding);
  const auto& inner = model.arena().node(node.left);
  EXPECT_EQ(inner.op, cp::Op::kCooperation);
  ASSERT_EQ(inner.action_set.size(), 1u);
  EXPECT_EQ(model.arena().action_name(inner.action_set[0]), "a");
}

TEST(Parser, ParallelShorthand) {
  auto model = cp::parse_model("P = (a, 1.0).P; S = P || P;");
  const auto& node =
      model.arena().node(model.arena().body(*model.arena().find_constant("S")));
  EXPECT_EQ(node.op, cp::Op::kCooperation);
  EXPECT_TRUE(node.action_set.empty());
}

TEST(Parser, RateExpressions) {
  auto model = cp::parse_model(R"(
    base = 2.0;
    fast = base * 3;
    slow = (base + 1.0) / 6 - 0.25;
    P = (a, fast).(b, slow).(c, 2 * base).P;
  )");
  EXPECT_DOUBLE_EQ(model.parameter("fast"), 6.0);
  EXPECT_DOUBLE_EQ(model.parameter("slow"), 0.25);
}

TEST(Parser, PassiveRates) {
  auto model = cp::parse_model(R"(
    P = (a, infty).P;
    Q = (a, T).Q;
    W = (a, 2 * infty).W;
  )");
  auto check = [&](const char* name, double weight) {
    const auto& node =
        model.arena().node(model.arena().body(*model.arena().find_constant(name)));
    EXPECT_TRUE(node.rate.is_passive());
    EXPECT_DOUBLE_EQ(node.rate.value(), weight);
  };
  check("P", 1.0);
  check("Q", 1.0);
  check("W", 2.0);
}

TEST(Parser, PrefixChainsAndNestedChoice) {
  auto model = cp::parse_model(
      "P = (a, 1.0).(b, 2.0).((c, 3.0).P + (d, 4.0).P);");
  const std::string text =
      cp::to_string(model.arena(),
                    model.arena().body(*model.arena().find_constant("P")));
  EXPECT_EQ(text, "(a, 1).(b, 2).((c, 3).P + (d, 4).P)");
}

TEST(Parser, StopKeyword) {
  auto model = cp::parse_model("P = (a, 1.0).Stop;");
  const auto& node =
      model.arena().node(model.arena().body(*model.arena().find_constant("P")));
  EXPECT_EQ(model.arena().node(node.left).op, cp::Op::kStop);
}

TEST(Parser, CommentsAllStyles) {
  auto model = cp::parse_model(R"(
    // line comment
    % workbench comment
    # hash comment
    /* block
       comment */
    P = (a, 1.0).P;  // trailing
  )");
  EXPECT_EQ(model.definitions().size(), 1u);
}

TEST(Parser, UndefinedConstantRejected) {
  EXPECT_THROW(cp::parse_model("P = (a, 1.0).Missing;"), cu::ModelError);
}

TEST(Parser, DuplicateDefinitionRejected) {
  EXPECT_THROW(cp::parse_model("P = (a, 1.0).P; P = (b, 1.0).P;"),
               cu::ModelError);
}

TEST(Parser, UnknownParameterRejected) {
  EXPECT_THROW(cp::parse_model("P = (a, nope).P;"), cu::ParseError);
}

TEST(Parser, SyntaxErrorsCarryPositions) {
  try {
    cp::parse_model("P = (a, 1.0).P;\nQ = (b,, 1.0).Q;", "m.pepa");
    FAIL() << "expected ParseError";
  } catch (const cu::ParseError& error) {
    EXPECT_EQ(error.artefact(), "m.pepa");
    EXPECT_EQ(error.line(), 2u);
  }
}

TEST(Parser, ReplicationCountOutOfRangeIsAParseError) {
  for (const char* count : {"1e300", "0", "2.5"}) {
    try {
      cp::parse_model(std::string("P = (a, 1.0).P; S = P[") + count + "];",
                      "r.pepa");
      ADD_FAILURE() << count << " was accepted";
    } catch (const cu::ParseError& error) {
      EXPECT_EQ(error.line(), 1u);
      EXPECT_EQ(error.column(), 23u);
      EXPECT_NE(std::string(error.what()).find(count), std::string::npos)
          << error.what();
    }
  }
}

TEST(Parser, MalformedNumbersAreParseErrors) {
  for (const char* number : {"1.2.3", "2e", "1e999"}) {
    try {
      cp::parse_model(std::string("P = (a, ") + number + ").P;");
      ADD_FAILURE() << number << " was accepted";
    } catch (const cu::ParseError& error) {
      EXPECT_EQ(error.column(), 9u) << number;
      EXPECT_NE(std::string(error.what()).find(number), std::string::npos)
          << error.what();
    }
  }
}

TEST(Parser, NonPositiveOrInfiniteRateIsAParseError) {
  for (const char* rate : {"1/0", "0", "1 - 2"}) {
    try {
      cp::parse_model(std::string("P = (a, ") + rate + ").P;");
      ADD_FAILURE() << rate << " was accepted";
    } catch (const cu::ParseError& error) {
      EXPECT_EQ(error.column(), 9u) << rate;
    }
  }
}

TEST(Parser, ReservedWordsRejected) {
  EXPECT_THROW(cp::parse_model("Stop = (a, 1.0).Stop;"), cu::ParseError);
  EXPECT_THROW(cp::parse_model("infty = 2.0;"), cu::ParseError);
}

TEST(Parser, ParameterUsedAsProcessRejected) {
  EXPECT_THROW(cp::parse_model("r = 1.0; P = (a, 1.0).r;"), cu::ParseError);
}

TEST(Parser, SystemDirectiveUnknownNameRejected) {
  EXPECT_THROW(cp::parse_model("P = (a, 1.0).P; @system Nope;"), cu::ParseError);
}

TEST(Parser, EmptyCooperationSetViaAngles) {
  auto model = cp::parse_model("P = (a, 1.0).P; S = P <> P;");
  const auto& node =
      model.arena().node(model.arena().body(*model.arena().find_constant("S")));
  EXPECT_EQ(node.op, cp::Op::kCooperation);
  EXPECT_TRUE(node.action_set.empty());
}

TEST(Parser, RoundTripThroughPrinter) {
  const char* source = R"(
    P = (a, 1.5).P + (b, infty).Q;
    Q = (c, 2).(d, 3).P;
    S = (P <a, b> Q)/{c};
  )";
  auto model = cp::parse_model(source);
  const std::string printed =
      cp::to_string(model.arena(),
                    model.arena().body(*model.arena().find_constant("S")));
  // Re-parse the printed system inside a fresh model with the same
  // definitions; the bodies must intern to structurally equal terms.
  auto again = cp::parse_model(std::string(R"(
    P = (a, 1.5).P + (b, infty).Q;
    Q = (c, 2).(d, 3).P;
    S = )") + printed + ";");
  EXPECT_EQ(cp::to_string(again.arena(),
                          again.arena().body(*again.arena().find_constant("S"))),
            printed);
}

TEST(Parser, FileModelIsDeadlockFreeEndToEnd) {
  auto model = cp::parse_model(R"(
    File      = (openread, 2.0).InStream + (openwrite, 2.0).OutStream;
    InStream  = (read, 1.8).InStream + (close, 3.0).File;
    OutStream = (write, 1.2).OutStream + (close, 3.0).File;
    @system File;
  )");
  cp::Semantics semantics(model.arena());
  const auto space = cp::StateSpace::derive(semantics, model.system());
  EXPECT_EQ(space.state_count(), 3u);
  EXPECT_TRUE(space.deadlock_states().empty());
}

TEST(Parser, RobustAgainstMangledInput) {
  // Randomly mutate a valid model; the parser must either succeed or throw
  // a structured error -- never crash or hang.
  const std::string base = R"(
    r = 2.0;
    P = (a, r).Q + (b, infty).P;
    Q = (c, 1.5).(d, 0.5).P;
    S = (P <a, b> Q)/{c};
    @system S;
  )";
  choreo::util::Xoshiro256 rng(2718);
  for (int trial = 0; trial < 300; ++trial) {
    std::string mangled = base;
    const std::size_t edits = 1 + rng.below(4);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.below(mangled.size());
      switch (rng.below(3)) {
        case 0: mangled[pos] = static_cast<char>(32 + rng.below(95)); break;
        case 1: mangled.erase(pos, 1); break;
        default: mangled.insert(pos, 1, static_cast<char>(32 + rng.below(95)));
      }
    }
    try {
      auto model = cp::parse_model(mangled);
      (void)model;
    } catch (const cu::Error&) {
      // structured failure is fine
    }
  }
  SUCCEED();
}

TEST(Printer, ModelSourceRoundTrip) {
  const char* source = R"(
    r = 2.0;
    File      = (openread, r).InStream + (openwrite, r).OutStream;
    InStream  = (read, 1.8).InStream + (close, 3.0).File;
    OutStream = (write, 1.2).OutStream + (close, 3.0).File;
    Reader    = (openread, infty).(read, infty).(close, infty).Reader;
    System    = File <openread, read, close> Reader;
    @system System;
  )";
  auto model = cp::parse_model(source);
  const std::string emitted = cp::model_to_source(model);
  auto reparsed = cp::parse_model(emitted);

  cp::Semantics semantics_a(model.arena());
  cp::Semantics semantics_b(reparsed.arena());
  const auto space_a = cp::StateSpace::derive(semantics_a, model.system());
  const auto space_b = cp::StateSpace::derive(semantics_b, reparsed.system());
  EXPECT_EQ(space_a.state_count(), space_b.state_count());
  EXPECT_EQ(space_a.transitions().size(), space_b.transitions().size());
}

TEST(Printer, ModelSourceAnonymousSystem) {
  auto model = cp::parse_model("P = (a, 1.0).P;");
  // Default system is the last definition (a constant), but force an
  // anonymous composite system to exercise the synthetic wrapper.
  model.set_system(model.arena().cooperation(model.term("P"), {}, model.term("P")));
  const std::string emitted = cp::model_to_source(model);
  EXPECT_NE(emitted.find("Sys__emitted"), std::string::npos);
  auto reparsed = cp::parse_model(emitted);
  cp::Semantics semantics(reparsed.arena());
  const auto space = cp::StateSpace::derive(semantics, reparsed.system());
  EXPECT_EQ(space.state_count(), 1u);
}
