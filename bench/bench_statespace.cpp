// E6a (paper Section 1.1): state-space explosion.
//
// Report: how the CTMC size grows with the model -- transmitters in the
// handover ring, tokens in a multi-message net, and clients against the
// Tomcat server -- demonstrating the "susceptibility to state-space
// explosion" the paper names as the cost of exact numerical solution.
// A final table sweeps the exploration lane count over the largest models;
// the derived graphs are identical at every lane count, only the wall
// clock changes (and only on hosts with spare cores -- see
// docs/performance.md).
// Benchmarks: marking-graph derivation throughput.
#include "bench_common.hpp"

#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include "choreographer/extract_activity.hpp"
#include "choreographer/extract_statechart.hpp"
#include "choreographer/paper_models.hpp"
#include "pepa/families.hpp"
#include "pepa/parser.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "pepanet/net_parser.hpp"
#include "pepanet/netsemantics.hpp"
#include "pepanet/netstatespace.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {
using namespace choreo;

/// A ring of `places` places with `tokens` messages hopping around it; each
/// extra token multiplies the marking count.
std::string ring_net(std::size_t places, std::size_t tokens) {
  std::string source =
      "Msg = (work, 1.0).Ready;\n"
      "Ready = (hop, 2.0).Msg;\n"
      "@token Msg;\n";
  for (std::size_t p = 0; p < places; ++p) {
    source += "@place ring" + std::to_string(p) + " {";
    for (std::size_t c = 0; c < tokens; ++c) {
      source += " cell Msg";
      if (p == 0) source += " = Msg";  // all tokens start at ring0
      source += ";";
    }
    source += " }\n";
  }
  for (std::size_t p = 0; p < places; ++p) {
    source += "@transition hop (rate infty) from ring" + std::to_string(p) +
              " to ring" + std::to_string((p + 1) % places) + ";\n";
  }
  return source;
}

void report() {
  // 1. Handover ring: linear growth (one token).
  util::TextTable ring({"transmitters", "markings", "transitions",
                        "derive ms"});
  for (std::size_t n : {2u, 8u, 32u, 128u}) {
    chor::PdaParams params;
    params.transmitters = n;
    uml::Model model = chor::pda_handover_model(params);
    auto extraction = chor::extract_activity_graph(model.activity_graphs()[0]);
    pepanet::NetSemantics semantics(extraction.net);
    util::Stopwatch timer;
    const auto space = pepanet::NetStateSpace::derive(semantics);
    const double seconds = timer.seconds();
    ring.add_row_values(std::to_string(n),
                        {static_cast<double>(space.marking_count()),
                         static_cast<double>(space.transitions().size()),
                         seconds * 1e3});
    bench::json_record(
        bench::JsonObject()
            .field("model", "pda_handover[" + std::to_string(n) + "tx]")
            .field("threads", std::size_t{1})
            .field("states", space.marking_count())
            .field("transitions", space.transitions().size())
            .field("seconds", seconds)
            .field("states_per_second",
                   static_cast<double>(space.marking_count()) / seconds));
  }
  std::cout << "one mobile token (linear):\n" << ring << '\n';

  // 2. Token population: combinatorial growth.
  util::TextTable tokens({"tokens", "markings", "transitions", "derive ms"});
  for (std::size_t t : {1u, 2u, 3u, 4u, 5u}) {
    auto parsed = pepanet::parse_net(ring_net(3, t));
    pepanet::NetSemantics semantics(parsed.net);
    util::Stopwatch timer;
    const auto space = pepanet::NetStateSpace::derive(semantics);
    const double seconds = timer.seconds();
    tokens.add_row_values(std::to_string(t),
                          {static_cast<double>(space.marking_count()),
                           static_cast<double>(space.transitions().size()),
                           seconds * 1e3});
    bench::json_record(
        bench::JsonObject()
            .field("model", "ring3[" + std::to_string(t) + "tok]")
            .field("threads", std::size_t{1})
            .field("states", space.marking_count())
            .field("transitions", space.transitions().size())
            .field("seconds", seconds)
            .field("states_per_second",
                   static_cast<double>(space.marking_count()) / seconds));
  }
  std::cout << "token population on a 3-place ring (combinatorial):\n"
            << tokens << '\n';

  // 3. Client population against the Tomcat server.
  util::TextTable clients({"clients", "states", "transitions", "derive ms"});
  for (std::size_t c : {1u, 2u, 4u, 6u, 8u}) {
    chor::TomcatParams params;
    params.clients = c;
    const uml::Model model = chor::tomcat_model(false, params);
    auto extraction = chor::extract_state_machines(model);
    pepa::Semantics semantics(extraction.model.arena());
    util::Stopwatch timer;
    const auto space =
        pepa::StateSpace::derive(semantics, extraction.model.system());
    const double seconds = timer.seconds();
    clients.add_row_values(std::to_string(c),
                           {static_cast<double>(space.state_count()),
                            static_cast<double>(space.transitions().size()),
                            seconds * 1e3});
    bench::json_record(
        bench::JsonObject()
            .field("model", "tomcat[" + std::to_string(c) + "cl]")
            .field("threads", std::size_t{1})
            .field("states", space.state_count())
            .field("transitions", space.transitions().size())
            .field("seconds", seconds)
            .field("states_per_second",
                   static_cast<double>(space.state_count()) / seconds));
  }
  std::cout << "Tomcat client population:\n" << clients << '\n';

  // 4. Exploration lanes over the largest models.  Derivation is
  // level-synchronous and deterministic: every lane count yields the same
  // graph, so only "derive ms" may move.
  util::ThreadPool pool(4);
  util::TextTable lanes({"model", "lanes", "states", "derive ms",
                         "states/s"});
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    chor::PdaParams params;
    params.transmitters = 128;
    uml::Model model = chor::pda_handover_model(params);
    auto extraction = chor::extract_activity_graph(model.activity_graphs()[0]);
    pepanet::NetSemantics semantics(extraction.net);
    pepanet::NetDeriveOptions options;
    options.threads = threads;
    options.pool = threads > 1 ? &pool : nullptr;
    util::Stopwatch timer;
    const auto space = pepanet::NetStateSpace::derive(semantics, options);
    const double seconds = timer.seconds();
    const double rate = static_cast<double>(space.marking_count()) / seconds;
    lanes.add_row_values("pda_handover[128tx] x" + std::to_string(threads),
                         {static_cast<double>(threads),
                          static_cast<double>(space.marking_count()),
                          seconds * 1e3, rate});
    bench::json_record(bench::JsonObject()
                           .field("model", "pda_handover[128tx]")
                           .field("threads", threads)
                           .field("states", space.marking_count())
                           .field("transitions", space.transitions().size())
                           .field("seconds", seconds)
                           .field("states_per_second", rate));
  }
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    chor::TomcatParams params;
    params.clients = 8;
    const uml::Model model = chor::tomcat_model(false, params);
    auto extraction = chor::extract_state_machines(model);
    pepa::Semantics semantics(extraction.model.arena());
    pepa::DeriveOptions options;
    options.threads = threads;
    options.pool = threads > 1 ? &pool : nullptr;
    util::Stopwatch timer;
    const auto space = pepa::StateSpace::derive(
        semantics, extraction.model.system(), options);
    const double seconds = timer.seconds();
    const double rate = static_cast<double>(space.state_count()) / seconds;
    lanes.add_row_values("tomcat[8cl] x" + std::to_string(threads),
                         {static_cast<double>(threads),
                          static_cast<double>(space.state_count()),
                          seconds * 1e3, rate});
    bench::json_record(bench::JsonObject()
                           .field("model", "tomcat[8cl]")
                           .field("threads", threads)
                           .field("states", space.state_count())
                           .field("transitions", space.transitions().size())
                           .field("seconds", seconds)
                           .field("states_per_second", rate));
  }
  std::cout << "exploration lanes (identical graphs at every lane count):\n"
            << lanes << '\n';

  // 5. Lanes × size over the parametric families (pepa::families): three
  // decades of state count per family, the largest honestly reaching 10^6+
  // states — each derived count is checked against the family's closed-form
  // reachable-state formula, not eyeballed.  The 10^6 points run at lanes
  // {1, 8} only to bound the report's wall clock; the smaller sizes sweep
  // the full lane set.
  struct SweepPoint {
    std::string label;
    std::size_t expected_states;
    std::function<pepa::Model()> build;
    std::vector<std::size_t> lane_counts;
  };
  const std::vector<std::size_t> all_lanes{1, 2, 4, 8};
  const std::vector<std::size_t> big_lanes{1, 8};
  const SweepPoint sweep_points[] = {
      {"client_server[8cl,8sv]", pepa::client_server_states(8, 8),
       [] { return pepa::client_server(8, {.servers = 8}); }, all_lanes},
      {"client_server[10cl,10sv]", pepa::client_server_states(10, 10),
       [] { return pepa::client_server(10, {.servers = 10}); }, all_lanes},
      {"client_server[11cl,11sv]", pepa::client_server_states(11, 11),
       [] { return pepa::client_server(11, {.servers = 11}); }, big_lanes},
      {"pda_handover[10pda,4tx]", pepa::pda_handover_states(10, 4),
       [] { return pepa::pda_handover(10, {.transmitters = 4}); }, all_lanes},
      {"pda_handover[14pda,4tx]", pepa::pda_handover_states(14, 4),
       [] { return pepa::pda_handover(14, {.transmitters = 4}); }, all_lanes},
      {"pda_handover[16pda,4tx]", pepa::pda_handover_states(16, 4),
       [] { return pepa::pda_handover(16, {.transmitters = 4}); }, big_lanes},
      {"ring[14st]", pepa::ring_states(14),
       [] { return pepa::ring(14); }, all_lanes},
      {"ring[17st]", pepa::ring_states(17),
       [] { return pepa::ring(17); }, all_lanes},
      {"ring[20st]", pepa::ring_states(20),
       [] { return pepa::ring(20); }, big_lanes},
  };
  util::ThreadPool sweep_pool(7);  // 8 lanes = 7 workers + the caller
  util::TextTable sweep({"model", "lanes", "states", "derive ms", "states/s"});
  for (const SweepPoint& point : sweep_points) {
    for (const std::size_t threads : point.lane_counts) {
      pepa::Model model = point.build();
      pepa::Semantics semantics(model.arena());
      pepa::DeriveOptions options;
      options.threads = threads;
      options.pool = threads > 1 ? &sweep_pool : nullptr;
      util::Stopwatch timer;
      const auto space =
          pepa::StateSpace::derive(semantics, model.system(), options);
      const double seconds = timer.seconds();
      CHOREO_ASSERT(space.state_count() == point.expected_states);
      const double rate = static_cast<double>(space.state_count()) / seconds;
      sweep.add_row_values(point.label + " x" + std::to_string(threads),
                           {static_cast<double>(threads),
                            static_cast<double>(space.state_count()),
                            seconds * 1e3, rate});
      bench::json_record(bench::JsonObject()
                             .field("model", point.label)
                             .field("threads", threads)
                             .field("states", space.state_count())
                             .field("transitions", space.transitions().size())
                             .field("seconds", seconds)
                             .field("states_per_second", rate));
    }
  }
  std::cout << "lanes x size over the parametric families (counts verified"
               " against the closed forms):\n"
            << sweep << '\n';

  // 6. Quotient-direct derivation (DeriveOptions::aggregate): populations
  // whose full chains sit at or far beyond 10^6 states but whose
  // strong-equivalence quotients are tiny.  The full counts come from the
  // closed forms — the whole point is that the full chains need never be
  // derived (client_server[1000cl,4sv]'s 4.2e10 states could not be) —
  // and each quotient count is checked against its closed form.  The
  // "reduction" column is states-of-full / states-of-quotient, the ratio
  // of interned states; the transition columns show the stored
  // transitions shrinking with the states (count vectors merge the
  // replicas' parallel moves).  The last row is a PEPA-net quotient (the
  // tokens of each place's interchangeable cells counted) whose full
  // marking graph is small enough to derive.
  struct QuotientRow {
    std::string label;
    std::size_t full_states;
    std::size_t states;
    std::size_t transitions;
    std::size_t transition_bytes;
    double seconds;
  };
  std::vector<QuotientRow> quotient_rows;
  const std::pair<std::string, std::function<pepa::Model()>> pepa_points[] = {
      {"client_server[1500cl,2sv]",
       [] { return pepa::client_server(1500, {.servers = 2}); }},
      {"client_server[1000cl,4sv]",
       [] { return pepa::client_server(1000, {.servers = 4}); }},
      {"pda_handover[18pda,2tx]",
       [] { return pepa::pda_handover(18, {.transmitters = 2}); }},
      {"pda_handover[100pda,20tx]",
       [] { return pepa::pda_handover(100, {.transmitters = 20}); }},
  };
  const std::size_t pepa_full[] = {
      pepa::client_server_states(1500, 2), pepa::client_server_states(1000, 4),
      pepa::pda_handover_states(18, 2), pepa::pda_handover_states(100, 20)};
  const std::size_t pepa_quotient[] = {
      pepa::client_server_quotient_states(1500, 2),
      pepa::client_server_quotient_states(1000, 4),
      pepa::pda_handover_quotient_states(18, 2),
      pepa::pda_handover_quotient_states(100, 20)};
  for (std::size_t i = 0; i < std::size(pepa_points); ++i) {
    pepa::Model model = pepa_points[i].second();
    pepa::Semantics semantics(model.arena());
    pepa::DeriveOptions options;
    options.aggregate = true;
    options.threads = 1;
    util::Stopwatch timer;
    const auto space =
        pepa::StateSpace::derive(semantics, model.system(), options);
    const double seconds = timer.seconds();
    CHOREO_ASSERT(space.state_count() == pepa_quotient[i]);
    quotient_rows.push_back(
        {pepa_points[i].first, pepa_full[i], space.state_count(),
         space.transitions().size(),
         space.transitions().size() * sizeof(pepa::StateTransition), seconds});
  }
  {
    const std::string source = ring_net(3, 6);
    auto full_parsed = pepanet::parse_net(source);
    pepanet::NetSemantics full_semantics(full_parsed.net);
    const auto full = pepanet::NetStateSpace::derive(full_semantics);
    auto parsed = pepanet::parse_net(source);
    pepanet::NetSemantics semantics(parsed.net);
    pepanet::NetDeriveOptions options;
    options.aggregate = true;
    options.threads = 1;
    util::Stopwatch timer;
    const auto space = pepanet::NetStateSpace::derive(semantics, options);
    const double seconds = timer.seconds();
    quotient_rows.push_back(
        {"ring_net[3pl,6tok]", full.marking_count(), space.marking_count(),
         space.transitions().size(),
         space.transitions().size() * sizeof(pepanet::MarkingTransition),
         seconds});
  }
  util::TextTable quotient_table({"model", "full states", "quotient",
                                  "reduction", "transitions",
                                  "transitions/block", "derive ms"});
  for (const QuotientRow& row : quotient_rows) {
    const double reduction = static_cast<double>(row.full_states) /
                             static_cast<double>(row.states);
    const double per_block = static_cast<double>(row.transitions) /
                             static_cast<double>(row.states);
    quotient_table.add_row_values(
        row.label, {static_cast<double>(row.full_states),
                    static_cast<double>(row.states), reduction,
                    static_cast<double>(row.transitions), per_block,
                    row.seconds * 1e3});
    bench::json_record(bench::JsonObject()
                           .field("model", row.label + " quotient")
                           .field("threads", std::size_t{1})
                           .field("states", row.states)
                           .field("transitions", row.transitions)
                           .field("transitions_per_block", per_block)
                           .field("transition_bytes", row.transition_bytes)
                           .field("full_states", row.full_states)
                           .field("memory_reduction", reduction)
                           .field("seconds", row.seconds)
                           .field("states_per_second",
                                  static_cast<double>(row.states) /
                                      row.seconds));
  }
  std::cout << "quotient-direct derivation (full counts from the closed"
               " forms, measured for the net; reduction = full/quotient"
               " states):\n"
            << quotient_table << '\n';
}

void BM_DeriveRing(benchmark::State& state) {
  const std::string source =
      ring_net(3, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto parsed = pepanet::parse_net(source);
    pepanet::NetSemantics semantics(parsed.net);
    const auto space = pepanet::NetStateSpace::derive(semantics);
    benchmark::DoNotOptimize(space.marking_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DeriveRing)->DenseRange(1, 4)->Complexity();

void BM_DeriveInterleavedClients(benchmark::State& state) {
  std::string source = "C = (req, 1.0).(wait, 2.0).(think, 3.0).C;\nS = C";
  for (int i = 1; i < state.range(0); ++i) source += " || C";
  source += ";\n@system S;";
  for (auto _ : state) {
    auto model = pepa::parse_model(source);
    pepa::Semantics semantics(model.arena());
    const auto space = pepa::StateSpace::derive(semantics, model.system());
    benchmark::DoNotOptimize(space.state_count());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DeriveInterleavedClients)->DenseRange(2, 8, 2)->Complexity();

}  // namespace

int main(int argc, char** argv) {
  return choreo::bench::run(argc, argv,
                            "E6a: state-space explosion (Section 1.1)", report);
}
