#include "replay.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "choreographer/extract_activity.hpp"
#include "choreographer/extract_statechart.hpp"
#include "choreographer/rates.hpp"
#include "choreographer/reflect.hpp"
#include "pepa/measures.hpp"
#include "pepa/semantics.hpp"
#include "pepanet/netsemantics.hpp"
#include "pepanet/netstatespace.hpp"
#include "uml/layout.hpp"
#include "uml/xmi.hpp"
#include "xml/parse.hpp"
#include "xml/write.hpp"

namespace perfbench {

using namespace choreo;

void DeriveTotals::add(const pepa::DeriveStats& stats, std::size_t state_count,
                       std::size_t transition_count, bool aggregated,
                       double rss_growth) {
  ++derives;
  states += static_cast<double>(state_count);
  transitions += static_cast<double>(transition_count);
  levels += static_cast<double>(stats.levels);
  dedup_hits += static_cast<double>(stats.dedup_hits);
  dedup_misses += static_cast<double>(stats.dedup_misses);
  rewrites += static_cast<double>(stats.canonical_rewrites);
  peak_frontier = std::max(peak_frontier, stats.peak_frontier);
  seconds += stats.seconds;
  rss_growth_bytes += rss_growth;
  if (aggregated) {
    ++quotient_derives;
    quotient_blocks += static_cast<double>(state_count);
    quotient_transitions += static_cast<double>(transition_count);
  }
}

void DeriveTotals::fill(LayerValues& values) const {
  if (derives == 0) return;
  const double n = static_cast<double>(derives);
  values["explore.states"] = states / n;
  values["explore.transitions"] = transitions / n;
  values["explore.levels"] = levels / n;
  values["explore.peak_frontier"] = static_cast<double>(peak_frontier);
  const double lookups = dedup_hits + dedup_misses;
  values["explore.dedup_hit_ratio"] = lookups > 0 ? dedup_hits / lookups : 0;
  values["explore.canonical_rewrites"] = rewrites / n;
  if (seconds > 0.0) {
    values["pepa.derive.states_per_s"] = states / seconds;
    values["pepa.derive.transitions_per_s"] = transitions / seconds;
  }
  if (states > 0.0) {
    values["pepa.derive.rss_growth_bytes_per_state"] = rss_growth_bytes / states;
  }
  if (quotient_derives > 0) {
    const double q = static_cast<double>(quotient_derives);
    values["pepa.quotient.blocks"] = quotient_blocks / q;
    values["pepa.quotient.transitions"] = quotient_transitions / q;
    values["pepa.quotient.transitions_per_block"] =
        quotient_transitions / quotient_blocks;
  }
}

void SolveTotals::add(const ctmc::Generator& generator,
                      const ctmc::SolveResult& solved) {
  ++solves;
  nonzeros += static_cast<double>(generator.matrix().nonzeros());
  iterations += static_cast<double>(solved.iterations);
  residual_max = std::max(residual_max, solved.residual);
  if (solved.method_used == ctmc::Method::kDenseLU) ++dense_lu;
}

void SolveTotals::fill(LayerValues& values) const {
  if (solves == 0) return;
  const double n = static_cast<double>(solves);
  values["ctmc.generator.nnz"] = nonzeros / n;
  values["ctmc.solve.iterations"] = iterations / n;
  values["ctmc.solve.residual_max"] = residual_max;
  values["ctmc.solve.dense_lu_share"] = static_cast<double>(dense_lu) / n;
}

chor::AnalysisOptions pipeline_options() {
  chor::AnalysisOptions options;
  options.derive_threads = 1;
  // Residual mat-vecs would otherwise run on the process-wide pool, whose
  // size the benchmark does not choose.
  options.solver.parallel = false;
  return options;
}

namespace {

/// Mirrors the pipeline's activity-graph leg (choreographer/pipeline.cpp).
void replay_activity_graph(Trace& trace, uml::ActivityGraph& graph,
                           const chor::AnalysisOptions& options,
                           ReplayTotals& totals) {
  chor::ExtractOptions extract_options;
  extract_options.default_rate = options.default_rate;
  chor::ActivityExtraction extraction = [&] {
    Trace::Scope span(trace, "choreographer.extract");
    return chor::extract_activity_graph(graph, extract_options);
  }();
  pepanet::NetSemantics semantics(extraction.net);

  pepanet::NetDeriveOptions derive_options;
  derive_options.max_markings = options.max_states;
  derive_options.threads = options.derive_threads;
  derive_options.pool = options.derive_pool;
  derive_options.aggregate = options.aggregation == chor::Aggregation::kExact;
  const std::size_t rss_before = current_rss_bytes();
  const pepanet::NetStateSpace space = [&] {
    Trace::Scope span(trace, "pepanet.derive");
    return pepanet::NetStateSpace::derive(semantics, derive_options);
  }();
  totals.derive.add(space.stats(), space.marking_count(),
                    space.transitions().size(), space.aggregated(),
                    static_cast<double>(current_rss_bytes()) -
                        static_cast<double>(rss_before));

  const ctmc::Generator generator = [&] {
    Trace::Scope span(trace, "ctmc.generator");
    return space.generator();
  }();
  const ctmc::SolveResult solved = [&] {
    Trace::Scope span(trace, "ctmc.solve");
    return ctmc::steady_state(generator, options.solver);
  }();
  totals.solve.add(generator, solved);

  Trace::Scope reflect_span(trace, "choreographer.measure_reflect");
  chor::Throughputs throughputs;
  {
    Trace::Scope span(trace, "pepa.measures");
    for (const auto& action_name : extraction.action_names) {
      if (!action_name) continue;
      const auto action = extraction.net.arena().find_action(*action_name);
      if (!action) throw std::logic_error("extracted action not interned");
      throughputs.emplace_back(
          *action_name,
          pepanet::action_throughput(space, solved.distribution, *action));
    }
  }
  chor::reflect_throughputs(graph, throughputs);
}

/// Mirrors the pipeline's state-machine leg.
void replay_state_machines(Trace& trace, uml::Model& model,
                           const chor::AnalysisOptions& options,
                           ReplayTotals& totals) {
  chor::StatechartExtraction extraction = [&] {
    Trace::Scope span(trace, "choreographer.extract");
    return chor::extract_state_machines(model);
  }();
  pepa::Semantics semantics(extraction.model.arena());

  pepa::DeriveOptions derive_options;
  derive_options.max_states = options.max_states;
  derive_options.threads = options.derive_threads;
  derive_options.pool = options.derive_pool;
  derive_options.aggregate = options.aggregation == chor::Aggregation::kExact;
  const std::size_t rss_before = current_rss_bytes();
  const pepa::StateSpace space = [&] {
    Trace::Scope span(trace, "pepa.derive");
    return pepa::StateSpace::derive(semantics, extraction.model.system(),
                                    derive_options);
  }();
  totals.derive.add(space.stats(), space.state_count(),
                    space.transitions().size(), space.aggregated(),
                    static_cast<double>(current_rss_bytes()) -
                        static_cast<double>(rss_before));

  const ctmc::Generator generator = [&] {
    Trace::Scope span(trace, "ctmc.generator");
    return space.generator();
  }();
  const ctmc::SolveResult solved = [&] {
    Trace::Scope span(trace, "ctmc.solve");
    return ctmc::steady_state(generator, options.solver);
  }();
  totals.solve.add(generator, solved);

  Trace::Scope reflect_span(trace, "choreographer.measure_reflect");
  const pepa::ProcessArena& arena = extraction.model.arena();
  for (std::size_t m = 0; m < model.state_machines().size(); ++m) {
    chor::Probabilities probabilities;
    {
      Trace::Scope span(trace, "pepa.measures");
      for (const std::string& constant_name : extraction.state_constants[m]) {
        const auto constant = arena.find_constant(constant_name);
        if (!constant) throw std::logic_error("extracted state not interned");
        probabilities.emplace_back(
            constant_name,
            pepa::state_probability(space, solved.distribution, arena,
                                    *constant));
      }
    }
    chor::reflect_probabilities(model.state_machines()[m],
                                extraction.state_constants[m], probabilities);
  }
  Trace::Scope span(trace, "pepa.measures");
  const auto throughputs =
      pepa::all_throughputs(space, solved.distribution, arena);
  if (throughputs.empty()) throw std::logic_error("no throughputs");
}

}  // namespace

std::string replay_project(Trace& trace, const std::string& path,
                           const chor::AnalysisOptions& options,
                           ReplayTotals& totals) {
  totals.bytes_parsed += static_cast<double>(std::filesystem::file_size(path));
  const xml::Document project = [&] {
    Trace::Scope span(trace, "xml.parse");
    return xml::parse_file(path);
  }();
  const uml::SplitProject split = [&] {
    Trace::Scope span(trace, "uml.preprocess");
    return uml::preprocess(project);
  }();
  uml::Model model = [&] {
    Trace::Scope span(trace, "uml.from_xmi");
    return uml::from_xmi(split.model);
  }();
  {
    Trace::Scope span(trace, "choreographer.rates");
    model.validate();
    if (!options.rates.empty()) chor::apply_rates(model, options.rates);
  }
  for (uml::ActivityGraph& graph : model.activity_graphs()) {
    replay_activity_graph(trace, graph, options, totals);
  }
  if (!model.state_machines().empty()) {
    replay_state_machines(trace, model, options, totals);
  }
  const xml::Document reflected = [&] {
    Trace::Scope span(trace, "uml.to_xmi");
    return uml::to_xmi(model);
  }();
  const xml::Document annotated = [&] {
    Trace::Scope span(trace, "uml.postprocess");
    return uml::postprocess(reflected, split.layout);
  }();
  Trace::Scope span(trace, "xml.write");
  return xml::to_string(annotated);
}

std::string analyse_project_file(const std::string& path,
                                 const chor::AnalysisOptions& options) {
  return xml::to_string(
      chor::analyse_project(xml::parse_file(path), options));
}

}  // namespace perfbench
