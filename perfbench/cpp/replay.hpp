// The traced decomposition of one Figure-4 analysis, and the per-layer
// counters the traced runs accumulate from public results.
#pragma once

#include <cstddef>
#include <string>

#include "choreographer/pipeline.hpp"
#include "common.hpp"
#include "ctmc/generator.hpp"
#include "ctmc/steady_state.hpp"
#include "pepa/statespace.hpp"

namespace perfbench {

/// Derivation counters summed over every derive of a traced run.
struct DeriveTotals {
  std::size_t derives = 0;
  double states = 0.0;
  double transitions = 0.0;
  double levels = 0.0;
  double dedup_hits = 0.0;
  double dedup_misses = 0.0;
  double rewrites = 0.0;
  std::size_t peak_frontier = 0;
  double seconds = 0.0;
  double rss_growth_bytes = 0.0;
  /// Quotient-direct derives only.
  std::size_t quotient_derives = 0;
  double quotient_blocks = 0.0;
  double quotient_transitions = 0.0;

  void add(const choreo::pepa::DeriveStats& stats, std::size_t states,
           std::size_t transitions, bool aggregated, double rss_growth_bytes);
  /// explore.*, pepa.derive.* and pepa.quotient.* metrics.
  void fill(LayerValues& values) const;
};

/// Generator and solver counters summed over every solve of a traced run.
struct SolveTotals {
  std::size_t solves = 0;
  double nonzeros = 0.0;
  double iterations = 0.0;
  double residual_max = 0.0;
  std::size_t dense_lu = 0;

  void add(const choreo::ctmc::Generator& generator,
           const choreo::ctmc::SolveResult& solved);
  /// ctmc.generator.nnz and ctmc.solve.* metrics.
  void fill(LayerValues& values) const;
};

/// What one traced replay produced besides its spans.
struct ReplayTotals {
  DeriveTotals derive;
  SolveTotals solve;
  double bytes_parsed = 0.0;
};

/// Runs the Figure-4 pipeline on the project file at `path` the way the
/// scheduler does (parse, preprocess, from_xmi, rates, extract, derive,
/// generator, steady state, measures and reflection, to_xmi, postprocess,
/// serialise), one public call per span, and returns the annotated XMI.
/// The caller opens the op span.
std::string replay_project(Trace& trace, const std::string& path,
                           const choreo::chor::AnalysisOptions& options,
                           ReplayTotals& totals);

/// The untraced counterpart: parse_file, analyse_project, to_string.
std::string analyse_project_file(const std::string& path,
                                 const choreo::chor::AnalysisOptions& options);

/// Analysis options every Figure-4 op uses: one derivation lane and a
/// sequential solver, passed explicitly so no default pool sizing applies.
choreo::chor::AnalysisOptions pipeline_options();

}  // namespace perfbench
