// Analysis jobs: the unit of work of the concurrent analysis service.
//
// A JobRequest wraps one Figure-4 pipeline run — a project document (or the
// path of one) plus AnalysisOptions — or, given a sweep spec, a design-space
// sweep over a PEPA model under the same options.  A JobResult carries
// everything a client needs back: the AnalysisReport, the annotated project
// XMI as serialised bytes (so repeated runs can be compared byte-for-byte
// and the cache can replay them), the error string for failed jobs and a
// timing breakdown of the queue/run/pipeline stages.
//
// Lifecycle (JobStatus):
//
//   queued --> running --> done
//                      \-> failed      (pipeline threw; see JobResult.error)
//                      \-> timed_out   (wall-clock deadline passed)
//          \----------\-> cancelled    (JobHandle::cancel, before or during)
//
// All transitions are driven by the Scheduler; JobHandle (scheduler.hpp) is
// the client-side view.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "choreographer/pipeline.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "xml/dom.hpp"

namespace choreo::service {

enum class JobStatus {
  kQueued,
  kRunning,
  kDone,
  kFailed,
  kCancelled,
  kTimedOut,
};

const char* to_string(JobStatus status);

/// True for the four states that end a job's lifecycle.
bool is_terminal(JobStatus status);

struct JobRequest {
  /// Display name used by reports and the batch tool; defaults to the
  /// input path or "<inline>".
  std::string name;
  /// The project document to analyse.  Ignored when `input_path` is set
  /// (the scheduler then parses the file inside the job).
  xml::Document project;
  /// The XMI project, or the PEPA model of a sweep job.
  std::optional<std::string> input_path;
  /// When set, the annotated project XMI (or a sweep's table: JSON when the
  /// path ends in `.json`, CSV otherwise) is also written to this path.
  std::optional<std::string> output_path;
  chor::AnalysisOptions options;
  /// Wall-clock budget measured from submission, spanning queue wait,
  /// retries and backoff.  Negative means "use the scheduler default";
  /// 0 disables the deadline.
  double timeout_seconds = -1.0;
  /// When set, the job is a design-space sweep over the PEPA model at
  /// `input_path` instead of a Figure-4 pipeline run: the state space is
  /// derived once and re-solved at every point of the spec, under the same
  /// options (see sweep_options) and the same retry ladder.  The result
  /// lands in JobResult::sweep.
  std::optional<sweep::SweepSpec> sweep;
};

/// The sweep engine's options for a job's analysis options: the backend
/// follows `aggregation` (none: the full chain, exact: the derived
/// quotient, fluid: the mean-field ODE), the state bound, solver and
/// budget carry over, the fluid knobs map as in the pipeline
/// (chor::governed_fluid), and `derive_threads` sets both the derivation
/// and the point-evaluation lanes.
sweep::SweepOptions sweep_options(const chor::AnalysisOptions& options);

struct JobTimings {
  /// Submission to first execution attempt.
  double queued_seconds = 0.0;
  /// Execution (including retries and backoff sleeps).
  double run_seconds = 0.0;
  /// Pipeline stage totals folded over the report's graphs (clocks and
  /// discovery counters sum, peak frontier takes the maximum).
  chor::StageTimings stages;
};

struct JobResult {
  JobStatus status = JobStatus::kQueued;
  chor::AnalysisReport report;
  /// The annotated project document, serialised with the default
  /// xml::WriteOptions.  Byte-identical across cache hits.
  std::string annotated_xmi;
  /// Human-readable failure reason (failed / timed_out / cancelled).
  std::string error;
  JobTimings timings;
  /// Derivation progress reconstructed from the job's resource budget;
  /// most useful for cancelled / timed-out jobs, where it shows how far
  /// exploration got before the interruption (levels, peak frontier, and
  /// states discovered in dedup_misses).  Zeroed for cache hits and jobs
  /// that never ran.
  pepa::DeriveStats partial_derive_stats;
  /// Execution attempts (0 for cache hits and never-ran jobs).
  std::size_t attempts = 0;
  /// Aggregation level of the attempt that produced the report — deeper
  /// than the request's own level when the retry ladder downgraded the
  /// job (kNone -> kExact -> kFluid).  Cache entries are keyed by the
  /// requested level but store the producing one, which a hit reports; a
  /// sweep reports the deepest level among its evaluated and cached points.
  chor::Aggregation aggregation_used = chor::Aggregation::kNone;
  /// Whether the result was served from the content-addressed cache.  A
  /// sweep job sets this only when *every* point was a cache hit; partial
  /// hits are counted in sweep->points_from_cache.
  bool from_cache = false;
  /// The result table of a sweep job (JobRequest::sweep); unset otherwise.
  std::optional<sweep::SweepTable> sweep;
};

}  // namespace choreo::service
