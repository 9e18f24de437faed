// The concurrent analysis scheduler: many Figure-4 pipeline runs and
// design-space sweeps in flight at once, against one worker pool, one
// bounded queue and one content-addressed result cache.  Both job kinds
// take the same path: cache probe, attempts down the retry ladder, stage
// fold into the metrics, cache fill and output write; only the probe and
// the evaluate step differ.
//
//   Scheduler scheduler({.workers = 4, .cache = &cache});
//   JobHandle handle = scheduler.submit(request);   // blocks when full
//   const JobResult& result = handle.wait();
//
// Semantics:
//  - submit() applies backpressure: it blocks while `queue_capacity` jobs
//    are already queued or running (so a manifest of thousands of jobs
//    holds a bounded amount of memory).
//  - Timeouts are wall-clock from submission and enforced cooperatively
//    through a per-job util::Budget threaded into the pipeline: the
//    deadline is checked when the job is dequeued, at every pipeline
//    stage boundary, once per breadth-first level inside state-space
//    derivation, every few solver iterations, and during retry backoff.
//  - cancel() marks the job's budget; a queued job is discarded when
//    dequeued, a running one aborts at the next governance check (within
//    one frontier level / a handful of solver iterations).  Interrupted
//    jobs carry partial derivation statistics
//    (JobResult::partial_derive_stats) taken from the budget accounting.
//  - Jobs that fail on the transient max_states safety bound ("state-space
//    explosion") are retried with exponential backoff one rung down the
//    aggregation ladder (chor::Aggregation): the full chain first falls
//    back to the exact strong-equivalence quotient, then to the fluid
//    mean-field ODE, which never expands a state space; the state budget
//    may also be scaled by `retry_state_budget_factor`.  The level that
//    finally succeeded is recorded in JobResult::aggregation_used.
//  - Results of successful runs are stored in the cache (when one is
//    attached); an incoming job whose canonical key hits returns the
//    cached result byte-for-byte without touching the pipeline.  A sweep
//    keys each point and evaluates only the points that missed.
//
// The destructor drains: queued jobs still run (or resolve as cancelled /
// timed out) before the workers join, so every JobHandle is eventually
// signalled.
#pragma once

#include <cstddef>
#include <memory>

#include "service/cache.hpp"
#include "service/job.hpp"
#include "service/metrics.hpp"
#include "util/budget.hpp"

namespace choreo::service {

struct SchedulerOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency (at least 1).
  std::size_t workers = 0;
  /// submit() blocks while this many jobs are queued or running.
  std::size_t queue_capacity = 64;
  /// Default per-job timeout (seconds from submission); 0 disables it.
  double default_timeout_seconds = 0.0;
  /// Extra attempts for jobs that hit the max_states safety bound.
  std::size_t max_retries = 1;
  /// First backoff sleep; doubles per retry.
  double retry_backoff_seconds = 0.01;
  /// Multiplier applied to options.max_states on every retry (>= 1).
  double retry_state_budget_factor = 1.0;
  /// Result cache consulted before running and filled after; optional.
  ResultCache* cache = nullptr;
  /// Metrics registry; nullptr means the global registry.
  Registry* registry = nullptr;
  /// Exploration lanes applied to jobs that leave
  /// AnalysisOptions::derive_threads at 0.  Defaults to 1 (sequential per
  /// job): the scheduler already runs whole jobs concurrently, so lane
  /// parallelism inside each derivation would oversubscribe the pool.
  std::size_t derive_threads = 1;
};

namespace detail {
struct JobState;
}  // namespace detail

/// The client-side view of a submitted job.  Copyable; all copies refer to
/// the same job.
class JobHandle {
 public:
  JobStatus status() const;
  /// Requests cancellation; a no-op once the job is terminal.
  void cancel();
  /// Live accounting snapshot from the job's resource budget: states and
  /// bytes charged by derivation, breadth-first levels completed, solver
  /// iterations.  Safe to poll while the job runs.
  util::BudgetUsage progress() const;
  /// Blocks until the job is terminal, then returns a copy of its result
  /// (a copy so that waiting on a temporary handle is safe).
  JobResult wait();

 private:
  friend class Scheduler;
  explicit JobHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<detail::JobState> state_;
};

class Scheduler {
 public:
  explicit Scheduler(const SchedulerOptions& options = {});
  /// Drains the queue (every job reaches a terminal status), then joins.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Enqueues a job, blocking while the service is at queue_capacity.
  JobHandle submit(JobRequest request);

  /// Jobs submitted but not yet terminal.
  std::size_t in_flight() const;

  std::size_t worker_count() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace choreo::service
