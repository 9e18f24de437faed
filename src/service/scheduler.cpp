#include "service/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "pepa/parser.hpp"
#include "sweep/rebind.hpp"
#include "uml/layout.hpp"
#include "uml/xmi.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"
#include "xml/parse.hpp"
#include "xml/write.hpp"

namespace choreo::service {

namespace {

using Clock = std::chrono::steady_clock;

/// The retryable failure: a resource bound (max_states or a byte budget)
/// tripped — typed since the budget taxonomy landed, so no string matching.
bool is_state_bound_failure(const util::Error& error) {
  return dynamic_cast<const util::BudgetError*>(&error) != nullptr;
}

/// What the job's Budget can reconstruct of an interrupted derivation:
/// discovered states, levels and peak frontier (dedup hits and wall clock
/// stay with the abandoned DeriveStats and are reported as zero).
pepa::DeriveStats partial_stats(const util::BudgetUsage& usage) {
  pepa::DeriveStats stats;
  stats.levels = usage.levels;
  stats.peak_frontier = usage.peak_frontier;
  stats.dedup_misses = usage.states;
  return stats;
}

/// Exception-safe +delta/-delta on a gauge; sweep evaluation can be
/// interrupted mid-flight and the in-flight gauge must not leak.
class GaugeDelta {
 public:
  GaugeDelta(Gauge& gauge, std::int64_t delta) : gauge_(gauge), delta_(delta) {
    gauge_.add(delta_);
  }
  ~GaugeDelta() { gauge_.add(-delta_); }
  GaugeDelta(const GaugeDelta&) = delete;
  GaugeDelta& operator=(const GaugeDelta&) = delete;

 private:
  Gauge& gauge_;
  std::int64_t delta_;
};

std::string hex64(std::uint64_t value) {
  std::ostringstream stream;
  stream << std::hex << value;
  return stream.str();
}

/// Per sweep point: the one-graph entry the cache held for it, if any.
using CachedPoints = std::vector<std::optional<CachedAnalysis>>;

/// The points of `spec` that `cached` has no result for, as a zipped spec
/// over their coordinates (the spec itself when nothing hit), so a partial
/// miss still derives the state space once.
sweep::SweepSpec missed_points(const sweep::SweepSpec& spec,
                               const CachedPoints& cached) {
  if (std::none_of(cached.begin(), cached.end(),
                   [](const auto& point) { return point.has_value(); })) {
    return spec;
  }
  sweep::SweepSpec missed;
  missed.combine = sweep::Combine::kZip;
  for (const std::string& name : spec.parameter_names()) {
    missed.axes.push_back(sweep::Axis{name, {}});
  }
  for (std::size_t p = 0; p < cached.size(); ++p) {
    if (cached[p]) continue;
    const std::vector<double> values = spec.point(p);
    for (std::size_t a = 0; a < values.size(); ++a) {
      missed.axes[a].values.push_back(values[a]);
    }
  }
  return missed;
}

}  // namespace

namespace detail {

struct JobState {
  JobRequest request;
  Clock::time_point submitted;
  /// The job's resource governor: deadline, cancellation flag and
  /// state/byte accounting, threaded through AnalysisOptions into the
  /// derivation and solver loops.
  util::Budget budget;

  mutable std::mutex mutex;
  std::condition_variable terminal_cv;
  JobStatus status = JobStatus::kQueued;  // guarded by mutex
  JobResult result;                       // valid once status is terminal
};

}  // namespace detail

using detail::JobState;

JobStatus JobHandle::status() const {
  std::lock_guard lock(state_->mutex);
  return state_->status;
}

void JobHandle::cancel() { state_->budget.request_cancel(); }

util::BudgetUsage JobHandle::progress() const {
  return state_->budget.usage();
}

JobResult JobHandle::wait() {
  std::unique_lock lock(state_->mutex);
  state_->terminal_cv.wait(lock,
                           [&] { return is_terminal(state_->status); });
  return state_->result;
}

struct Scheduler::Impl {
  explicit Impl(const SchedulerOptions& scheduler_options)
      : options(scheduler_options),
        registry(scheduler_options.registry ? *scheduler_options.registry
                                            : Registry::global()),
        submitted_total(registry.counter("choreo_jobs_submitted_total",
                                         "Jobs accepted by the scheduler")),
        done_total(registry.counter("choreo_jobs_done_total",
                                    "Jobs finished successfully")),
        failed_total(registry.counter("choreo_jobs_failed_total",
                                      "Jobs finished with an error")),
        cancelled_total(registry.counter("choreo_jobs_cancelled_total",
                                         "Jobs cancelled by the client")),
        timed_out_total(registry.counter("choreo_jobs_timed_out_total",
                                         "Jobs that exceeded their deadline")),
        retries_total(registry.counter(
            "choreo_job_retries_total",
            "Re-runs after the max_states safety bound tripped")),
        queue_depth(registry.gauge("choreo_queue_depth",
                                   "Jobs waiting for a worker")),
        running_gauge(registry.gauge("choreo_jobs_running",
                                     "Jobs currently executing")),
        queue_seconds(registry.histogram("choreo_job_queue_seconds",
                                         "Submission-to-execution wait")),
        run_seconds(registry.histogram("choreo_job_run_seconds",
                                       "Execution time incl. retries")),
        total_seconds(registry.histogram("choreo_job_seconds",
                                         "Submission-to-terminal latency")),
        extract_seconds(registry.histogram("choreo_stage_extract_seconds",
                                           "Model extraction per job")),
        derive_seconds(registry.histogram(
            "choreo_stage_derive_seconds",
            "State-space exploration per job")),
        solve_seconds(registry.histogram("choreo_stage_solve_seconds",
                                         "CTMC solution per job")),
        reflect_seconds(registry.histogram(
            "choreo_stage_reflect_seconds",
            "Measure computation + reflection per job")),
        explore_rate(registry.histogram(
            "choreo_explore_states_per_second",
            "States discovered per exploration second, per job",
            {1e2, 1e3, 1e4, 1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7})),
        explored_states_total(registry.counter(
            "choreo_explored_states_total",
            "States/markings discovered by exploration")),
        dedup_hits_total(registry.counter(
            "choreo_explore_dedup_hits_total",
            "Transition targets that resolved to an existing state")),
        dedup_misses_total(registry.counter(
            "choreo_explore_dedup_misses_total",
            "Transition targets that discovered a new state")),
        peak_frontier(registry.gauge(
            "choreo_explore_peak_frontier",
            "Largest breadth-first frontier seen by any exploration")),
        interrupted_in_stage_total(registry.counter(
            "choreo_jobs_interrupted_in_stage_total",
            "Jobs stopped inside a pipeline stage (derive/solve/backoff) "
            "rather than at a stage boundary")),
        budget_peak_state_bytes(registry.gauge(
            "choreo_budget_peak_state_bytes",
            "Largest state-storage footprint any job's budget recorded")),
        aggregate_blocks(registry.gauge(
            "choreo_aggregate_blocks",
            "Largest strong-equivalence quotient (block count) any "
            "exact-aggregation job derived")),
        fluid_fallbacks_total(registry.counter(
            "choreo_fluid_fallbacks_total",
            "Retries that downgraded a job to the fluid (ODE) backend")),
        fluid_steps_total(registry.counter(
            "choreo_fluid_steps_total",
            "Accepted ODE steps across fluid solves")),
        fluid_rejected_steps_total(registry.counter(
            "choreo_fluid_rejected_steps_total",
            "Rejected ODE step attempts across fluid solves")),
        fluid_solve_seconds(registry.histogram(
            "choreo_fluid_solve_seconds",
            "Mean-field ODE solve time, per job that used the fluid "
            "backend")),
        sweep_jobs_total(registry.counter(
            "choreo_sweep_jobs_total",
            "Design-space sweep jobs executed")),
        sweep_points_total(registry.counter(
            "choreo_sweep_points_total",
            "Sweep points requested across all sweep jobs")),
        sweep_point_cache_hits_total(registry.counter(
            "choreo_sweep_point_cache_hits_total",
            "Sweep points served from the per-point result cache")),
        sweep_derivations_total(registry.counter(
            "choreo_sweep_derivations_total",
            "State-space derivations performed by sweep jobs")),
        sweep_points_in_flight(registry.gauge(
            "choreo_sweep_points_in_flight",
            "Sweep points currently being evaluated")),
        pool(scheduler_options.workers != 0
                 ? scheduler_options.workers
                 : std::max<std::size_t>(
                       1, std::thread::hardware_concurrency())) {}

  void run_job(const std::shared_ptr<JobState>& state);
  void execute(const std::shared_ptr<JobState>& state, JobResult& result);
  /// Sleeps `seconds` in small slices, aborting on cancel/deadline.
  void backoff_sleep(const JobState& state, double seconds) const;
  void finish(const std::shared_ptr<JobState>& state, JobResult result);

  SchedulerOptions options;
  Registry& registry;

  Counter& submitted_total;
  Counter& done_total;
  Counter& failed_total;
  Counter& cancelled_total;
  Counter& timed_out_total;
  Counter& retries_total;
  Gauge& queue_depth;
  Gauge& running_gauge;
  Histogram& queue_seconds;
  Histogram& run_seconds;
  Histogram& total_seconds;
  Histogram& extract_seconds;
  Histogram& derive_seconds;
  Histogram& solve_seconds;
  Histogram& reflect_seconds;
  Histogram& explore_rate;
  Counter& explored_states_total;
  Counter& dedup_hits_total;
  Counter& dedup_misses_total;
  Gauge& peak_frontier;
  Counter& interrupted_in_stage_total;
  Gauge& budget_peak_state_bytes;
  Gauge& aggregate_blocks;
  Counter& fluid_fallbacks_total;
  Counter& fluid_steps_total;
  Counter& fluid_rejected_steps_total;
  Histogram& fluid_solve_seconds;
  Counter& sweep_jobs_total;
  Counter& sweep_points_total;
  Counter& sweep_point_cache_hits_total;
  Counter& sweep_derivations_total;
  Gauge& sweep_points_in_flight;

  mutable std::mutex flight_mutex;
  std::condition_variable space_cv;
  std::size_t in_flight = 0;

  /// Declared last: destroyed (drained and joined) first, while the
  /// members its tasks touch are still alive.
  util::ThreadPool pool;
};

void Scheduler::Impl::backoff_sleep(const JobState& state,
                                    double seconds) const {
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < until) {
    state.budget.check("backoff");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void Scheduler::Impl::execute(const std::shared_ptr<JobState>& state,
                              JobResult& result) {
  const JobRequest& request = state->request;
  ResultCache* const cache = options.cache;
  // Failures report the requested level; a successful run overwrites this
  // with the level the winning attempt actually used, a cache hit with the
  // level stored alongside the entry.
  result.aggregation_used = request.options.aggregation;

  // The kind-specific inputs and cache probe.  A pipeline job opens the
  // Figure-4 pipeline so that the cache sits between the Poseidon pre- and
  // postprocessor: it keys and stores the reflected *model* half, and
  // every requester, hit or miss, gets their own layout merged back.  A
  // sweep job keys each point by the model's rate-stripped structure and
  // the point's rate fingerprint, so overlapping sweeps share entries
  // point-by-point however their specs slice the space.
  std::vector<std::string> keys;  // the project's key, or one per point
  uml::SplitProject split;
  xml::Document reflected;
  std::optional<pepa::Model> sweep_model;
  CachedPoints cached;  // per point: its cached result, if any
  sweep::SweepTable table;
  if (!request.sweep) {
    split = uml::preprocess(request.input_path
                                ? xml::parse_file(*request.input_path)
                                : request.project);
    if (cache != nullptr) {
      keys.push_back(cache_key_for_model(split.model, request.options));
      if (std::optional<CachedAnalysis> hit = cache->get(keys[0])) {
        result.report = std::move(hit->report);
        reflected = std::move(hit->reflected_model);
        result.aggregation_used = hit->aggregation;
        result.from_cache = true;
      }
    }
  } else {
    sweep_jobs_total.increment();
    if (!request.input_path) throw util::Error("a sweep job needs input_path");
    const sweep::SweepSpec& spec = *request.sweep;
    spec.validate();
    sweep_model.emplace(pepa::parse_model_file(*request.input_path));
    cached.resize(spec.point_count());
    if (cache != nullptr) {
      const sweep::RateRebinder rebinder(*sweep_model, spec.parameter_names());
      table.structure = rebinder.structure();
      const std::string suffix = options_key(request.options);
      for (std::size_t p = 0; p < cached.size(); ++p) {
        keys.push_back(util::msg(
            "sweep:", hex64(table.structure), ":",
            hex64(rebinder.rate_fingerprint(spec.point(p))), ":", suffix));
        std::optional<CachedAnalysis> hit = cache->get(keys[p]);
        if (hit && !hit->report.activity_graphs.empty()) {
          cached[p] = std::move(hit);
        }
      }
    }
    result.from_cache =
        std::all_of(cached.begin(), cached.end(),
                    [](const auto& point) { return point.has_value(); });
  }

  if (!result.from_cache) {
    chor::AnalysisOptions attempt_options = request.options;
    // The governor rides inside AnalysisOptions: the pipeline's stage
    // boundaries call the client hook then budget->check(), and the
    // derivation/solver loops check the same budget from within a stage.
    attempt_options.budget = &state->budget;
    if (attempt_options.derive_threads == 0) {
      attempt_options.derive_threads = options.derive_threads;
    }
    double backoff = options.retry_backoff_seconds;
    for (std::size_t attempt = 0;; ++attempt) {
      ++result.attempts;
      try {
        // The evaluate step, the only other kind-specific part.  A failed
        // attempt leaves the model partially annotated (or its arena
        // holding the abandoned derivation's terms), so each retry starts
        // from a pristine model.
        if (request.sweep) {
          if (attempt > 0) {
            sweep_model.emplace(pepa::parse_model_file(*request.input_path));
          }
          const sweep::SweepSpec missed = missed_points(*request.sweep, cached);
          GaugeDelta in_flight(
              sweep_points_in_flight,
              static_cast<std::int64_t>(missed.point_count()));
          table = sweep::sweep(*sweep_model, missed,
                               sweep_options(attempt_options));
        } else {
          uml::Model model = uml::from_xmi(split.model);
          result.report = chor::analyse(model, attempt_options);
          reflected = uml::to_xmi(model);
        }
        result.aggregation_used = attempt_options.aggregation;
        break;
      } catch (const util::InterruptedError&) {
        throw;  // cancellation/deadline is terminal, never a retry
      } catch (const util::Error& error) {
        if (attempt < options.max_retries && is_state_bound_failure(error) &&
            attempt_options.aggregation != chor::Aggregation::kFluid) {
          retries_total.increment();
          backoff_sleep(*state, backoff);
          backoff *= 2.0;
          // One rung down the aggregation ladder (optionally with a scaled
          // state budget): first the exact strong-equivalence quotient,
          // then the fluid mean-field ODE, which expands no state space
          // at all and so survives any population size.
          if (attempt_options.aggregation == chor::Aggregation::kNone) {
            attempt_options.aggregation = chor::Aggregation::kExact;
          } else {
            attempt_options.aggregation = chor::Aggregation::kFluid;
            fluid_fallbacks_total.increment();
          }
          attempt_options.max_states = static_cast<std::size_t>(
              static_cast<double>(attempt_options.max_states) *
              std::max(1.0, options.retry_state_budget_factor));
          continue;
        }
        result.status = JobStatus::kFailed;
        result.error = error.what();
        return;
      }
    }
  }

  if (request.sweep) {
    // Evaluated rows take the missed positions in spec order; cached
    // points fill the rest (and, when every point hit, the metadata).  The
    // job reports the deepest level any of its rows was produced at.
    const sweep::SweepSpec& spec = *request.sweep;
    std::vector<sweep::SweepRow> rows(cached.size());
    std::size_t next = 0;
    for (std::size_t p = 0; p < rows.size(); ++p) {
      if (!cached[p]) {
        rows[p] = std::move(table.rows[next++]);
        continue;
      }
      rows[p].values = spec.point(p);
      for (const auto& [name, value] :
           cached[p]->report.activity_graphs.front().throughputs) {
        rows[p].measures.push_back(value);
      }
      ++table.points_from_cache;
    }
    table.rows = std::move(rows);
    if (result.from_cache) {
      const chor::ActivityGraphResult& first =
          cached[0]->report.activity_graphs.front();
      table.axes = spec.parameter_names();
      for (const auto& [name, value] : first.throughputs) {
        table.measures.push_back(name);
      }
      table.state_count = first.marking_count;
      table.transition_count = first.transition_count;
    }
    // A one-graph summary, so report consumers (the batch table's
    // markings column, the stage fold below) see sweep jobs through the
    // same lens as pipeline jobs; point evaluation is its solve stage.
    chor::ActivityGraphResult summary;
    summary.graph_name = *request.input_path;
    summary.marking_count = table.state_count;
    summary.transition_count = table.transition_count;
    summary.timings.derive_stats = table.derive_stats;
    summary.timings.solve_seconds = table.seconds - table.derive_stats.seconds;
    result.report.activity_graphs = {std::move(summary)};
    sweep_points_total.increment(cached.size());
    sweep_point_cache_hits_total.increment(table.points_from_cache);
    sweep_derivations_total.increment(table.derivations);
  } else {
    result.annotated_xmi =
        xml::to_string(uml::postprocess(reflected, split.layout));
  }

  if (!result.from_cache) {
    for (const auto& graph : result.report.activity_graphs) {
      result.timings.stages += graph.timings;
    }
    for (const auto& machines : result.report.state_machines) {
      result.timings.stages += machines.timings;
    }
    const chor::StageTimings& stages = result.timings.stages;
    extract_seconds.observe(stages.extract_seconds);
    derive_seconds.observe(stages.derive_seconds());
    solve_seconds.observe(stages.solve_seconds);
    reflect_seconds.observe(stages.reflect_seconds);
    explored_states_total.increment(stages.derive_stats.dedup_misses);
    dedup_hits_total.increment(stages.derive_stats.dedup_hits);
    dedup_misses_total.increment(stages.derive_stats.dedup_misses);
    peak_frontier.record_max(
        static_cast<std::int64_t>(stages.derive_stats.peak_frontier));
    if (result.aggregation_used == chor::Aggregation::kExact) {
      // Quotient-direct derivation: dedup_misses IS the block count.
      aggregate_blocks.record_max(
          static_cast<std::int64_t>(stages.derive_stats.dedup_misses));
    }
    if (stages.fluid_steps > 0 || stages.fluid_rejected_steps > 0) {
      fluid_steps_total.increment(stages.fluid_steps);
      fluid_rejected_steps_total.increment(stages.fluid_rejected_steps);
      fluid_solve_seconds.observe(stages.solve_seconds);
    }
    if (stages.derive_seconds() > 0.0) {
      explore_rate.observe(
          static_cast<double>(stages.derive_stats.dedup_misses) /
          stages.derive_seconds());
    }
    if (cache != nullptr && !request.sweep) {
      cache->put(keys[0], CachedAnalysis{result.report, std::move(reflected),
                                         result.aggregation_used});
    } else if (cache != nullptr) {
      // Every evaluated point is an entry of its own: a one-graph report
      // of the point's measures.
      for (std::size_t p = 0; p < keys.size(); ++p) {
        if (cached[p] || !table.rows[p].ok()) continue;
        chor::ActivityGraphResult point;
        point.graph_name = *request.input_path;
        point.marking_count = table.state_count;
        point.transition_count = table.transition_count;
        for (std::size_t m = 0; m < table.measures.size(); ++m) {
          point.throughputs.emplace_back(table.measures[m],
                                         table.rows[p].measures[m]);
        }
        CachedAnalysis entry;
        entry.report.activity_graphs.push_back(std::move(point));
        entry.aggregation = result.aggregation_used;
        cache->put(keys[p], entry);
      }
    }
  }
  for (const std::optional<CachedAnalysis>& point : cached) {
    if (point) {
      result.aggregation_used =
          std::max(result.aggregation_used, point->aggregation);
    }
  }

  result.status = JobStatus::kDone;
  if (request.output_path) {
    std::string table_text;
    if (request.sweep) {
      table_text = util::ends_with(*request.output_path, ".json")
                       ? table.to_json()
                       : table.to_csv();
    }
    const std::string& bytes =
        request.sweep ? table_text : result.annotated_xmi;
    std::ofstream stream(*request.output_path, std::ios::binary);
    if (!stream || !(stream << bytes) || !stream.flush()) {
      result.status = JobStatus::kFailed;
      result.error = util::msg("cannot write '", *request.output_path, "'");
    }
  }
  if (request.sweep) result.sweep = std::move(table);
}

void Scheduler::Impl::run_job(const std::shared_ptr<JobState>& state) {
  queue_depth.add(-1);
  const Clock::time_point started = Clock::now();
  JobResult result;
  result.timings.queued_seconds =
      std::chrono::duration<double>(started - state->submitted).count();
  queue_seconds.observe(result.timings.queued_seconds);

  if (state->budget.cancel_requested()) {
    result.status = JobStatus::kCancelled;
    result.error = "cancelled before running";
    finish(state, std::move(result));
    return;
  }
  if (state->budget.deadline_passed()) {
    result.status = JobStatus::kTimedOut;
    result.error = "deadline passed while queued";
    finish(state, std::move(result));
    return;
  }

  {
    std::lock_guard lock(state->mutex);
    state->status = JobStatus::kRunning;
  }
  running_gauge.add(1);
  try {
    execute(state, result);
  } catch (const util::InterruptedError& error) {
    const bool cancelled =
        error.reason() == util::InterruptedError::Reason::kCancelled;
    result.status = cancelled ? JobStatus::kCancelled : JobStatus::kTimedOut;
    result.error = cancelled ? "cancelled while running"
                             : "deadline passed while running";
    // Interruptions observed inside a stage (derive/solve/backoff) are the
    // ones the pre-budget service could not honour until the stage ended.
    if (error.stage() != "checkpoint") interrupted_in_stage_total.increment();
  } catch (const std::exception& error) {
    result.status = JobStatus::kFailed;
    result.error = error.what();
  }
  running_gauge.add(-1);
  const util::BudgetUsage usage = state->budget.usage();
  result.partial_derive_stats = partial_stats(usage);
  budget_peak_state_bytes.record_max(
      static_cast<std::int64_t>(usage.peak_state_bytes));
  result.timings.run_seconds =
      std::chrono::duration<double>(Clock::now() - started).count();
  run_seconds.observe(result.timings.run_seconds);
  finish(state, std::move(result));
}

void Scheduler::Impl::finish(const std::shared_ptr<JobState>& state,
                             JobResult result) {
  switch (result.status) {
    case JobStatus::kDone: done_total.increment(); break;
    case JobStatus::kFailed: failed_total.increment(); break;
    case JobStatus::kCancelled: cancelled_total.increment(); break;
    case JobStatus::kTimedOut: timed_out_total.increment(); break;
    case JobStatus::kQueued:
    case JobStatus::kRunning: CHOREO_ASSERT(false);
  }
  total_seconds.observe(
      std::chrono::duration<double>(Clock::now() - state->submitted).count());
  // Release the backpressure slot before signalling the waiter, so that
  // once every handle's wait() returned, in_flight() reads 0.
  {
    std::lock_guard lock(flight_mutex);
    --in_flight;
  }
  space_cv.notify_one();
  {
    std::lock_guard lock(state->mutex);
    state->status = result.status;
    state->result = std::move(result);
  }
  state->terminal_cv.notify_all();
}

Scheduler::Scheduler(const SchedulerOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}

Scheduler::~Scheduler() = default;

JobHandle Scheduler::submit(JobRequest request) {
  if (request.name.empty()) {
    request.name = request.input_path ? *request.input_path : "<inline>";
  }
  auto state = std::make_shared<JobState>();
  state->request = std::move(request);

  {
    std::unique_lock lock(impl_->flight_mutex);
    impl_->space_cv.wait(lock, [&] {
      return impl_->in_flight < impl_->options.queue_capacity;
    });
    ++impl_->in_flight;
  }
  state->submitted = Clock::now();
  const double timeout = state->request.timeout_seconds < 0
                             ? impl_->options.default_timeout_seconds
                             : state->request.timeout_seconds;
  state->budget.set_deadline_seconds(timeout);
  impl_->submitted_total.increment();
  impl_->queue_depth.add(1);
  impl_->pool.submit([impl = impl_.get(), state] { impl->run_job(state); });
  return JobHandle(state);
}

std::size_t Scheduler::in_flight() const {
  std::lock_guard lock(impl_->flight_mutex);
  return impl_->in_flight;
}

std::size_t Scheduler::worker_count() const {
  return impl_->pool.worker_count();
}

}  // namespace choreo::service
