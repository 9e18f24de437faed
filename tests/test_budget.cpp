// Resource governance inside derive/solve: the util::Budget object, its
// cooperative checkpoints in the BFS and solver loops, and the service
// semantics built on it (mid-derive cancellation, deadline enforcement,
// partial derivation statistics, the interrupted/peak-bytes metrics).
//
// Determinism contract: governance checks sit at level boundaries only, so
// an attached budget must never change a single output byte of an
// uninterrupted run, at any lane count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "choreographer/extract_activity.hpp"
#include "choreographer/extract_statechart.hpp"
#include "choreographer/paper_models.hpp"
#include "choreographer/pipeline.hpp"
#include "ctmc/steady_state.hpp"
#include "ctmc/transient.hpp"
#include "pepa/printer.hpp"
#include "pepa/semantics.hpp"
#include "pepa/statespace.hpp"
#include "pepanet/netsemantics.hpp"
#include "pepanet/netstatespace.hpp"
#include "service/metrics.hpp"
#include "service/scheduler.hpp"
#include "uml/xmi.hpp"
#include "util/budget.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "xml/write.hpp"

namespace {

using namespace choreo;

TEST(Budget, CheckPassesOnAFreshBudget) {
  util::Budget budget;
  EXPECT_NO_THROW(budget.check("derive"));
  EXPECT_FALSE(budget.cancel_requested());
  EXPECT_FALSE(budget.deadline_passed());
}

TEST(Budget, CancellationMakesCheckThrowWithStage) {
  util::Budget budget;
  budget.request_cancel();
  EXPECT_TRUE(budget.cancel_requested());
  try {
    budget.check("derive");
    FAIL() << "expected InterruptedError";
  } catch (const util::InterruptedError& error) {
    EXPECT_EQ(error.reason(), util::InterruptedError::Reason::kCancelled);
    EXPECT_EQ(error.stage(), "derive");
    EXPECT_NE(std::string(error.what()).find("cancellation"),
              std::string::npos);
  }
}

TEST(Budget, PastDeadlineMakesCheckThrow) {
  util::Budget budget;
  budget.set_deadline(util::Budget::Clock::now() -
                      std::chrono::milliseconds(1));
  EXPECT_TRUE(budget.deadline_passed());
  try {
    budget.check("solve");
    FAIL() << "expected InterruptedError";
  } catch (const util::InterruptedError& error) {
    EXPECT_EQ(error.reason(), util::InterruptedError::Reason::kDeadline);
    EXPECT_EQ(error.stage(), "solve");
  }
}

TEST(Budget, NonPositiveDeadlineSecondsDisablesTheDeadline) {
  util::Budget budget;
  budget.set_deadline_seconds(-1.0);
  EXPECT_FALSE(budget.deadline_passed());
  budget.set_deadline_seconds(0.0);
  EXPECT_FALSE(budget.deadline_passed());
  budget.set_deadline_seconds(3600.0);
  EXPECT_FALSE(budget.deadline_passed());
  EXPECT_NO_THROW(budget.check("derive"));
}

TEST(Budget, DeadlineBeyondTheClockRangeNeverPasses) {
  // 1e12 s is past the clock's nanosecond range; the cast used to wrap it
  // into a deadline already passed.
  for (const double seconds : {1e9, 1e12, 1e300, std::nan("")}) {
    util::Budget budget;
    budget.set_deadline_seconds(seconds);
    EXPECT_FALSE(budget.deadline_passed()) << seconds;
    EXPECT_NO_THROW(budget.check("derive")) << seconds;
  }
}

TEST(Budget, ExhaustedByteBudgetThrowsBudgetError) {
  util::Budget budget;
  budget.set_max_state_bytes(100);
  budget.charge_states(10, 101);
  // BudgetError derives from ModelError so pre-taxonomy catch sites (and
  // the scheduler's retry classifier) keep working.
  EXPECT_THROW(budget.check("derive"), util::BudgetError);
  try {
    budget.check("derive");
    FAIL() << "expected BudgetError";
  } catch (const util::ModelError& error) {
    EXPECT_NE(std::string(error.what()).find("state-space explosion"),
              std::string::npos);
  }
}

TEST(Budget, UsageCountersAccumulate) {
  util::Budget budget;
  budget.charge_states(3, 300);
  budget.charge_states(2, 200);
  budget.release_state_bytes(250);
  budget.note_level(5);
  budget.note_level(9);
  budget.note_level(2);
  budget.charge_solver_iterations(8);
  budget.charge_solver_iterations(8);
  const util::BudgetUsage usage = budget.usage();
  EXPECT_EQ(usage.states, 5u);
  EXPECT_EQ(usage.state_bytes, 250u);
  EXPECT_EQ(usage.peak_state_bytes, 500u);
  EXPECT_EQ(usage.levels, 3u);
  EXPECT_EQ(usage.peak_frontier, 9u);
  EXPECT_EQ(usage.solver_iterations, 16u);
}

TEST(Budget, ConcurrentChargesSumExactly) {
  util::Budget budget;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kCharges = 1000;
  std::vector<std::thread> chargers;
  chargers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    chargers.emplace_back([&] {
      for (std::size_t i = 0; i < kCharges; ++i) {
        budget.charge_states(1, 16);
        budget.note_level(i + 1);
      }
    });
  }
  for (std::thread& charger : chargers) charger.join();
  const util::BudgetUsage usage = budget.usage();
  EXPECT_EQ(usage.states, kThreads * kCharges);
  EXPECT_EQ(usage.state_bytes, kThreads * kCharges * 16);
  EXPECT_EQ(usage.peak_state_bytes, usage.state_bytes);
  EXPECT_EQ(usage.levels, kThreads * kCharges);
  EXPECT_EQ(usage.peak_frontier, kCharges);
}

// ---------------------------------------------------------------------------
// Derivation loops.

pepa::StateSpace derive_tomcat(std::size_t clients,
                               pepa::DeriveOptions options,
                               chor::StatechartExtraction& extraction) {
  chor::TomcatParams params;
  params.clients = clients;
  const uml::Model model = chor::tomcat_model(false, params);
  extraction = chor::extract_state_machines(model);
  pepa::Semantics semantics(extraction.model.arena());
  return pepa::StateSpace::derive(semantics, extraction.model.system(),
                                  options);
}

TEST(BudgetDerive, CancelledBudgetStopsWithinTheFirstLevel) {
  util::Budget budget;
  budget.request_cancel();
  pepa::DeriveOptions options;
  options.budget = &budget;
  chor::StatechartExtraction extraction;
  try {
    derive_tomcat(3, options, extraction);
    FAIL() << "expected InterruptedError";
  } catch (const util::InterruptedError& error) {
    EXPECT_EQ(error.reason(), util::InterruptedError::Reason::kCancelled);
    EXPECT_EQ(error.stage(), "derive");
  }
  // The interruption is observed at a level boundary: the level was noted
  // (so partial statistics exist) but exactly one level was opened.
  const util::BudgetUsage usage = budget.usage();
  EXPECT_EQ(usage.levels, 1u);
  EXPECT_EQ(usage.peak_frontier, 1u);
  EXPECT_GE(usage.states, 1u);  // the initial state was charged
}

TEST(BudgetDerive, PastDeadlineStopsDerivation) {
  util::Budget budget;
  budget.set_deadline(util::Budget::Clock::now() - std::chrono::seconds(1));
  pepa::DeriveOptions options;
  options.budget = &budget;
  chor::StatechartExtraction extraction;
  try {
    derive_tomcat(3, options, extraction);
    FAIL() << "expected InterruptedError";
  } catch (const util::InterruptedError& error) {
    EXPECT_EQ(error.reason(), util::InterruptedError::Reason::kDeadline);
    EXPECT_EQ(error.stage(), "derive");
  }
}

TEST(BudgetDerive, ByteBudgetTripsMidDeriveAsBudgetError) {
  util::Budget budget;
  budget.set_max_state_bytes(200);  // the 68-state space needs far more
  pepa::DeriveOptions options;
  options.budget = &budget;
  chor::StatechartExtraction extraction;
  EXPECT_THROW(derive_tomcat(3, options, extraction), util::BudgetError);
  EXPECT_GT(budget.usage().peak_state_bytes, 200u);
}

TEST(BudgetDerive, MaxStatesAbortChargesEveryAppendedState) {
  // Regression: when the max_states bound trips mid-serial-phase, states
  // already appended in the abandoned level used to go uncharged, so
  // JobHandle::progress() and partial stats under-reported.  The unwind
  // path must charge exactly the states that exist when the error leaves.
  util::Budget budget;
  pepa::DeriveOptions options;
  options.budget = &budget;
  options.max_states = 5;  // the tomcat(3) space has 68 states
  chor::StatechartExtraction extraction;
  EXPECT_THROW(derive_tomcat(3, options, extraction), util::BudgetError);
  const util::BudgetUsage usage = budget.usage();
  EXPECT_EQ(usage.states, 5u);
  EXPECT_GT(usage.state_bytes, 0u);
}

TEST(BudgetDerive, UninterruptedDeriveMirrorsStatsIntoTheBudget) {
  util::Budget budget;
  pepa::DeriveOptions options;
  options.budget = &budget;
  chor::StatechartExtraction extraction;
  const pepa::StateSpace space = derive_tomcat(3, options, extraction);
  const util::BudgetUsage usage = budget.usage();
  EXPECT_EQ(usage.states, space.state_count());
  EXPECT_EQ(usage.levels, space.stats().levels);
  EXPECT_EQ(usage.peak_frontier, space.stats().peak_frontier);
  EXPECT_GT(usage.peak_state_bytes, 0u);
  EXPECT_EQ(usage.state_bytes, usage.peak_state_bytes);
}

TEST(BudgetDerive, NetDerivationHonoursTheBudget) {
  chor::PdaParams params;
  params.transmitters = 4;
  uml::Model model = chor::pda_handover_model(params);
  auto extraction = chor::extract_activity_graph(model.activity_graphs()[0]);
  pepanet::NetSemantics semantics(extraction.net);

  util::Budget cancelled;
  cancelled.request_cancel();
  pepanet::NetDeriveOptions options;
  options.budget = &cancelled;
  EXPECT_THROW(pepanet::NetStateSpace::derive(semantics, options),
               util::InterruptedError);
  EXPECT_EQ(cancelled.usage().levels, 1u);
  EXPECT_GE(cancelled.usage().states, 1u);

  util::Budget generous;
  pepanet::NetDeriveOptions governed;
  governed.budget = &generous;
  const auto space = pepanet::NetStateSpace::derive(semantics, governed);
  EXPECT_EQ(generous.usage().states, space.marking_count());
  EXPECT_EQ(generous.usage().levels, space.stats().levels);
}

/// Lane-count-independent fingerprint (printed terms + exact transitions).
std::vector<std::string> fingerprint(const pepa::ProcessArena& arena,
                                     const pepa::StateSpace& space) {
  std::vector<std::string> lines;
  lines.reserve(space.state_count() + space.transitions().size());
  for (std::size_t s = 0; s < space.state_count(); ++s) {
    lines.push_back(pepa::to_string(arena, space.state_term(s)));
  }
  for (const pepa::StateTransition& t : space.transitions()) {
    lines.push_back(std::to_string(t.source) + "-" +
                    arena.action_name(t.action) + "@" +
                    std::to_string(t.rate) + "->" + std::to_string(t.target));
  }
  return lines;
}

TEST(BudgetDerive, GovernedDeriveIsIdenticalAtEveryLaneCount) {
  chor::StatechartExtraction ungoverned_extraction;
  const pepa::StateSpace ungoverned =
      derive_tomcat(3, {}, ungoverned_extraction);
  const std::vector<std::string> expected =
      fingerprint(ungoverned_extraction.model.arena(), ungoverned);

  util::ThreadPool pool(4);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::Budget budget;
    budget.set_deadline_seconds(3600.0);
    pepa::DeriveOptions options;
    options.threads = threads;
    options.pool = threads > 1 ? &pool : nullptr;
    options.budget = &budget;
    chor::StatechartExtraction extraction;
    const pepa::StateSpace space = derive_tomcat(3, options, extraction);
    EXPECT_EQ(fingerprint(extraction.model.arena(), space), expected)
        << "lane count " << threads;
  }
}

// ---------------------------------------------------------------------------
// Solver loops.

TEST(BudgetSolve, IterativeSolversObserveCancellation) {
  chor::StatechartExtraction extraction;
  const pepa::StateSpace space = derive_tomcat(3, {}, extraction);
  for (const ctmc::Method method :
       {ctmc::Method::kJacobi, ctmc::Method::kGaussSeidel,
        ctmc::Method::kPower}) {
    util::Budget budget;
    budget.request_cancel();
    ctmc::SolveOptions options;
    options.method = method;
    options.budget = &budget;
    try {
      ctmc::steady_state(space.generator(), options);
      FAIL() << "expected InterruptedError from method "
             << ctmc::method_name(method);
    } catch (const util::InterruptedError& error) {
      EXPECT_EQ(error.stage(), "solve");
    }
    EXPECT_GT(budget.usage().solver_iterations, 0u);
  }
}

TEST(BudgetSolve, GovernedSolveMatchesUngovernedExactly) {
  chor::StatechartExtraction extraction;
  const pepa::StateSpace space = derive_tomcat(3, {}, extraction);
  const auto reference = ctmc::steady_state(space.generator());

  util::Budget budget;
  budget.set_deadline_seconds(3600.0);
  ctmc::SolveOptions options;
  options.budget = &budget;
  const auto governed = ctmc::steady_state(space.generator(), options);
  ASSERT_EQ(governed.distribution.size(), reference.distribution.size());
  for (std::size_t s = 0; s < governed.distribution.size(); ++s) {
    EXPECT_EQ(governed.distribution[s], reference.distribution[s]);
  }
  EXPECT_EQ(governed.iterations, reference.iterations);
}

TEST(BudgetSolve, TransientObservesCancellation) {
  chor::StatechartExtraction extraction;
  const pepa::StateSpace space = derive_tomcat(3, {}, extraction);
  util::Budget budget;
  budget.request_cancel();
  ctmc::TransientOptions options;
  options.budget = &budget;
  EXPECT_THROW(
      ctmc::transient_from_state(space.generator(), 0, 1.0, options),
      util::InterruptedError);
}

// ---------------------------------------------------------------------------
// Pipeline and service.

TEST(BudgetPipeline, CancelledBudgetAbortsAnalyseProject) {
  const xml::Document project = uml::to_xmi(chor::pda_handover_model());
  chor::AnalysisOptions options;
  util::Budget budget;
  budget.request_cancel();
  options.budget = &budget;
  EXPECT_THROW(chor::analyse_project(project, options),
               util::InterruptedError);
}

TEST(BudgetPipeline, AnnotatedBytesIdenticalWithBudgetAttached) {
  const xml::Document project = uml::to_xmi(chor::pda_handover_model());
  const std::string expected =
      xml::to_string(chor::analyse_project(project, {}));

  util::ThreadPool pool(4);
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::Budget budget;
    budget.set_deadline_seconds(3600.0);
    chor::AnalysisOptions options;
    options.budget = &budget;
    options.derive_threads = threads;
    options.derive_pool = threads > 1 ? &pool : nullptr;
    const xml::Document annotated = chor::analyse_project(project, options);
    EXPECT_EQ(xml::to_string(annotated), expected)
        << "lane count " << threads;
    EXPECT_GT(budget.usage().states, 0u);
  }
}

/// A large state-machine project (~280k joint states at 13 clients): the
/// derivation runs long enough that a client can observably cancel it from
/// the middle of the breadth-first exploration.
service::JobRequest large_tomcat_request() {
  chor::TomcatParams params;
  params.clients = 13;
  service::JobRequest request;
  request.name = "large-tomcat";
  request.project = uml::to_xmi(chor::tomcat_model(false, params));
  return request;
}

TEST(BudgetService, CancelLandsMidDeriveWithPartialStats) {
  service::Registry registry;
  service::SchedulerOptions options;
  options.workers = 1;
  options.registry = &registry;
  service::Scheduler scheduler(options);

  service::JobHandle handle = scheduler.submit(large_tomcat_request());
  // Wait until exploration is demonstrably under way, then cancel: the
  // derive loop must notice at its next level boundary.
  while (handle.progress().states < 1000) {
    ASSERT_FALSE(service::is_terminal(handle.status()))
        << "job finished before cancellation could land";
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  handle.cancel();

  const service::JobResult result = handle.wait();
  EXPECT_EQ(result.status, service::JobStatus::kCancelled);
  EXPECT_EQ(result.error, "cancelled while running");

  // Partial derivation statistics from the budget accounting: exploration
  // got somewhere (>= the 1000 states we waited for) but not to the end.
  EXPECT_GE(result.partial_derive_stats.dedup_misses, 1000u);
  EXPECT_GE(result.partial_derive_stats.levels, 1u);
  EXPECT_GE(result.partial_derive_stats.peak_frontier, 1u);

  // The interruption was observed inside the derive stage, not at a
  // checkpoint, and the peak footprint was exported.
  EXPECT_EQ(
      registry.counter("choreo_jobs_interrupted_in_stage_total", "").value(),
      1u);
  EXPECT_GT(registry.gauge("choreo_budget_peak_state_bytes", "").value(), 0);
}

TEST(BudgetService, DeadlineLandsMidDeriveAsTimedOut) {
  service::SchedulerOptions options;
  options.workers = 1;
  service::Scheduler scheduler(options);

  service::JobRequest request = large_tomcat_request();
  // Far shorter than the ~1s derivation, far longer than the queue hop.
  request.timeout_seconds = 0.05;
  const service::JobResult result =
      scheduler.submit(std::move(request)).wait();
  EXPECT_EQ(result.status, service::JobStatus::kTimedOut);
  EXPECT_EQ(result.error, "deadline passed while running");
  EXPECT_GE(result.partial_derive_stats.dedup_misses, 1u);
  EXPECT_GE(result.partial_derive_stats.levels, 1u);
}

TEST(BudgetService, TimeoutBeyondTheClockRangeNeverExpires) {
  service::SchedulerOptions options;
  options.workers = 1;
  service::Scheduler scheduler(options);
  service::JobRequest request;
  request.name = "tomcat";
  request.project = uml::to_xmi(chor::tomcat_model(false));
  request.timeout_seconds = 1e12;
  EXPECT_EQ(scheduler.submit(std::move(request)).wait().status,
            service::JobStatus::kDone);
}

TEST(BudgetService, ProgressIsObservableWhileRunning) {
  service::SchedulerOptions options;
  options.workers = 1;
  service::Scheduler scheduler(options);
  service::JobHandle handle = scheduler.submit(large_tomcat_request());
  util::BudgetUsage snapshot;
  while (snapshot.states < 5000) {
    ASSERT_FALSE(service::is_terminal(handle.status()));
    snapshot = handle.progress();
  }
  EXPECT_GE(snapshot.levels, 1u);
  EXPECT_GT(snapshot.peak_state_bytes, 0u);
  handle.cancel();
  EXPECT_EQ(handle.wait().status, service::JobStatus::kCancelled);
}

}  // namespace
