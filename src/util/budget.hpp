// Resource governance for long-running analyses: one Budget object per job
// carries the wall-clock deadline, the cooperative cancellation flag and a
// state/byte accounting hook, and is threaded from the service scheduler
// down into the hot loops of the pipeline — the level-synchronous BFS of
// pepa::StateSpace::derive / pepanet::NetStateSpace::derive and the solver
// iteration loops of ctmc::steady_state / ctmc::transient.
//
// Checks are *cooperative* and placed only at deterministic points (once
// per breadth-first frontier level, every few solver iterations), so an
// interrupted run stops within one frontier level while uninterrupted runs
// remain byte-identical at any lane count.  An observed interruption
// raises util::InterruptedError; an exhausted byte budget raises
// util::BudgetError.  All members are thread-safe: exploration lanes
// charge concurrently while a client thread cancels.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <limits>

namespace choreo::util {

/// Progress counters a Budget has accumulated, readable while the job is
/// still running (JobHandle::progress) and after an interruption (partial
/// DeriveStats for cancelled/timed-out jobs).
struct BudgetUsage {
  /// States/markings discovered by explorations charged to this budget.
  std::size_t states = 0;
  /// Approximate bytes currently held by those states.
  std::size_t state_bytes = 0;
  /// High-water mark of state_bytes.
  std::size_t peak_state_bytes = 0;
  /// Breadth-first levels explored.
  std::size_t levels = 0;
  /// Largest frontier (states expanded in one level).
  std::size_t peak_frontier = 0;
  /// Solver iterations charged to this budget.
  std::size_t solver_iterations = 0;
};

class Budget {
 public:
  using Clock = std::chrono::steady_clock;

  /// How many solver iterations (linear-solver sweeps, uniformisation
  /// terms, ODE step attempts) run between cooperative check() calls.
  /// Shared by ctmc::steady_state, ctmc::transient and fluid::integrate so
  /// the cancellation latency of every iterative solver is the same.
  static constexpr std::size_t kSolverCheckStride = 8;

  Budget() = default;

  Budget(const Budget&) = delete;
  Budget& operator=(const Budget&) = delete;

  /// Absolute wall-clock deadline; Clock::time_point::max() (the default)
  /// disables it.
  void set_deadline(Clock::time_point deadline) {
    deadline_ns_.store(deadline.time_since_epoch().count(),
                       std::memory_order_relaxed);
  }

  /// Relative convenience: `seconds` from now; <= 0, NaN, or 10^9 (about
  /// 31 years) and beyond disables the deadline.
  void set_deadline_seconds(double seconds);

  /// Approximate byte bound on states charged to this budget; 0 (the
  /// default) disables it.  Exceeding it makes check() throw BudgetError.
  void set_max_state_bytes(std::size_t bytes) {
    max_state_bytes_.store(bytes, std::memory_order_relaxed);
  }

  /// Requests cooperative cancellation; the next check() throws.
  void request_cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  bool cancel_requested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  bool deadline_passed() const {
    // Load the deadline first and short-circuit when none is set: this runs
    // every solver check stride and every BFS level, and most jobs have no
    // deadline — skipping Clock::now() keeps the common case a single load.
    const std::int64_t ns = deadline_ns_.load(std::memory_order_relaxed);
    return ns != kNoDeadline && Clock::now().time_since_epoch().count() > ns;
  }

  /// The cooperative checkpoint: throws InterruptedError(kCancelled) when
  /// cancellation was requested, InterruptedError(kDeadline) when the
  /// deadline passed, and BudgetError when the byte budget is exhausted.
  /// `stage` names the caller for error texts and the service's
  /// interrupted-in-stage metric ("derive", "solve", "checkpoint", ...).
  void check(const char* stage) const;

  /// Accounting hooks (thread-safe; any exploration lane may call them).
  void charge_states(std::size_t states, std::size_t bytes);
  void release_state_bytes(std::size_t bytes) {
    state_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }
  void note_level(std::size_t frontier);
  void charge_solver_iterations(std::size_t iterations) {
    solver_iterations_.fetch_add(iterations, std::memory_order_relaxed);
  }

  /// Point-in-time copy of the accumulated counters.
  BudgetUsage usage() const;

 private:
  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  std::atomic<std::int64_t> deadline_ns_{kNoDeadline};
  std::atomic<bool> cancelled_{false};
  std::atomic<std::size_t> max_state_bytes_{0};

  std::atomic<std::size_t> states_{0};
  std::atomic<std::size_t> state_bytes_{0};
  std::atomic<std::size_t> peak_state_bytes_{0};
  std::atomic<std::size_t> levels_{0};
  std::atomic<std::size_t> peak_frontier_{0};
  std::atomic<std::size_t> solver_iterations_{0};
};

}  // namespace choreo::util
